package gen

import (
	"math"
	"os"
	"testing"

	"parroute/internal/circuit"
)

func TestPresetsGenerateValidCircuits(t *testing.T) {
	for _, name := range CircuitNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = 1
			c, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("invalid circuit: %v", err)
			}
			s := c.ComputeStats()
			if s.Rows != cfg.Rows || s.Cells != cfg.Cells || s.Nets != cfg.Nets {
				t.Fatalf("stats %+v do not match preset %+v", s, cfg)
			}
			// Pin counts are sampled; within 10% of target.
			if math.Abs(float64(s.Pins-cfg.TargetPins)) > 0.1*float64(cfg.TargetPins) {
				t.Fatalf("pins = %d, target %d", s.Pins, cfg.TargetPins)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Benchmark("primary2", 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Benchmark("primary2", 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pins) != len(b.Pins) {
		t.Fatalf("pin counts differ: %d vs %d", len(a.Pins), len(b.Pins))
	}
	for i := range a.Pins {
		if a.Pins[i] != b.Pins[i] {
			t.Fatalf("pin %d differs: %+v vs %+v", i, a.Pins[i], b.Pins[i])
		}
	}
	c, err := Benchmark("primary2", 10)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range a.Pins {
		if i < len(c.Pins) && a.Pins[i] != c.Pins[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical circuits")
	}
}

func TestDifferentPresetsDifferUnderSameSeed(t *testing.T) {
	a, _ := Benchmark("primary2", 5)
	b, _ := Benchmark("biomed", 5)
	if a.CoreWidth() == b.CoreWidth() && len(a.Pins) == len(b.Pins) {
		t.Fatal("presets suspiciously identical")
	}
}

func TestGiantNets(t *testing.T) {
	c, err := Benchmark("avq.large", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := Preset("avq.large")
	for i, want := range cfg.GiantNets {
		if got := len(c.NetPins(i)); got != want {
			t.Fatalf("giant net %d has %d pins, want %d", i, got, want)
		}
	}
	// The paper: 99% of nets are small.
	small := 0
	for i := range c.Nets {
		if len(c.NetPins(i)) < 10 {
			small++
		}
	}
	if frac := float64(small) / float64(len(c.Nets)); frac < 0.97 {
		t.Fatalf("only %.1f%% of nets are small", 100*frac)
	}
	// Giant nets must spread across most rows (clock-tree shape).
	bb := c.NetBBox(0)
	if h := bb.MaxY - bb.MinY; h < len(c.Rows)/2 {
		t.Fatalf("giant net spans only %d rows of %d", h, len(c.Rows))
	}
}

func TestLocality(t *testing.T) {
	c, err := Benchmark("primary2", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Regular nets must be geometrically local: median bbox height small.
	var heights []int
	for i := range c.Nets {
		if len(c.NetPins(i)) < 2 {
			continue
		}
		bb := c.NetBBox(i)
		heights = append(heights, bb.MaxY-bb.MinY)
	}
	tall := 0
	for _, h := range heights {
		if h > 6 {
			tall++
		}
	}
	if frac := float64(tall) / float64(len(heights)); frac > 0.05 {
		t.Fatalf("%.1f%% of nets span more than 6 rows; locality broken", 100*frac)
	}
}

func TestEquivalentPinFraction(t *testing.T) {
	c, err := Benchmark("primary2", 3)
	if err != nil {
		t.Fatal(err)
	}
	both := 0
	for i := range c.Pins {
		if c.Pins[i].Side == circuit.Both {
			both++
		}
	}
	frac := float64(both) / float64(len(c.Pins))
	if frac < 0.5 || frac > 0.7 {
		t.Fatalf("Both-side pin fraction = %.2f, want about 0.6", frac)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Rows: 0, Cells: 10, Nets: 10},
		{Rows: 10, Cells: 5, Nets: 10},                                        // fewer cells than rows
		{Rows: 2, Cells: 10, Nets: 10, TargetPins: 5},                         // too few pins
		{Rows: 2, Cells: 10, Nets: 2, GiantNets: []int{1}},                    // giant degree < 2
		{Rows: 2, Cells: 10, Nets: 1, GiantNets: []int{5, 5}, TargetPins: 20}, // more giants than nets
		{Rows: 2, Cells: 10, Nets: 10, EquivFrac: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestSmallAndTiny(t *testing.T) {
	s := Small(1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ti := Tiny(1)
	if err := ti.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ti.Cells) >= len(s.Cells) {
		t.Fatal("Tiny should be smaller than Small")
	}
}

func TestAllNamesSorted(t *testing.T) {
	names := AllNames()
	if len(names) != 8 {
		t.Fatalf("expected 8 presets, got %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

// TestCircuitNamesOrder pins the paper's Table 1 order and that the
// synthetic scale presets stay out of the default benchmark set — code
// that defaults to CircuitNames must never route a million cells by
// accident.
func TestCircuitNamesOrder(t *testing.T) {
	want := []string{"primary2", "biomed", "industry2", "industry3", "avq.small", "avq.large"}
	got := CircuitNames()
	if len(got) != len(want) {
		t.Fatalf("CircuitNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CircuitNames = %v, want %v", got, want)
		}
	}
	for _, s := range scaleNames {
		for _, n := range got {
			if n == s {
				t.Fatalf("scale preset %q leaked into CircuitNames", s)
			}
		}
		if _, err := Preset(s); err != nil {
			t.Fatalf("scale preset %q not registered: %v", s, err)
		}
	}
}

// scaleNames are the synthetic scale presets, smallest first.
var scaleNames = []string{"synth.100k", "synth.1m"}

// TestScalePresetsGenerateValidCircuits mirrors the MCNC stats test for
// the synthetic scale presets. synth.100k runs except under -short;
// synth.1m generates a million cells and is opt-in via SCALE_1M=1.
func TestScalePresetsGenerateValidCircuits(t *testing.T) {
	for _, name := range scaleNames {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() {
				t.Skipf("skipping %s in -short mode", name)
			}
			if name == "synth.1m" && os.Getenv("SCALE_1M") == "" {
				t.Skip("set SCALE_1M=1 to generate the million-cell preset")
			}
			cfg, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = 1
			c, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("invalid circuit: %v", err)
			}
			s := c.ComputeStats()
			if s.Rows != cfg.Rows || s.Cells != cfg.Cells || s.Nets != cfg.Nets {
				t.Fatalf("stats %+v do not match preset %+v", s, cfg)
			}
			if math.Abs(float64(s.Pins-cfg.TargetPins)) > 0.1*float64(cfg.TargetPins) {
				t.Fatalf("pins = %d, target %d", s.Pins, cfg.TargetPins)
			}
		})
	}
}
