package gen

import (
	"fmt"
	"sort"

	"parroute/internal/circuit"
)

// The presets mirror the published characteristics of the six MCNC
// layout-synthesis circuits the paper evaluates on (its Table 1): row,
// cell, net and pin counts. avq.large additionally carries the giant clock
// nets the paper calls out in §5 ("one of them has more than 2000 pins, but
// 99% of the nets have less than 10 pins").
var presets = map[string]Config{
	"primary2": {
		Name: "primary2", Rows: 28, Cells: 3014, Nets: 3029, TargetPins: 11219,
	},
	"biomed": {
		Name: "biomed", Rows: 46, Cells: 6514, Nets: 5742, TargetPins: 21040,
		GiantNets: []int{600, 320},
	},
	"industry2": {
		Name: "industry2", Rows: 72, Cells: 12637, Nets: 13419, TargetPins: 48404,
	},
	"industry3": {
		Name: "industry3", Rows: 54, Cells: 15406, Nets: 21940, TargetPins: 65791,
	},
	"avq.small": {
		Name: "avq.small", Rows: 80, Cells: 21854, Nets: 22124, TargetPins: 76231,
		GiantNets: []int{860, 440},
	},
	"avq.large": {
		Name: "avq.large", Rows: 86, Cells: 25178, Nets: 25384, TargetPins: 82751,
		GiantNets: []int{2300, 940, 510, 260},
	},

	// The synth.* presets extrapolate the MCNC statistics to modern design
	// sizes (they are not in the paper — see DESIGN.md §15). Row counts
	// grow roughly with the square root of cell count so the core keeps a
	// plausible aspect ratio; pins per net, locality and the clock-net
	// heavy tail follow avq.large. They back the scale smoke tiers and the
	// BENCH_PR10 scale points, and are deliberately NOT in CircuitNames:
	// default benchmark sweeps stay at the paper's sizes.
	"synth.100k": {
		Name: "synth.100k", Rows: 180, Cells: 100_000, Nets: 101_000, TargetPins: 333_000,
		GiantNets: []int{5200, 2100, 1000, 520},
	},
	"synth.1m": {
		Name: "synth.1m", Rows: 560, Cells: 1_000_000, Nets: 1_010_000, TargetPins: 3_330_000,
		GiantNets: []int{21_000, 8_400, 4_100, 2_050, 1_020},
	},
}

// CircuitNames returns the preset names in the paper's Table 1 order.
// The synthetic scale presets are excluded on purpose: everything that
// defaults to "the benchmark circuits" (bench sweeps, examples) routes
// the paper's six, and million-cell runs are always an explicit opt-in
// by preset name.
func CircuitNames() []string {
	return []string{"primary2", "biomed", "industry2", "industry3", "avq.small", "avq.large"}
}

// AllNames returns every preset name, sorted.
func AllNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Preset returns the generation config for a named benchmark circuit.
func Preset(name string) (Config, error) {
	cfg, ok := presets[name]
	if !ok {
		return Config{}, fmt.Errorf("gen: unknown preset %q (have %v)", name, AllNames())
	}
	return cfg, nil
}

// Benchmark generates a named benchmark circuit with the given seed.
func Benchmark(name string, seed uint64) (*circuit.Circuit, error) {
	cfg, err := Preset(name)
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	return Generate(cfg)
}

// Small returns a quick circuit for tests and examples: a fraction of
// primary2's size, same structure.
func Small(seed uint64) *circuit.Circuit {
	c, err := Generate(Config{
		Name: "small", Rows: 8, Cells: 240, Nets: 260, TargetPins: 900, Seed: seed,
	})
	if err != nil {
		panic(err) //lint:allow panic-in-library static config; Generate cannot fail on it
	}
	return c
}

// Tiny returns a minimal circuit for unit tests: 4 rows, a few dozen nets.
func Tiny(seed uint64) *circuit.Circuit {
	c, err := Generate(Config{
		Name: "tiny", Rows: 4, Cells: 48, Nets: 40, TargetPins: 130, Seed: seed,
	})
	if err != nil {
		panic(err) //lint:allow panic-in-library static config; Generate cannot fail on it
	}
	return c
}
