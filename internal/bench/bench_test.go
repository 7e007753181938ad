package bench

import (
	"bytes"
	"strings"
	"testing"

	"parroute/internal/mp"
	"parroute/internal/parallel"
	"parroute/internal/partition"
)

func quickSuite() *Suite {
	return NewSuite(Config{
		Circuits: []string{"primary2"},
		Procs:    []int{1, 2},
		Seed:     7,
	})
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	s := quickSuite()
	if err := s.Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "primary2", "rows", "3014", "3029"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestScaledTracksTables(t *testing.T) {
	s := quickSuite()
	for _, table := range []int{2, 3, 4} {
		var buf bytes.Buffer
		if err := s.ScaledTracks(&buf, table); err != nil {
			t.Fatalf("table %d: %v", table, err)
		}
		out := buf.String()
		if !strings.Contains(out, "1.000") {
			t.Errorf("table %d: 1-proc column should be 1.000:\n%s", table, out)
		}
		if !strings.Contains(out, "primary2") {
			t.Errorf("table %d: missing circuit row", table)
		}
	}
	if err := s.ScaledTracks(&bytes.Buffer{}, 9); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestSpeedupFigures(t *testing.T) {
	s := quickSuite()
	for _, fig := range []int{4, 5, 6} {
		var buf bytes.Buffer
		if err := s.Speedups(&buf, fig); err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		if !strings.Contains(buf.String(), "(average)") {
			t.Errorf("figure %d missing average row", fig)
		}
	}
	if err := s.Speedups(&bytes.Buffer{}, 7); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestTable5Output(t *testing.T) {
	s := quickSuite()
	var buf bytes.Buffer
	if err := s.Table5(&buf, 2, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 5", "SMP2", "DMP4", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5 missing %q:\n%s", want, out)
		}
	}
}

func TestAblations(t *testing.T) {
	s := quickSuite()
	var buf bytes.Buffer
	if err := s.AblationPartition(&buf, "primary2", 4); err != nil {
		t.Fatal(err)
	}
	for _, m := range partition.Methods() {
		if !strings.Contains(buf.String(), m.String()) {
			t.Errorf("partition ablation missing method %v", m)
		}
	}
	buf.Reset()
	if err := s.AblationSync(&buf, "primary2", 4, []int{-1, 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "none") {
		t.Error("sync ablation should label the no-sync row")
	}
}

func TestSuiteCaching(t *testing.T) {
	s := quickSuite()
	a, err := s.Baseline("primary2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Baseline("primary2")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("baseline not cached")
	}
	r1, err := s.Run("primary2", parallel.RowWise, 2, mp.SMP(), 0, partition.PinWeight)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run("primary2", parallel.RowWise, 2, mp.SMP(), 0, partition.PinWeight)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("run not cached")
	}
	// Different key -> different run.
	r3, err := s.Run("primary2", parallel.RowWise, 2, mp.DMP(), 0, partition.PinWeight)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("different cost model hit the same cache entry")
	}
}

func TestSuiteUnknownCircuit(t *testing.T) {
	s := NewSuite(Config{Circuits: []string{"nope"}})
	if err := s.Table1(&bytes.Buffer{}); err == nil {
		t.Fatal("unknown circuit accepted")
	}
}

func TestAblationPlatform(t *testing.T) {
	s := quickSuite()
	var buf bytes.Buffer
	if err := s.AblationPlatform(&buf, "primary2", []int{2, 4, 1000}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "smp @2") || !strings.Contains(out, "dmp @4") {
		t.Fatalf("platform rows missing:\n%s", out)
	}
	if strings.Contains(out, "@1000") {
		t.Fatal("impossible proc count not skipped")
	}
}

func TestScaledTracksStats(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Circuits: []string{"primary2"}, Procs: []int{1, 2}}
	if err := ScaledTracksStats(&buf, cfg, 2, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "over 2 seeds") || !strings.Contains(out, "[") {
		t.Fatalf("stats table malformed:\n%s", out)
	}
	if err := ScaledTracksStats(&buf, cfg, 2, nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
	if err := ScaledTracksStats(&buf, cfg, 9, []uint64{1}); err == nil {
		t.Fatal("unknown table accepted")
	}
}
