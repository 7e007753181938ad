package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkJSONMatchesDriver is the tier-1 smoke: BENCHMARK.json
// parses, its names are well formed, and the workloads and metrics it
// declares are exactly what the driver emits — checked by running every
// workload, untraced and traced, at -quick scale.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	var declared []string
	for _, w := range bj.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		if w.Why == "" {
			t.Errorf("workload %s declares no why", w.Name)
		}
		declared = append(declared, w.Name)
	}
	if !sameSet(declared, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, driver runs %v", declared, workloadNames)
	}
	wantE2E := map[string]metricDef{}
	for _, m := range bj.EndToEnd {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("end_to_end name %q is malformed", m.Name)
		}
		wantE2E[m.Name] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
	}
	for _, d := range endToEnd {
		if got := wantE2E[d.Name]; got != d {
			t.Errorf("end_to_end %s: BENCHMARK.json has %+v, the driver %+v", d.Name, got, d)
		}
	}
	wantLayer := map[string]metricDef{}
	for _, m := range bj.PerLayer {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("per_layer name %q is malformed", m.Name)
		}
		wantLayer[m.Name] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}
	}
	for _, d := range perLayer {
		if got := wantLayer[d.Name]; got != d {
			t.Errorf("per_layer %s: BENCHMARK.json has %+v, the driver %+v", d.Name, got, d)
		}
	}

	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 7, seconds: 0.1, trace: traced, sc: quickScale, nproc: runtime.NumCPU()}
			out, info, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w, traced, out.Failed, out.Attempted, info.Errors)
			}
			var emitted, want []string
			for name := range out.Metrics {
				emitted = append(emitted, name)
			}
			for name := range wantE2E {
				if !traced {
					want = append(want, name)
				}
			}
			for name := range wantLayer {
				if traced {
					want = append(want, name)
				}
			}
			if !sameSet(emitted, want) {
				sort.Strings(emitted)
				sort.Strings(want)
				t.Errorf("%s trace=%v emits %v, BENCHMARK.json declares %v", w, traced, emitted, want)
			}
			if traced && len(info.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w)
			}
			for _, s := range info.Spans {
				if s.EndNS < s.StartNS {
					t.Errorf("%s: span %d %q ends before it starts", w, s.ID, s.Name)
				}
			}
		}
	}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNS: 0, EndNS: 100e6},
		{ID: 2, Parent: 1, Name: "stage", StartNS: 10e6, EndNS: 50e6},
		{ID: 3, Parent: 1, Name: "stage", StartNS: 30e6, EndNS: 70e6}, // overlaps span 2: two ranks
	}
	rows := selfTimes(spans)
	if len(rows) != 2 || rows[0].Name != "op" || rows[1].Name != "stage" {
		t.Fatalf("rows %+v", rows)
	}
	if rows[0].SelfMS != 40 { // 100 minus the union [10,70)
		t.Errorf("op self time %v ms, want 40", rows[0].SelfMS)
	}
	if rows[1].Count != 2 || rows[1].TotalMS != 80 || rows[1].SelfMS != 80 {
		t.Errorf("stage row %+v", rows[1])
	}
}
