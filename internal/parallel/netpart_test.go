package parallel

import (
	"context"
	"slices"
	"sync"
	"testing"

	"parroute/internal/gen"
	"parroute/internal/mp"
	"parroute/internal/partition"
	"parroute/internal/pipeline"
	"parroute/internal/route"
)

// segmentCounts collects what each rank reports as its step-1 "segments"
// counter: under net-wise, the k-1 segments of every net the rank owns.
type segmentCounts struct {
	mu     sync.Mutex
	counts []int
}

func (*segmentCounts) StageStart(string) {}

func (s *segmentCounts) StageEnd(stage string, m pipeline.StageMetrics) {
	if stage != "steiner" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range m.Counters {
		if c.Name == "segments" {
			s.counts = append(s.counts, int(c.Value))
		}
	}
}

// TestRunUsesTheConfiguredNetPartition: a net-wise run under each of the four
// heuristics builds, rank by rank, the Steiner trees of the nets
// partition.Nets gives that rank under that heuristic — seen from outside as
// the ranks' segment counts — and center is not pinweight. Options.normalize
// used to take the zero Method, which was Center, for "unset" and route with
// pinweight.
func TestRunUsesTheConfiguredNetPartition(t *testing.T) {
	c, err := gen.Benchmark("primary2", 7)
	if err != nil {
		t.Fatal(err)
	}
	const procs = 4
	blocks, err := partition.RowBlocks(c, procs)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[partition.Method][]int{}
	for _, m := range partition.Methods() {
		owner, err := partition.Nets(c, blocks, procs, partition.Config{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		owners[m] = owner
		want := make([]int, procs)
		for n, r := range owner {
			want[r] += max(len(c.NetPins(n))-1, 0)
		}
		var obs segmentCounts
		_, err = Run(context.Background(), c, Options{
			Algo: NetWise, Procs: procs, Mode: mp.Virtual, Route: route.Options{Seed: 7},
			Net: partition.Config{Method: m}, Observers: []pipeline.Observer{&obs},
		})
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(want)
		slices.Sort(obs.counts)
		if !slices.Equal(obs.counts, want) {
			t.Errorf("%v: ranks built %v segments, partition.Nets under %v gives %v", m, obs.counts, m, want)
		}
	}
	if slices.Equal(owners[partition.Center], owners[partition.PinWeight]) {
		t.Fatal("center and pinweight own the same nets on primary2")
	}
	var zero partition.Config
	if zero.Method != partition.PinWeight {
		t.Fatalf("the zero Config selects %v, want the paper's recommendation", zero.Method)
	}
}
