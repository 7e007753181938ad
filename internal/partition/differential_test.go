package partition

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/gen"
)

// refNets is Nets as it stood with the reflective sort.Slice over every
// net, kept verbatim as the oracle for the slices.SortFunc form.
func refNets(c *circuit.Circuit, blocks []RowBlock, p int, cfg Config) []int {
	cfg.normalize()
	n := len(c.Nets)
	owner := make([]int, n)
	if p == 1 || n == 0 {
		return owner
	}
	type entry struct {
		net    int
		weight float64
		pins   int
	}
	entries := make([]entry, 0, n)
	totalPins := 0
	for i := range c.Nets {
		pins := len(c.Nets[i].Pins)
		totalPins += pins
		entries = append(entries, entry{net: i, weight: weight(c, i, blocks, cfg), pins: pins})
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].weight != entries[b].weight {
			return entries[a].weight < entries[b].weight
		}
		return entries[a].net < entries[b].net
	})
	loads := make([]int, p)
	target := float64(totalPins) / float64(p)
	start := 0
	if cfg.Method == PinWeight {
		avg := float64(totalPins) / float64(n)
		rr := 0
		for start < len(entries) && float64(entries[start].pins) > cfg.LargeFactor*avg {
			owner[entries[start].net] = rr % p
			loads[rr%p] += entries[start].pins
			rr++
			start++
		}
	}
	k := 0
	for _, e := range entries[start:] {
		for k < p-1 && float64(loads[k]) >= target {
			k++
		}
		owner[e.net] = k
		loads[k] += e.pins
	}
	return owner
}

// TestNetsMatchesReflectiveSortForm: all four heuristics assign the owner
// vector the sort.Slice form did, on circuits where most weights tie (a
// few distinct degrees for PinWeight, one weight per row block for Density,
// whole-row centroids for Center) so the (weight, net) tiebreak carries the
// order.
func TestNetsMatchesReflectiveSortForm(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		// MaxDegree 3 leaves two regular degrees beside the two giants.
		c, err := gen.Generate(gen.Config{
			Name: "ties", Rows: 6 + int(seed), Cells: 400, Nets: 500, TargetPins: 1300,
			MaxDegree: 3, GiantNets: []int{60, 60}, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 3, 4, 5} {
			blocks, err := RowBlocks(c, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range Methods() {
				cfg := Config{Method: m}
				got, err := Nets(c, blocks, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed%d/p%d/%v", seed, p, m)
				distinct := map[float64]bool{}
				for n := range c.Nets {
					distinct[weight(c, n, blocks, Config{Method: m, Alpha: 1.5})] = true
				}
				if m != Locus && len(distinct)*4 > len(c.Nets) {
					t.Fatalf("%s: %d distinct weights over %d nets: not a tie-heavy input", name, len(distinct), len(c.Nets))
				}
				if want := refNets(c, blocks, p, cfg); !slices.Equal(got, want) {
					t.Fatalf("%s: owner vector differs from the sort.Slice form", name)
				}
			}
		}
	}
}
