package partition

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"parroute/internal/circuit"
	"parroute/internal/gen"
	"parroute/internal/rng"
)

// refWeight is weight with PinWeight's float weight, -(pins^1.5), which
// Nets no longer computes: it sorts PinWeight nets by degree instead.
func refWeight(c *circuit.Circuit, net int, blocks []RowBlock, m Method) float64 {
	if pins := len(c.NetPins(net)); m == PinWeight && pins > 0 {
		return -math.Pow(float64(pins), 1.5)
	}
	return weight(c, net, blocks, m)
}

// refNets is Nets as it stood with the reflective sort.Slice over every
// net and PinWeight's float weight, kept as the oracle for the radix and
// counting sorts.
func refNets(c *circuit.Circuit, blocks []RowBlock, p int, cfg Config) []int {
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
		pins := len(c.NetPins(i))
		totalPins += pins
		entries = append(entries, entry{net: i, weight: refWeight(c, i, blocks, cfg.Method), pins: pins})
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
		for start < len(entries) && float64(entries[start].pins) > largeFactor*avg {
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
// vector the sort.Slice form over float weights did. Nets now orders the
// float-weighted methods by a radix sort over the weights' uint64 image and
// PinWeight by a counting sort over degrees, both leaning on entries
// arriving in net order, so the inputs press on exactly that: circuits
// where most weights tie (a few distinct degrees for PinWeight, one weight
// per row block for Density, whole-row centroids for Center) and the net
// tiebreak carries the order; pinless nets, whose weight 0 sorts after
// PinWeight's negatives and before the other methods' positives; one
// 5000-pin net and one above 2^16 pins; and a circuit whose Center keys
// differ in every one of the eight bytes, so no radix pass is skipped.
func TestNetsMatchesReflectiveSortForm(t *testing.T) {
	type input struct {
		name     string
		cfg      gen.Config
		pinless  int  // nets without pins appended to the generated ones
		tieHeavy bool // at most a quarter of the nets weigh differently
		allBytes bool // Center keys must differ in every byte
		minGiant int  // some net must have more pins than this
	}
	var inputs []input
	for seed := uint64(1); seed <= 4; seed++ {
		// MaxDegree 3 leaves two regular degrees beside the two giants.
		inputs = append(inputs, input{name: fmt.Sprintf("ties%d", seed), tieHeavy: true, cfg: gen.Config{
			Rows: 7 + int(seed), Cells: 400, Nets: 500, TargetPins: 1300,
			MaxDegree: 3, GiantNets: []int{60, 60}, Seed: seed,
		}})
	}
	inputs = append(inputs,
		input{name: "pinless", pinless: 40, tieHeavy: true, cfg: gen.Config{
			Rows: 9, Cells: 400, Nets: 500, TargetPins: 1300, MaxDegree: 3, GiantNets: []int{60}, Seed: 5}},
		input{name: "giant5000", pinless: 3, cfg: gen.Config{
			Rows: 12, Cells: 3000, Nets: 1500, TargetPins: 10000, GiantNets: []int{5000}, Seed: 6}},
		input{name: "allbytes", pinless: 1, allBytes: true, cfg: gen.Config{
			Rows: 24, Cells: 6000, Nets: 5000, TargetPins: 19000, LocalityRows: 3, Seed: 7}},
		// Degrees 2–3 beside two giants: nearly every PinWeight weight ties.
		input{name: "equaldeg", pinless: 200, tieHeavy: true, cfg: gen.Config{
			Rows: 8, Cells: 600, Nets: 2000, TargetPins: 5200, MaxDegree: 3, GiantNets: []int{90, 90}, Seed: 8}},
		input{name: "giant70000", pinless: 5, minGiant: 1 << 16, cfg: gen.Config{
			Rows: 16, Cells: 8000, Nets: 3000, TargetPins: 80000, GiantNets: []int{70000, 900, 900}, Seed: 9}},
	)
	for _, in := range inputs {
		in.cfg.Name = in.name
		c, err := gen.Generate(in.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < in.pinless; i++ {
			c.AddNet("")
		}
		giant := 0
		for n := range c.Nets {
			giant = max(giant, len(c.NetPins(n)))
		}
		if in.minGiant > 0 && giant <= in.minGiant {
			t.Fatalf("%s: no net has more than %d pins", in.name, in.minGiant)
		}
		for _, p := range []int{2, 3, 4, 5, 8} {
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
				name := fmt.Sprintf("%s/p%d/%v", in.name, p, m)
				distinct := map[float64]bool{}
				var differ uint64
				first := sortKey(refWeight(c, 0, blocks, m))
				for n := range c.Nets {
					w := refWeight(c, n, blocks, m)
					distinct[w] = true
					differ |= sortKey(w) ^ first
				}
				if in.tieHeavy && m != Locus && len(distinct)*4 > len(c.Nets) {
					t.Fatalf("%s: %d distinct weights over %d nets: not a tie-heavy input", name, len(distinct), len(c.Nets))
				}
				for b := 0; in.allBytes && m == Center && b < 8; b++ {
					if differ>>(8*b)&0xff == 0 {
						t.Fatalf("%s: every key agrees on byte %d: a radix pass goes unused", name, b)
					}
				}
				if want := refNets(c, blocks, p, cfg); !slices.Equal(got, want) {
					t.Fatalf("%s: owner vector differs from the sort.Slice form", name)
				}
			}
		}
	}
}

// TestSortByKeyOrdersAsCompare: over weights drawn to collide and to span
// the float64 line — both zeros, both infinities, subnormals, huge and tiny
// magnitudes of either sign, repeats — sortByKey leaves the entries in the
// order a stable sort by cmp.Compare on the weights does.
func TestSortByKeyOrdersAsCompare(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, -1}
	if sortKey(special[0]) != sortKey(special[1]) {
		t.Fatal("-0 and +0 compare equal but map to different keys")
	}
	r := rng.New(11)
	for _, n := range []int{0, 1, 2, 257, 5000} {
		weights := make([]float64, n)
		entries := make([]entry, n)
		for i := range weights {
			switch r.Intn(4) {
			case 0:
				weights[i] = special[r.Intn(len(special))]
			case 1:
				weights[i] = float64(r.Intn(7)) - 3 // heavy ties
			default:
				weights[i] = math.Float64frombits(uint64(r.Intn(1<<31))<<33 ^ uint64(r.Intn(1<<31))<<2 ^ uint64(r.Intn(4)))
				if weights[i] != weights[i] {
					weights[i] = 0.5
				}
			}
			entries[i] = entry{key: sortKey(weights[i]), net: int32(i), pins: int32(i % 5)}
		}
		want := slices.Clone(entries)
		slices.SortStableFunc(want, func(a, b entry) int { return cmp.Compare(weights[a.net], weights[b.net]) })
		if got := sortByKey(entries); !slices.Equal(got, want) {
			t.Fatalf("n=%d: radix order differs from the stable comparator sort", n)
		}
	}
}
