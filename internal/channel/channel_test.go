package channel

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"parroute/internal/gen"
	"parroute/internal/geom"
	"parroute/internal/metrics"
	"parroute/internal/rng"
	"parroute/internal/route"
)

func iv(lo, hi int) geom.Interval { return geom.NewInterval(lo, hi) }

func TestRouteEmpty(t *testing.T) {
	asg := Route(nil)
	if asg.Tracks != 0 || asg.BrokenConstraints != 0 {
		t.Fatalf("empty channel: %+v", asg)
	}
	// Only empty-span wires.
	asg = Route([]Wire{{Span: geom.Interval{Lo: 1, Hi: 0}}})
	if asg.Tracks != 0 || asg.Track[0] != -1 {
		t.Fatalf("empty-span wires: %+v", asg)
	}
}

func TestRouteDisjointWiresShareATrack(t *testing.T) {
	wires := []Wire{
		{Net: 0, Span: iv(0, 10)},
		{Net: 1, Span: iv(20, 30)},
		{Net: 2, Span: iv(40, 50)},
	}
	asg := Route(wires)
	if asg.Tracks != 1 {
		t.Fatalf("disjoint wires used %d tracks", asg.Tracks)
	}
	if err := Validate(wires, asg); err != nil {
		t.Fatal(err)
	}
}

func TestRouteOverlapNeedsMoreTracks(t *testing.T) {
	wires := []Wire{
		{Net: 0, Span: iv(0, 30)},
		{Net: 1, Span: iv(10, 40)},
		{Net: 2, Span: iv(20, 50)},
	}
	asg := Route(wires)
	if asg.Tracks != 3 {
		t.Fatalf("3 mutually overlapping wires used %d tracks", asg.Tracks)
	}
	if err := Validate(wires, asg); err != nil {
		t.Fatal(err)
	}
}

func TestRouteMatchesDensityWithoutConstraints(t *testing.T) {
	// Left-edge is optimal without vertical constraints: tracks == density.
	r := rng.New(11)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(60)
		wires := make([]Wire, n)
		for i := range wires {
			a := r.Intn(400)
			wires[i] = Wire{Net: i, Span: iv(a, a+1+r.Intn(80))}
		}
		asg := Route(wires)
		if d := Density(wires); asg.Tracks != d {
			t.Fatalf("trial %d: %d tracks for density %d", trial, asg.Tracks, d)
		}
		if err := Validate(wires, asg); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestVerticalConstraintOrdersTracks(t *testing.T) {
	// Wire A has a top contact at x=5, wire B a bottom contact at x=5;
	// both overlap. A must land on a strictly higher (smaller index)
	// track than B.
	wires := []Wire{
		{Net: 0, Span: iv(0, 10), Top: []int{5}},
		{Net: 1, Span: iv(0, 10), Bottom: []int{5}},
	}
	asg := Route(wires)
	if asg.BrokenConstraints != 0 {
		t.Fatalf("broke %d constraints unnecessarily", asg.BrokenConstraints)
	}
	if asg.Track[0] >= asg.Track[1] {
		t.Fatalf("top-connected wire on track %d, bottom-connected on %d",
			asg.Track[0], asg.Track[1])
	}
}

func TestVerticalConstraintForcesExtraTrack(t *testing.T) {
	// Two non-overlapping wires (density 1) with a constraint chain that
	// forces separate tracks: A top-contacts at 5, B bottom-contacts at 5,
	// but their spans do not overlap horizontally... make them conflict
	// only via the constraint: A [0,10] top@5, B [20,30] bottom@25 is no
	// conflict. Use shared column: A [0,10] top@8, B [8,30] bottom@8:
	// density 2 anyway. Instead: A [0,10] top@5; B [5,30] bottom@5.
	wires := []Wire{
		{Net: 0, Span: iv(0, 5), Top: []int{5}},
		{Net: 1, Span: iv(5, 30), Bottom: []int{5}},
	}
	asg := Route(wires)
	// They overlap only at x=5 (density 2), and the constraint must hold.
	if asg.Track[0] >= asg.Track[1] {
		t.Fatalf("constraint violated: %v", asg.Track)
	}
	if err := Validate(wires, asg); err != nil {
		t.Fatal(err)
	}
}

func TestCyclicConstraintsBrokenNotDeadlocked(t *testing.T) {
	// A above B at x=5, B above A at x=20: a classic VCG cycle that is
	// unroutable without doglegs. The router must terminate, report the
	// broken constraint, and still produce a valid overlap-free layout.
	wires := []Wire{
		{Net: 0, Span: iv(0, 30), Top: []int{5}, Bottom: []int{20}},
		{Net: 1, Span: iv(0, 30), Bottom: []int{5}, Top: []int{20}},
	}
	asg := Route(wires)
	if asg.BrokenConstraints == 0 {
		t.Fatal("cycle went undetected")
	}
	if err := Validate(wires, asg); err != nil {
		t.Fatal(err)
	}
	if asg.Tracks != 2 {
		t.Fatalf("%d tracks", asg.Tracks)
	}
}

func TestRouteDeterministic(t *testing.T) {
	r := rng.New(5)
	wires := make([]Wire, 50)
	for i := range wires {
		a := r.Intn(300)
		wires[i] = Wire{Net: i, Span: iv(a, a+5+r.Intn(50)),
			Top: []int{a + 1}, Bottom: []int{a + 3}}
	}
	a1 := Route(wires)
	a2 := Route(wires)
	for i := range a1.Track {
		if a1.Track[i] != a2.Track[i] {
			t.Fatalf("wire %d track differs between runs", i)
		}
	}
}

func TestRoutePropertyValidAndBounded(t *testing.T) {
	// Random instances: always valid, tracks within [density, wires].
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := 1 + r.Intn(40)
		wires := make([]Wire, n)
		for i := range wires {
			a := r.Intn(200)
			w := Wire{Net: i, Span: iv(a, a+r.Intn(60))}
			if r.Bool() {
				w.Top = []int{int(w.Span.Lo) + r.Intn(w.Span.Len())}
			}
			if r.Bool() {
				w.Bottom = []int{int(w.Span.Lo) + r.Intn(w.Span.Len())}
			}
			wires[i] = w
		}
		asg := Route(wires)
		if Validate(wires, asg) != nil {
			return false
		}
		d := Density(wires)
		return asg.Tracks >= d && asg.Tracks <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	wires := []Wire{
		{Net: 0, Span: iv(0, 10)},
		{Net: 1, Span: iv(5, 15)},
	}
	bad := Assignment{Track: []int{0, 0}, Tracks: 1}
	if err := Validate(wires, bad); err == nil {
		t.Fatal("overlapping wires on one track accepted")
	}
	if err := Validate(wires, Assignment{Track: []int{0}}); err == nil {
		t.Fatal("wrong track-list length accepted")
	}
	if err := Validate(wires, Assignment{Track: []int{0, 5}, Tracks: 2}); err == nil {
		t.Fatal("out-of-range track accepted")
	}
}

func TestFromWiresContactDerivation(t *testing.T) {
	// Wire in channel 3 with endpoint anchors in rows 3 (above -> top
	// contact) and 2 (below -> bottom contact).
	ws := []metrics.Wire{{
		Net: 7, Channel: 3,
		AX: 10, ARow: 3, BX: 50, BRow: 2,
	}}
	byCh := FromWires(5, ws)
	if len(byCh[3]) != 1 {
		t.Fatalf("wire not bucketed: %v", byCh)
	}
	cw := byCh[3][0]
	if len(cw.Top) != 1 || cw.Top[0] != 10 {
		t.Fatalf("top contacts: %v", cw.Top)
	}
	if len(cw.Bottom) != 1 || cw.Bottom[0] != 50 {
		t.Fatalf("bottom contacts: %v", cw.Bottom)
	}
	// Forced-edge anchors far from the channel produce no contacts.
	ws[0].ARow = 0
	ws[0].BRow = 9
	cw = FromWires(5, ws)[3][0]
	if len(cw.Top)+len(cw.Bottom) != 0 {
		t.Fatalf("distant anchors produced contacts: %+v", cw)
	}
}

func TestRouteAllOnRealCircuit(t *testing.T) {
	// End-to-end: route a small circuit, then channel-route the result.
	c := gen.Small(3)
	res, err := route.Route(context.Background(), c, route.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := RouteAll(c.NumChannels(), res.Wires)
	if sum.DensityTracks != res.TotalTracks {
		t.Fatalf("density sum %d != result tracks %d", sum.DensityTracks, res.TotalTracks)
	}
	if sum.AssignedTracks < sum.DensityTracks {
		t.Fatalf("assigned %d below the density lower bound %d",
			sum.AssignedTracks, sum.DensityTracks)
	}
	// Vertical constraints cost a bounded premium over the lower bound.
	if float64(sum.AssignedTracks) > 1.5*float64(sum.DensityTracks) {
		t.Fatalf("assigned %d tracks for density %d: constraint handling exploded",
			sum.AssignedTracks, sum.DensityTracks)
	}
	// Per-channel assignments must validate against the channel's wires.
	byCh := FromWires(c.NumChannels(), res.Wires)
	for ch := range byCh {
		if err := Validate(byCh[ch], sum.PerChannel[ch]); err != nil {
			t.Fatalf("channel %d: %v", ch, err)
		}
	}
}

// Validate checks an assignment: wires on the same track never overlap,
// every non-empty wire has a track, and the track count is consistent.
// It returns the first violation found.
func Validate(wires []Wire, asg Assignment) error {
	if len(asg.Track) != len(wires) {
		return fmt.Errorf("channel: %d track entries for %d wires", len(asg.Track), len(wires))
	}
	byTrack := make(map[int][]int)
	for i := range wires {
		tr := asg.Track[i]
		if wires[i].Span.Empty() {
			if tr != -1 {
				return fmt.Errorf("channel: empty wire %d assigned track %d", i, tr)
			}
			continue
		}
		if tr < 0 || tr >= asg.Tracks {
			return fmt.Errorf("channel: wire %d on track %d of %d", i, tr, asg.Tracks)
		}
		byTrack[tr] = append(byTrack[tr], i)
	}
	for tr, idxs := range byTrack {
		sort.Slice(idxs, func(a, b int) bool {
			if la, lb := wires[idxs[a]].Span.Lo, wires[idxs[b]].Span.Lo; la != lb {
				return la < lb
			}
			// Same-Lo wires on one track necessarily overlap; the index
			// tiebreak just pins which pair the error message names.
			return idxs[a] < idxs[b]
		})
		for k := 1; k < len(idxs); k++ {
			prev, cur := &wires[idxs[k-1]], &wires[idxs[k]]
			if prev.Span.Overlaps(cur.Span) {
				return fmt.Errorf("channel: track %d: wires %d and %d overlap (%v, %v)",
					tr, idxs[k-1], idxs[k], prev.Span, cur.Span)
			}
		}
	}
	return nil
}
