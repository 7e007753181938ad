package grid

import (
	"math"
	"slices"
	"testing"

	"parroute/internal/geom"
	"parroute/internal/rng"
)

// dense is g's whole table flat, in delta index order, read without the
// delta code.
func dense(g *Grid) []int32 { return append(g.DensCounts(), g.FtCounts()...) }

// TestDeltaSyncReproducesSum plays the net-wise protocol on two ranks: each
// adds and moves runs in its own grid and in its replica of the sum, and at
// every sync ships only its AppendDelta pairs, which the other applies. After
// every sync both replicas must hold own0+own1 cell for cell, as adding the
// dense tables computes it; a second AppendDelta straight after a
// sync, when the snapshot equals the table, must yield no pair.
func TestDeltaSyncReproducesSum(t *testing.T) {
	const rows, width, colW = 21, 400, 16
	r := rng.New(5)
	var own, shared [2]*Grid
	var snap [2][]int32
	type run struct {
		ch   int
		span geom.Interval
		row  int
		col  int
	}
	var placed [2][]run
	for k := range own {
		own[k] = New(rows, width, colW)
		shared[k] = own[k].Clone()
		snap[k] = make([]int32, own[k].TableLen())
	}
	both := func(k int, f func(g *Grid)) { f(own[k]); f(shared[k]) }
	for step := 0; step < 400; step++ {
		k := r.Intn(2)
		if n := len(placed[k]); n > 0 && r.Intn(3) == 0 {
			// Move one run to another channel and its crossing to another
			// column, as a coarse flip does.
			w := &placed[k][r.Intn(n)]
			toCh, toCol := r.Intn(rows+1), r.Intn(width/colW)
			both(k, func(g *Grid) {
				g.MoveWire(w.ch, toCh, w.span)
				g.MoveVert(w.row, w.row, w.col, toCol)
			})
			w.ch, w.col = toCh, toCol
		} else {
			w := run{ch: r.Intn(rows + 1), span: geom.NewInterval(r.Intn(width), r.Intn(width)), row: r.Intn(rows), col: r.Intn(width / colW)}
			both(k, func(g *Grid) {
				g.AddHoriz(w.ch, w.span, 1)
				g.AddVert(w.row, w.row, w.col, 1)
			})
			placed[k] = append(placed[k], w)
		}
		if step%17 != 0 {
			continue
		}
		var pairs [2][]int32
		for k := range own {
			pairs[k] = own[k].AppendDelta(nil, snap[k])
			if !slices.Equal(snap[k], dense(own[k])) {
				t.Fatalf("step %d: rank %d: snapshot did not advance to the table", step, k)
			}
			if again := own[k].AppendDelta(nil, snap[k]); len(again) != 0 {
				t.Fatalf("step %d: rank %d: %d pairs against a snapshot equal to the table", step, k, len(again)/2)
			}
		}
		sum := dense(own[0])
		for i, v := range dense(own[1]) {
			sum[i] += v
		}
		for k := range shared {
			if err := shared[k].ApplyDelta(pairs[1-k]); err != nil {
				t.Fatalf("step %d: rank %d: %v", step, k, err)
			}
			if !slices.Equal(dense(shared[k]), sum) {
				t.Fatalf("step %d: rank %d: replica differs from own0+own1", step, k)
			}
		}
	}
	if len(placed[0]) == 0 || len(placed[1]) == 0 {
		t.Fatal("a rank placed nothing")
	}
}

// TestApplyDeltaKeepsUntouchedSlabsNil: a delta that names counters of one
// band allocates that band's slab in the receiver and no other.
func TestApplyDeltaKeepsUntouchedSlabsNil(t *testing.T) {
	src := New(64, 320, 16)
	src.AddHoriz(19, geom.NewInterval(0, 100), 2) // density band 2
	src.AddVert(41, 42, 3, 1)                     // feedthrough band 5
	pairs := src.AppendDelta(nil, make([]int32, src.TableLen()))
	dst := New(64, 320, 16)
	if err := dst.ApplyDelta(pairs); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dense(dst), dense(src)) {
		t.Fatal("applied delta does not reproduce the source")
	}
	for b, slab := range dst.dens.slabs {
		if (slab != nil) != (b == 2) {
			t.Fatalf("density band %d allocated: %v", b, slab != nil)
		}
	}
	for b, slab := range dst.ft.slabs {
		if (slab != nil) != (b == 5) {
			t.Fatalf("feedthrough band %d allocated: %v", b, slab != nil)
		}
	}
}

// TestApplyDeltaRejectsBeforeWriting: pairs are data off the mesh. Each
// malformed delta — valid pairs first, the bad one last — is refused with the
// table and its slabs exactly as they were.
func TestApplyDeltaRejectsBeforeWriting(t *testing.T) {
	g := New(10, 160, 16)
	g.AddHoriz(2, geom.NewInterval(0, 40), 3)
	n := int32(g.TableLen())
	at := int32(2 * g.Cols) // channel 2, column 0: holds 3
	for name, pairs := range map[string][]int32{
		"odd length":       {at, 1, at + 1},
		"index -1":         {-1, 1},
		"index = size":     {at, 1, n, 1},
		"index descending": {at + 1, 1, at, 1},
		"index repeated":   {at, 1, at, 1},
		"zero change":      {at, 1, at + 1, 0},
		"below zero":       {at, 1, at + 1, -4},
		"past MaxInt32":    {at, 1, at + 1, math.MaxInt32 - 2},
		"empty slab below": {at, 1, n - 1, -1},
		"bad half second":  {int32(9 * g.Cols), 1, n - 1, -1},
	} {
		before, slabs := dense(g), append(slices.Clone(g.dens.slabs), g.ft.slabs...)
		if err := g.ApplyDelta(pairs); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !slices.Equal(dense(g), before) {
			t.Fatalf("%s: a rejected delta wrote to the table", name)
		}
		for b, now := range append(slices.Clone(g.dens.slabs), g.ft.slabs...) {
			if (slabs[b] == nil) != (now == nil) {
				t.Fatalf("%s: a rejected delta allocated a slab", name)
			}
		}
	}
	if err := g.ApplyDelta([]int32{at, -3, at + 1, math.MaxInt32 - 3}); err != nil {
		t.Fatalf("a delta to exactly 0 and MaxInt32 was refused: %v", err)
	}
	if g.Density(2, 0) != 0 || g.Density(2, 1) != math.MaxInt32 {
		t.Fatalf("counters at %d, %d", g.Density(2, 0), g.Density(2, 1))
	}
}
