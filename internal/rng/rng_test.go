package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values of 1000", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero-seeded generator produced only %d distinct values", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams matched %d of 1000 draws", same)
	}
	// Split is deterministic: rebuilding the parent reproduces children.
	parent2 := New(7)
	d1 := parent2.Split()
	c1b := New(7).Split()
	_ = d1
	x, y := New(7).Split().Uint64(), c1b.Uint64()
	if x != y {
		t.Fatal("Split not deterministic")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(1)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d has %d draws, want about %.0f", b, c, want)
		}
	}
}

func TestIntnPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	var sum float64
	const draws = 10000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestNormInt(t *testing.T) {
	r := New(8)
	var sum float64
	const draws = 20000
	for i := 0; i < draws; i++ {
		v := r.NormInt(50, 10, 0)
		if v < 0 {
			t.Fatalf("NormInt returned %d below min", v)
		}
		sum += float64(v)
	}
	if mean := sum / draws; math.Abs(mean-50) > 1 {
		t.Fatalf("NormInt mean = %v, want about 50", mean)
	}
	// min clamp
	for i := 0; i < 100; i++ {
		if v := r.NormInt(0, 100, 5); v < 5 {
			t.Fatalf("NormInt ignored min: %d", v)
		}
	}
}

func TestGeometric(t *testing.T) {
	r := New(13)
	const p, draws = 0.25, 20000
	var sum float64
	for i := 0; i < draws; i++ {
		v := r.Geometric(p)
		if v < 0 {
			t.Fatalf("Geometric returned %d", v)
		}
		sum += float64(v)
	}
	want := (1 - p) / p // mean of geometric (failures before success)
	if mean := sum / draws; math.Abs(mean-want) > 0.15 {
		t.Fatalf("Geometric mean = %v, want about %v", mean, want)
	}
	if v := r.Geometric(1); v != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", v)
	}
}

func TestGeometricPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) should panic")
		}
	}()
	New(1).Geometric(0)
}

func TestBoolBalance(t *testing.T) {
	r := New(21)
	trues := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)-draws/2) > 5*math.Sqrt(draws/4) {
		t.Fatalf("Bool returned true %d of %d times", trues, draws)
	}
}
