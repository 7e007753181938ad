package geom

import (
	"testing"
	"testing/quick"
)

func TestAbsMinMaxClamp(t *testing.T) {
	if Abs(-5) != 5 || Abs(5) != 5 || Abs(0) != 0 {
		t.Fatal("Abs broken")
	}
	if Min(2, 3) != 2 || Min(3, 2) != 2 || Max(2, 3) != 3 || Max(3, 2) != 3 {
		t.Fatal("Min/Max broken")
	}
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Fatal("Clamp broken")
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval(7, 3)
	if iv.Lo != 3 || iv.Hi != 7 {
		t.Fatalf("NewInterval should normalize order, got %v", iv)
	}
	if iv.Empty() {
		t.Fatal("non-empty interval reported empty")
	}
	if iv.Len() != 5 {
		t.Fatalf("Len = %d, want 5", iv.Len())
	}
	empty := Interval{Lo: 1, Hi: 0}
	if !empty.Empty() || empty.Len() != 0 {
		t.Fatal("empty interval misbehaves")
	}
	if empty.Contains(0) || empty.Contains(1) {
		t.Fatal("empty interval contains points")
	}
	for x := 3; x <= 7; x++ {
		if !iv.Contains(x) {
			t.Fatalf("interval %v should contain %d", iv, x)
		}
	}
	if iv.Contains(2) || iv.Contains(8) {
		t.Fatal("interval contains out-of-range points")
	}
}

func TestIntervalOverlapsUnionIntersect(t *testing.T) {
	a := NewInterval(0, 5)
	b := NewInterval(5, 10)
	c := NewInterval(6, 10)
	if !a.Overlaps(b) {
		t.Fatal("touching intervals must overlap (closed intervals)")
	}
	if a.Overlaps(c) {
		t.Fatal("disjoint intervals reported overlapping")
	}
	empty := Interval{Lo: 1, Hi: 0}
	if empty.Overlaps(a) || a.Overlaps(empty) {
		t.Fatal("empty interval overlaps something")
	}
}

func TestIntervalProperties(t *testing.T) {
	// Two intervals overlap exactly when some x is in both.
	f := func(a1, a2, b1, b2 int16) bool {
		a := NewInterval(int(a1), int(a2))
		b := NewInterval(int(b1), int(b2))
		lo, hi := int(max(a.Lo, b.Lo)), int(min(a.Hi, b.Hi))
		if lo <= hi && !(a.Contains(lo) && a.Contains(hi) && b.Contains(lo) && b.Contains(hi)) {
			return false
		}
		return a.Overlaps(b) == (lo <= hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRect(t *testing.T) {
	pts := []Point{{3, 1}, {0, 5}, {7, 2}}
	r := RectFromPoints(pts)
	if r.MinX != 0 || r.MaxX != 7 || r.MinY != 1 || r.MaxY != 5 {
		t.Fatalf("bbox = %v", r)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("bbox must contain its defining point %v", p)
		}
	}
	r2 := r.Expand(Point{-1, 9})
	if r2.MinX != -1 || r2.MaxY != 9 {
		t.Fatalf("expand = %v", r2)
	}
}

func TestRectFromPointsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RectFromPoints(nil) should panic")
		}
	}()
	RectFromPoints(nil)
}
