package geom

import (
	"testing"
	"testing/quick"
)

func TestManhattan(t *testing.T) {
	cases := []struct {
		p, q Point
		want int
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 7},
		{Point{-2, 5}, Point{2, -5}, 14},
		{Point{10, 1}, Point{1, 10}, 18},
	}
	for _, c := range cases {
		if got := c.p.Manhattan(c.q); got != c.want {
			t.Errorf("Manhattan(%v, %v) = %d, want %d", c.p, c.q, got, c.want)
		}
		if got := c.q.Manhattan(c.p); got != c.want {
			t.Errorf("Manhattan not symmetric for %v, %v", c.p, c.q)
		}
	}
}

func TestManhattanProperties(t *testing.T) {
	// Triangle inequality and non-negativity.
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{int(ax), int(ay)}
		b := Point{int(bx), int(by)}
		c := Point{int(cx), int(cy)}
		return a.Manhattan(b) >= 0 && a.Manhattan(c) <= a.Manhattan(b)+b.Manhattan(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

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
	if u := a.Union(c); u.Lo != 0 || u.Hi != 10 {
		t.Fatalf("Union = %v", u)
	}
	if x := a.Intersect(b); x.Lo != 5 || x.Hi != 5 {
		t.Fatalf("Intersect = %v", x)
	}
	if x := a.Intersect(c); !x.Empty() {
		t.Fatalf("Intersect of disjoint = %v, want empty", x)
	}
	empty := Interval{Lo: 1, Hi: 0}
	if empty.Overlaps(a) || a.Overlaps(empty) {
		t.Fatal("empty interval overlaps something")
	}
	if u := empty.Union(a); u != a {
		t.Fatalf("Union with empty = %v, want %v", u, a)
	}
	if u := a.Union(empty); u != a {
		t.Fatalf("Union with empty = %v, want %v", u, a)
	}
}

func TestIntervalProperties(t *testing.T) {
	// Union covers both; intersect is contained in both.
	f := func(a1, a2, b1, b2 int16) bool {
		a := NewInterval(int(a1), int(a2))
		b := NewInterval(int(b1), int(b2))
		u := a.Union(b)
		if !u.Contains(a.Lo) || !u.Contains(a.Hi) || !u.Contains(b.Lo) || !u.Contains(b.Hi) {
			return false
		}
		x := a.Intersect(b)
		if !x.Empty() {
			if !a.Contains(x.Lo) || !a.Contains(x.Hi) || !b.Contains(x.Lo) || !b.Contains(x.Hi) {
				return false
			}
			if !a.Overlaps(b) {
				return false
			}
		} else if a.Overlaps(b) {
			return false
		}
		return true
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
	if r.Width() != 7 || r.Height() != 4 {
		t.Fatalf("width/height = %d/%d", r.Width(), r.Height())
	}
	if c := r.Center(); c.X != 3 || c.Y != 3 {
		t.Fatalf("center = %v", c)
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
