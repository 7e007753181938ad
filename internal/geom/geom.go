// Package geom provides the small planar-geometry vocabulary used by the
// router: integer points, rectangles and closed intervals on the x axis.
//
// Coordinates follow the standard-cell convention of the paper: x grows to
// the right along a cell row, and the row index plays the role of a coarse
// y coordinate (rows are numbered bottom-up).
package geom

import "fmt"

// Point is an integer point in the routing plane. Y is usually a row index.
type Point struct {
	X, Y int
}

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Abs returns the absolute value of x.
func Abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Min returns the smaller of a and b.
func Min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Clamp limits v to the closed range [lo, hi].
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Interval is a closed integer interval [Lo, Hi] on the x axis, int32 like
// every x the router holds. An interval with Hi < Lo is empty.
type Interval struct {
	Lo, Hi int32
}

// NewInterval returns the interval covering both a and b regardless of order.
func NewInterval(a, b int) Interval {
	if a > b {
		a, b = b, a
	}
	return Interval{Lo: int32(a), Hi: int32(b)}
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Hi < iv.Lo }

// Len returns the number of integer points covered by the interval.
func (iv Interval) Len() int {
	if iv.Empty() {
		return 0
	}
	return int(iv.Hi) - int(iv.Lo) + 1
}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x int) bool { return x >= int(iv.Lo) && x <= int(iv.Hi) }

// Overlaps reports whether iv and other share at least one point.
func (iv Interval) Overlaps(other Interval) bool {
	if iv.Empty() || other.Empty() {
		return false
	}
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }

// Rect is an axis-aligned rectangle with inclusive integer bounds.
type Rect struct {
	MinX, MinY, MaxX, MaxY int
}

// RectFromPoints returns the bounding box of the given points. It panics if
// pts is empty, since an empty bounding box has no meaningful coordinates.
func RectFromPoints(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectFromPoints with no points") //lint:allow panic-in-library documented contract: empty bounding box has no coordinates
	}
	r := Rect{MinX: pts[0].X, MinY: pts[0].Y, MaxX: pts[0].X, MaxY: pts[0].Y}
	for _, p := range pts[1:] {
		r = r.Expand(p)
	}
	return r
}

// Expand grows the rectangle just enough to include p.
func (r Rect) Expand(p Point) Rect {
	return Rect{
		MinX: Min(r.MinX, p.X), MinY: Min(r.MinY, p.Y),
		MaxX: Max(r.MaxX, p.X), MaxY: Max(r.MaxY, p.Y),
	}
}

// Contains reports whether p lies inside the rectangle (bounds inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d]x[%d,%d]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}
