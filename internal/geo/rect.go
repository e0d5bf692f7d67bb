package geo

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle (minimum bounding rectangle). A
// degenerate Rect with Min == Max is a single point; the pruning rules
// of the paper explicitly rely on that degeneration (Remark, §4.2.2).
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and unions to whatever it is combined with.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// RectFromPoints returns the MBR of the given points. It returns
// EmptyRect() for an empty input.
func RectFromPoints(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool {
	return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y
}

// Width returns the extent of r along the X axis.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent of r along the Y axis.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r, and 0 for an empty rectangle.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Perimeter returns the perimeter of r, and 0 for an empty rectangle.
func (r Rect) Perimeter() float64 {
	if r.IsEmpty() {
		return 0
	}
	return 2 * (r.Width() + r.Height())
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// HalfDiagonal returns the distance from the center of r to any corner.
// It equals maxDist(center, r) and is the smallest minMaxRadius for
// which the influence-arcs region of r is non-empty.
func (r Rect) HalfDiagonal() float64 {
	return math.Hypot(r.Width()/2, r.Height()/2)
}

// ContainsPoint reports whether p lies in r (boundary inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// ExtendPoint returns the smallest rectangle containing r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(Rect{Min: p, Max: p})
}

// Expand returns r grown by d on every side. The result is the MBR of
// the non-influence boundary when d is the object's minMaxRadius
// (the rectangle approximation of NIB used by Algorithm 1, after [7]).
func (r Rect) Expand(d float64) Rect {
	if r.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// Enlargement returns the area increase of r needed to include s. It is
// the Guttman insertion heuristic used by the R-tree.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// MinDist returns the smallest Euclidean distance between p and any
// point of r (0 if p is inside r). This is the minDist metric of
// Roussopoulos et al. that underlies the non-influence boundary rule.
func (r Rect) MinDist(p Point) float64 {
	dx := axisDist(p.X, r.Min.X, r.Max.X)
	dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
	return math.Hypot(dx, dy)
}

// MinDistSq returns MinDist squared, avoiding the square root. On a
// non-inverted r at most one of the signed offsets below the interval
// and above it is positive, so the builtin max with 0 gives axisDist's
// bits for every finite point (and on EmptyRect) and keeps the method,
// and the NIB tests built on it, within the inlining budget.
func (r Rect) MinDistSq(p Point) float64 {
	dx := max(r.Min.X-p.X, p.X-r.Max.X, 0)
	dy := max(r.Min.Y-p.Y, p.Y-r.Max.Y, 0)
	return dx*dx + dy*dy
}

// MaxDist returns the largest Euclidean distance between p and any
// point of r: the distance to the farthest corner. This is the maxDist
// metric that underlies the influence-arcs rule.
func (r Rect) MaxDist(p Point) float64 {
	return math.Sqrt(r.MaxDistSq(p))
}

// MaxDistSq returns MaxDist squared. On a non-inverted r the larger
// signed axis offset is the larger absolute one, so the builtin max
// gives the same bits as comparing absolute values and keeps the
// method within the inlining budget.
func (r Rect) MaxDistSq(p Point) float64 {
	dx := max(p.X-r.Min.X, r.Max.X-p.X)
	dy := max(p.Y-r.Min.Y, r.Max.Y-p.Y)
	return dx*dx + dy*dy
}

// Corners returns the four corners of r in counter-clockwise order
// starting at Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.Min.X, r.Min.Y},
		{r.Max.X, r.Min.Y},
		{r.Max.X, r.Max.Y},
		{r.Min.X, r.Max.Y},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// axisDist returns the distance from v to the interval [lo, hi], or 0
// if v lies inside it.
func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}
