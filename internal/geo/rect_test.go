package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if e.Area() != 0 {
		t.Errorf("empty area = %v", e.Area())
	}
	if e.Perimeter() != 0 {
		t.Errorf("empty perimeter = %v", e.Perimeter())
	}
	r := Rect{Point{0, 0}, Point{1, 1}}
	if got := e.Union(r); got != r {
		t.Errorf("empty union = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("union empty = %v, want %v", got, r)
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Error("empty rect should intersect nothing")
	}
	if !r.ContainsRect(e) {
		t.Error("any rect contains the empty rect")
	}
}

func TestRectFromPoints(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	r := RectFromPoints(pts)
	want := Rect{Point{-2, -1}, Point{4, 5}}
	if r != want {
		t.Errorf("RectFromPoints = %v, want %v", r, want)
	}
	for _, p := range pts {
		if !r.ContainsPoint(p) {
			t.Errorf("MBR does not contain %v", p)
		}
	}
	if got := RectFromPoints(nil); !got.IsEmpty() {
		t.Errorf("MBR of no points should be empty, got %v", got)
	}
}

func TestRectBasicGeometry(t *testing.T) {
	r := Rect{Point{0, 0}, Point{4, 2}}
	if r.Width() != 4 || r.Height() != 2 {
		t.Errorf("dims = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 8 {
		t.Errorf("area = %v", r.Area())
	}
	if r.Perimeter() != 12 {
		t.Errorf("perimeter = %v", r.Perimeter())
	}
	if r.Center() != (Point{2, 1}) {
		t.Errorf("center = %v", r.Center())
	}
	if !almostEq(r.HalfDiagonal(), math.Hypot(2, 1), 1e-12) {
		t.Errorf("halfDiagonal = %v", r.HalfDiagonal())
	}
}

func TestRectContainsAndIntersects(t *testing.T) {
	r := Rect{Point{0, 0}, Point{2, 2}}
	tests := []struct {
		name       string
		s          Rect
		intersects bool
		contains   bool
	}{
		{"identical", r, true, true},
		{"inside", Rect{Point{0.5, 0.5}, Point{1, 1}}, true, true},
		{"overlap", Rect{Point{1, 1}, Point{3, 3}}, true, false},
		{"touch edge", Rect{Point{2, 0}, Point{3, 2}}, true, false},
		{"touch corner", Rect{Point{2, 2}, Point{3, 3}}, true, false},
		{"disjoint", Rect{Point{3, 3}, Point{4, 4}}, false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Intersects(tt.s); got != tt.intersects {
				t.Errorf("Intersects = %v, want %v", got, tt.intersects)
			}
			if got := r.ContainsRect(tt.s); got != tt.contains {
				t.Errorf("ContainsRect = %v, want %v", got, tt.contains)
			}
		})
	}
}

func TestRectExpand(t *testing.T) {
	r := Rect{Point{1, 1}, Point{2, 3}}
	e := r.Expand(0.5)
	want := Rect{Point{0.5, 0.5}, Point{2.5, 3.5}}
	if e != want {
		t.Errorf("Expand = %v, want %v", e, want)
	}
	if got := EmptyRect().Expand(1); !got.IsEmpty() {
		t.Errorf("expanding empty rect should stay empty")
	}
}

func TestMinMaxDistKnownValues(t *testing.T) {
	r := Rect{Point{0, 0}, Point{2, 2}}
	tests := []struct {
		name     string
		p        Point
		min, max float64
	}{
		{"inside center", Point{1, 1}, 0, math.Sqrt2},
		{"on corner", Point{0, 0}, 0, 2 * math.Sqrt2},
		{"right of rect", Point{4, 1}, 2, math.Hypot(4, 1)},
		{"above rect", Point{1, 5}, 3, math.Hypot(1, 5)},
		{"diagonal out", Point{3, 3}, math.Sqrt2, 3 * math.Sqrt2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.MinDist(tt.p); !almostEq(got, tt.min, 1e-12) {
				t.Errorf("MinDist = %v, want %v", got, tt.min)
			}
			if got := r.MaxDist(tt.p); !almostEq(got, tt.max, 1e-12) {
				t.Errorf("MaxDist = %v, want %v", got, tt.max)
			}
		})
	}
}

// TestMinMaxDistBracketCorners verifies the defining property used by
// both pruning rules: for every point q of the rectangle (we test the
// corners, which realize the extremes) minDist ≤ dist(p,q) ≤ maxDist.
func TestMinMaxDistBracketCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		r := randRect(rng)
		p := Point{smallCoord(rng), smallCoord(rng)}
		minD, maxD := r.MinDist(p), r.MaxDist(p)
		if minD > maxD+1e-9 {
			t.Fatalf("minDist %v > maxDist %v for %v / %v", minD, maxD, p, r)
		}
		for _, c := range r.Corners() {
			d := p.Dist(c)
			if d > maxD+1e-9 {
				t.Fatalf("corner %v at %v beyond maxDist %v", c, d, maxD)
			}
			if d < minD-1e-9 {
				t.Fatalf("corner %v at %v closer than minDist %v", c, d, minD)
			}
		}
		// Random interior points must also respect the bracket.
		for j := 0; j < 10; j++ {
			q := Point{
				r.Min.X + rng.Float64()*r.Width(),
				r.Min.Y + rng.Float64()*r.Height(),
			}
			d := p.Dist(q)
			if d < minD-1e-9 || d > maxD+1e-9 {
				t.Fatalf("interior point %v dist %v outside [%v, %v]", q, d, minD, maxD)
			}
		}
	}
}

// TestMaxDistSqMatchesAbsForm pins MaxDistSq's signed-offset form to
// the absolute-offset definition bit for bit on non-inverted rects,
// including point rects and points on an edge or corner, so the
// pruning verdicts that compare it against μ² cannot move.
func TestMaxDistSqMatchesAbsForm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		r := randRect(rng)
		switch i % 4 {
		case 1:
			r.Max = r.Min // single-position object
		case 2:
			r.Max.Y = r.Min.Y // collinear positions
		}
		p := Point{smallCoord(rng), smallCoord(rng)}
		switch i % 5 {
		case 1:
			p.X = r.Min.X
		case 2:
			p = r.Max
		case 3:
			p = r.Center()
		}
		dx := math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
		dy := math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
		want := dx*dx + dy*dy
		if got := r.MaxDistSq(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MaxDistSq(%v, %v) = %v, absolute form gives %v", r, p, got, want)
		}
	}
}

// TestMinDistSqMatchesAxisForm pins MinDistSq's max form to the
// axisDist definition bit for bit on non-inverted rects, including
// point rects, points on an edge or inside, and EmptyRect, so the NIB
// verdicts that compare it against a squared radius cannot move.
func TestMinDistSqMatchesAxisForm(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 20000; i++ {
		r := randRect(rng)
		switch i % 5 {
		case 1:
			r.Max = r.Min // single-position object
		case 2:
			r.Max.Y = r.Min.Y // collinear positions
		case 3:
			r = EmptyRect()
		}
		p := Point{smallCoord(rng), smallCoord(rng)}
		if !r.IsEmpty() { // EmptyRect's corners are infinite: keep p random
			switch i % 7 {
			case 1:
				p.X = r.Min.X
			case 2:
				p = r.Max
			case 3:
				p = r.Center()
			case 4:
				p.Y = math.Nextafter(r.Max.Y, math.Inf(1))
			}
		}
		dx := axisDist(p.X, r.Min.X, r.Max.X)
		dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
		want := dx*dx + dy*dy
		if got := r.MinDistSq(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MinDistSq(%v, %v) = %v, axisDist form gives %v", r, p, got, want)
		}
	}
}

func TestMinDistZeroInside(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		r := randRect(rng)
		p := Point{
			r.Min.X + rng.Float64()*r.Width(),
			r.Min.Y + rng.Float64()*r.Height(),
		}
		if got := r.MinDist(p); got != 0 {
			t.Fatalf("MinDist of interior point = %v", got)
		}
	}
}

func TestUnionCommutativeAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		a, b := randRect(rng), randRect(rng)
		u1, u2 := a.Union(b), b.Union(a)
		if u1 != u2 {
			t.Fatalf("union not commutative: %v vs %v", u1, u2)
		}
		if !u1.ContainsRect(a) || !u1.ContainsRect(b) {
			t.Fatalf("union %v does not contain operands %v, %v", u1, a, b)
		}
		if u1.Area() < math.Max(a.Area(), b.Area())-1e-9 {
			t.Fatalf("union area shrank")
		}
	}
}

func TestEnlargement(t *testing.T) {
	r := Rect{Point{0, 0}, Point{1, 1}}
	if got := r.Enlargement(Rect{Point{0.2, 0.2}, Point{0.8, 0.8}}); got != 0 {
		t.Errorf("enlargement by contained rect = %v, want 0", got)
	}
	if got := r.Enlargement(Rect{Point{0, 0}, Point{2, 1}}); !almostEq(got, 1, 1e-12) {
		t.Errorf("enlargement = %v, want 1", got)
	}
}

func TestCornersOrder(t *testing.T) {
	r := Rect{Point{0, 0}, Point{1, 2}}
	want := [4]Point{{0, 0}, {1, 0}, {1, 2}, {0, 2}}
	if got := r.Corners(); got != want {
		t.Errorf("Corners = %v, want %v", got, want)
	}
}

func TestRectString(t *testing.T) {
	r := Rect{Point{0, 0}, Point{1, 1}}
	if r.String() == "" {
		t.Error("String should be non-empty")
	}
}
