package object

import (
	"math"
	"math/rand"
	"testing"

	"pinocchio/internal/geo"
	"pinocchio/internal/probfn"
)

// regionsForTest centers a w×h MBR on the origin with the given NIB
// and IA radii.
func regionsForTest(w, h, nib, ia float64) MarginRegions {
	return MarginRegions{
		MBR:   geo.Rect{Min: geo.Point{X: -w / 2, Y: -h / 2}, Max: geo.Point{X: w / 2, Y: h / 2}},
		NIBSq: nib * nib,
		IASq:  ia * ia,
	}
}

func TestClassifyBuckets(t *testing.T) {
	// MBR 2×2 centered at origin, IA radius 2.9 and NIB radius 3:
	// half-diagonal √2 < 2.9, so IA is non-empty.
	r := regionsForTest(2, 2, 3, 2.9)
	tests := []struct {
		name string
		c    geo.Point
		want Class
	}{
		{"center", geo.Point{X: 0, Y: 0}, Influenced},               // maxDist = √2 ≤ 2.9
		{"corner", geo.Point{X: 1, Y: 1}, Influenced},               // maxDist = 2√2 ≤ 2.9
		{"just outside IA", geo.Point{X: 2, Y: 2}, NeedsValidation}, // maxDist = √18 > 2.9, minDist = √2 ≤ 3
		{"inside NIB band", geo.Point{X: 3.5, Y: 0}, NeedsValidation},
		{"on NIB edge", geo.Point{X: 4, Y: 0}, NeedsValidation}, // minDist = 3 = NIB radius
		{"outside NIB", geo.Point{X: 4.01, Y: 0}, NotInfluenced},
		{"far corner diagonal", geo.Point{X: 4, Y: 4}, NotInfluenced}, // minDist = 3√2 > 3
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Classify(tt.c); got != tt.want {
				t.Errorf("Classify(%v) = %v, want %v", tt.c, got, tt.want)
			}
		})
	}
}

func TestClassStrings(t *testing.T) {
	if Influenced.String() != "influenced" ||
		NeedsValidation.String() != "needs-validation" ||
		NotInfluenced.String() != "not-influenced" ||
		Class(99).String() != "unknown" {
		t.Error("Class.String mismatch")
	}
}

// TestIAEmptyWhenRadiusSmall: an IA radius below the MBR's
// half-diagonal reaches no point from every corner, and a negative
// IASq (no IA radius found) disables the rule even on a point MBR.
func TestIAEmptyWhenRadiusSmall(t *testing.T) {
	r := regionsForTest(4, 2, 3, 2) // half-diag = √5 ≈ 2.236 > 2
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 2000; i++ {
		p := geo.Point{X: (rng.Float64() - 0.5) * 12, Y: (rng.Float64() - 0.5) * 12}
		if r.InIA(p) {
			t.Fatalf("point %v in an empty IA", p)
		}
	}
	if r.InIA(geo.Point{X: 0, Y: 0}) {
		t.Error("center should not be in empty IA")
	}
	point := MarginRegions{MBR: geo.Rect{}, NIBSq: 9, IASq: -1}
	if got := point.Classify(geo.Point{}); got != NeedsValidation {
		t.Errorf("disabled IA on a point MBR classifies its own position as %v, want %v", got, NeedsValidation)
	}
}

func TestNIBBox(t *testing.T) {
	r := regionsForTest(2, 4, 1.5, 1)
	want := geo.Rect{Min: geo.Point{X: -2.5, Y: -3.5}, Max: geo.Point{X: 2.5, Y: 3.5}}
	if got := r.NIBBox(); got != want {
		t.Errorf("NIBBox = %v, want %v", got, want)
	}
	// NIBBox must contain the whole NIB region (it is its MBR).
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 2000; i++ {
		p := geo.Point{X: (rng.Float64() - 0.5) * 12, Y: (rng.Float64() - 0.5) * 12}
		if r.InNIB(p) && !r.NIBBox().ContainsPoint(p) {
			t.Fatalf("point %v in NIB but outside NIBBox", p)
		}
	}
}

// TestIAInsideNIB: with a table's radii the influence-arcs region lies
// inside the non-influence boundary region (IA radius ≤ NIB radius and
// maxDist ≥ minDist).
func TestIAInsideNIB(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	rng := rand.New(rand.NewSource(65))
	inIA := 0
	for i := 0; i < 100; i++ {
		tau := 0.05 + 0.9*rng.Float64()
		pts := make([]geo.Point, 1+rng.Intn(20))
		for j := range pts {
			pts[j] = geo.Point{X: rng.NormFloat64() * 0.5, Y: rng.NormFloat64() * 0.5}
		}
		r := NewMarginTable(pf, tau, tau).Regions(MustNew(i, pts))
		if r.IASq > r.NIBSq {
			t.Fatalf("τ=%v n=%d: IA radius² %v above NIB radius² %v", tau, len(pts), r.IASq, r.NIBSq)
		}
		for j := 0; j < 100; j++ {
			p := geo.Point{X: (rng.Float64() - 0.5) * 20, Y: (rng.Float64() - 0.5) * 20}
			if r.InIA(p) {
				inIA++
				if !r.InNIB(p) {
					t.Fatalf("point %v in IA but not NIB (τ=%v, regions %+v)", p, tau, r)
				}
			}
		}
	}
	if inIA == 0 {
		t.Fatal("no sampled point fell in an IA region")
	}
}

// TestClassifySoundAgainstExactInfluence is the central correctness
// property of the pruning phase: Influenced ⇒ Pr_c(O) ≥ τ and
// NotInfluenced ⇒ Pr_c(O) < τ, with Pr_c(O) the floating-point value
// NA computes, for random objects and candidates.
func TestClassifySoundAgainstExactInfluence(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	rng := rand.New(rand.NewSource(66))
	tau := 0.7
	radii := NewMarginTable(pf, tau, tau)
	var counts [3]int
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		pts := make([]geo.Point, n)
		cx, cy := rng.Float64()*20, rng.Float64()*20
		for i := range pts {
			pts[i] = geo.Point{X: cx + rng.NormFloat64()*3, Y: cy + rng.NormFloat64()*3}
		}
		o := MustNew(trial, pts)
		r := radii.Regions(o)
		c := geo.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		if trial%5 == 0 {
			c = pts[0] // near the positions, where IA can hold
		}

		nonInf := 1.0
		for _, p := range pts {
			nonInf *= 1 - pf.Prob(c.Dist(p))
		}
		pr := 1 - nonInf

		cls := r.Classify(c)
		counts[cls]++
		switch cls {
		case Influenced:
			if !(pr >= tau) {
				t.Fatalf("IA claimed influence but Pr=%v < τ", pr)
			}
		case NotInfluenced:
			if pr >= tau {
				t.Fatalf("NIB claimed no influence but Pr=%v ≥ τ", pr)
			}
		}
	}
	for cls, n := range counts {
		if n == 0 {
			t.Errorf("no pair classified %v", Class(cls))
		}
	}
}

// marginWalk returns an object of n positions on a short diagonal walk
// with step dx, so objects of one n can differ in their MBRs.
func marginWalk(id, n int, dx float64) *Object {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * dx, Y: float64(i%3) * dx}
	}
	return MustNew(id, pts)
}

// TestNewRegionsUsesObjectMBR: the regions MarginTable builds carry each
// object's own MBR, and two objects of one position count share the
// count's radii.
func TestNewRegionsUsesObjectMBR(t *testing.T) {
	tb := NewMarginTable(probfn.DefaultPowerLaw(), 0.6, 0.7)
	a, b := marginWalk(1, 24, 0.01), marginWalk(2, 24, 0.02)
	ra, rb := tb.Regions(a), tb.Regions(b)
	if ra.MBR != a.MBR() || rb.MBR != b.MBR() {
		t.Errorf("regions MBRs %v and %v, want the objects' %v and %v", ra.MBR, rb.MBR, a.MBR(), b.MBR())
	}
	if ra.NIBSq != rb.NIBSq || ra.IASq != rb.IASq {
		t.Errorf("one n, two radii: %+v vs %+v", ra, rb)
	}
}

// TestRadiusTableMemoizes: the package's radius table, MarginTable,
// computes the radii once per position count — the squared NIB radius
// at lo and IA radius at hi, just outside and just inside minMaxRadius;
// an IA radius that PF(0) cannot reach is disabled.
func TestRadiusTableMemoizes(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	tb := NewMarginTable(pf, 0.6, 0.7)
	ra := tb.Regions(marginWalk(1, 24, 0.01))
	if rb := tb.Regions(marginWalk(2, 24, 0.02)); ra.NIBSq != rb.NIBSq || ra.IASq != rb.IASq {
		t.Errorf("memoized radii differ: %+v vs %+v", ra, rb)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d after one distinct n", tb.Len())
	}
	tb.Regions(marginWalk(3, 48, 0.01))
	if tb.Len() != 2 {
		t.Errorf("Len = %d after two distinct n", tb.Len())
	}
	nib, ia := nibRadius(pf, 0.6, 24), iaRadius(pf, 0.7, 24)
	if ra.NIBSq != nib*nib || ra.IASq != ia*ia {
		t.Errorf("cached radii² (%v, %v), want (%v, %v)", ra.NIBSq, ra.IASq, nib*nib, ia*ia)
	}
	if mu := MinMaxRadius(pf, 0.6, 24); !(nib > mu) || math.IsInf(nib, 0) {
		t.Errorf("NIB radius %v not just outside minMaxRadius %v", nib, mu)
	}
	if mu := MinMaxRadius(pf, 0.7, 24); !(ia < mu) || ia < 0 {
		t.Errorf("IA radius %v not just inside minMaxRadius %v", ia, mu)
	}
	// PF(0) = ρ = 0.9: one position cannot reach τ = 0.95.
	if r := NewMarginTable(pf, 0.95, 0.95).Regions(marginWalk(4, 1, 0)); r.IASq >= 0 || r.InIA(r.MBR.Min) {
		t.Errorf("τ above PF(0): IASq = %v, want the IA rule disabled", r.IASq)
	}
}
