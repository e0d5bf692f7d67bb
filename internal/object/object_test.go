package object

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"pinocchio/internal/geo"
	"pinocchio/internal/probfn"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, nil); !errors.Is(err, ErrNoPositions) {
		t.Errorf("New with no positions: err = %v", err)
	}
	o, err := New(7, []geo.Point{{X: 1, Y: 2}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if o.ID != 7 || o.N() != 1 {
		t.Errorf("object fields: %+v", o)
	}
	if got := o.MBR(); got != (geo.Rect{Min: geo.Point{X: 1, Y: 2}, Max: geo.Point{X: 1, Y: 2}}) {
		t.Errorf("point MBR = %v", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on empty positions")
		}
	}()
	MustNew(0, nil)
}

func TestMBREnclosesAllPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(40)
		pts := make([]geo.Point, n)
		for j := range pts {
			pts[j] = geo.Point{X: rng.NormFloat64() * 10, Y: rng.NormFloat64() * 10}
		}
		o := MustNew(i, pts)
		for _, p := range pts {
			if !o.MBR().ContainsPoint(p) {
				t.Fatalf("MBR %v misses position %v", o.MBR(), p)
			}
		}
	}
}

func TestObjectString(t *testing.T) {
	o := MustNew(3, []geo.Point{{X: 0, Y: 0}})
	if o.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestMinMaxRadiusDefinition(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	for _, tau := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		for _, n := range []int{1, 2, 5, 10, 50, 200} {
			got := MinMaxRadius(pf, tau, n)
			want := pf.Inverse(1 - math.Pow(1-tau, 1/float64(n)))
			if got != want {
				t.Errorf("MinMaxRadius(τ=%v, n=%d) = %v, want %v", tau, n, got, want)
			}
		}
	}
}

func TestMinMaxRadiusDegeneratesToClassicalForN1(t *testing.T) {
	// For n = 1, minMaxRadius = PF⁻¹(τ): Lemma 1's classical radius.
	pf := probfn.DefaultPowerLaw()
	for _, tau := range []float64{0.1, 0.5, 0.85} {
		if got, want := MinMaxRadius(pf, tau, 1), pf.Inverse(tau); math.Abs(got-want) > 1e-12 {
			t.Errorf("n=1 radius %v, want PF⁻¹(τ) = %v", got, want)
		}
	}
}

func TestMinMaxRadiusMonotonicity(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	// Fixed n: radius grows as τ decreases.
	for _, n := range []int{1, 5, 30} {
		prev := -1.0
		for _, tau := range []float64{0.9, 0.7, 0.5, 0.3, 0.1} {
			r := MinMaxRadius(pf, tau, n)
			if r < prev {
				t.Errorf("radius should grow as τ falls: n=%d τ=%v r=%v prev=%v", n, tau, r, prev)
			}
			prev = r
		}
	}
	// Fixed τ: radius grows with n.
	for _, tau := range []float64{0.3, 0.7} {
		prev := -1.0
		for n := 1; n <= 100; n *= 2 {
			r := MinMaxRadius(pf, tau, n)
			if r < prev {
				t.Errorf("radius should grow with n: τ=%v n=%d r=%v prev=%v", tau, n, r, prev)
			}
			prev = r
		}
	}
}

func TestMinMaxRadiusEdgeN(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	if got := MinMaxRadius(pf, 0.7, 0); got != 0 {
		t.Errorf("n=0 should give 0, got %v", got)
	}
	if got := MinMaxRadius(pf, 0.7, -3); got != 0 {
		t.Errorf("negative n should give 0, got %v", got)
	}
}

// TestTheorem1 verifies: if all positions lie within minMaxRadius of c
// then Pr_c(O) ≥ τ.
func TestTheorem1(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	rng := rand.New(rand.NewSource(53))
	tau := 0.7
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		mu := MinMaxRadius(pf, tau, n)
		c := geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		pts := make([]geo.Point, n)
		for i := range pts {
			// Random point within distance mu of c.
			ang := rng.Float64() * 2 * math.Pi
			rad := rng.Float64() * mu
			pts[i] = geo.Point{X: c.X + rad*math.Cos(ang), Y: c.Y + rad*math.Sin(ang)}
		}
		nonInf := 1.0
		for _, p := range pts {
			nonInf *= 1 - pf.Prob(c.Dist(p))
		}
		if pr := 1 - nonInf; pr < tau-1e-9 {
			t.Fatalf("Theorem 1 violated: n=%d Pr=%v < τ=%v", n, pr, tau)
		}
	}
}

// TestTheorem2 verifies: if all positions lie strictly outside
// minMaxRadius of c then Pr_c(O) < τ.
func TestTheorem2(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	rng := rand.New(rand.NewSource(54))
	tau := 0.7
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		mu := MinMaxRadius(pf, tau, n)
		c := geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		pts := make([]geo.Point, n)
		for i := range pts {
			ang := rng.Float64() * 2 * math.Pi
			rad := mu * (1.0001 + rng.Float64()*3)
			pts[i] = geo.Point{X: c.X + rad*math.Cos(ang), Y: c.Y + rad*math.Sin(ang)}
		}
		nonInf := 1.0
		for _, p := range pts {
			nonInf *= 1 - pf.Prob(c.Dist(p))
		}
		if pr := 1 - nonInf; pr >= tau {
			t.Fatalf("Theorem 2 violated: n=%d Pr=%v ≥ τ=%v", n, pr, tau)
		}
	}
}

// TestNIBRadiusUnionBound: below τ ≈ 2·margin the NIB radius comes
// from a bound on every PF(d_i): the union bound while 4nε ≤ τ, and
// factors that round to 1 below that (τ 1e-16). It must stay finite,
// and no candidate it rules out may be influenced by NA's product.
func TestNIBRadiusUnionBound(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	rng := rand.New(rand.NewSource(67))
	for _, tau := range []float64{1e-6, 1e-7, 1e-10, 1e-16} {
		for _, n := range []int{1, 3, 30} {
			pts := make([]geo.Point, n)
			for i := range pts {
				pts[i] = geo.Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
			}
			o := MustNew(0, pts)
			r := NewMarginTable(pf, tau, tau).Regions(o)
			if math.IsInf(r.NIBSq, 0) {
				t.Fatalf("τ=%v n=%d: no finite NIB radius", tau, n)
			}
			nib, center := math.Sqrt(r.NIBSq), o.MBR().Center()
			for j := 0; j < 200; j++ {
				ang, d := rng.Float64()*2*math.Pi, nib*(0.3+0.9*rng.Float64())+o.MBR().HalfDiagonal()
				c := geo.Point{X: center.X + d*math.Cos(ang), Y: center.Y + d*math.Sin(ang)}
				nonInf := 1.0
				for _, p := range pts {
					nonInf *= 1 - pf.Prob(c.Dist(p))
				}
				if r.Classify(c) == NotInfluenced && 1-nonInf >= tau {
					t.Fatalf("τ=%v n=%d: NIB ruled out %v, but 1 − Π = %v", tau, n, c, 1-nonInf)
				}
			}
		}
	}
}
