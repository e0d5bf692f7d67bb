package dynamic

import (
	"math"
	"testing"

	"pinocchio/internal/core"
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

// boundaryRhos and boundaryTaus span the probes: the paper's ρ values
// and thresholds on both sides of 0.5, including the daemon's τ = 0.7.
var (
	boundaryRhos = []float64{0.5, 0.7, 0.9}
	boundaryTaus = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.45, 0.7}
)

// naInfluences is NA's influence vector over objs and cands.
func naInfluences(t *testing.T, pf probfn.Func, tau float64, objs []*object.Object, cands []geo.Point) []int {
	t.Helper()
	res, err := core.NA(&core.Problem{Objects: objs, Candidates: cands, PF: pf, Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	return res.Influences
}

// TestEngineBoundaryProbe places one check-in and one candidate at,
// and one ulp on either side of, the distance where PF = τ — the pairs
// whose verdict rounding decides — and requires the engine to agree
// with NA whichever update brings the pair together: the object
// arriving (AddObject), the candidate arriving (AddCandidate), or the
// check-in arriving on an object that already exists (AddPosition).
func TestEngineBoundaryProbe(t *testing.T) {
	// far is a first check-in whose factor 1 − PF(far) rounds to 1, so
	// the AddPosition order sees the same product as the others.
	far := geo.Point{X: -1e20}
	orders := map[string]func(e *Engine, c geo.Point) error{
		"AddObject": func(e *Engine, c geo.Point) error {
			e.AddCandidate(c)
			return e.AddObject(0, []geo.Point{{}})
		},
		"AddCandidate": func(e *Engine, c geo.Point) error {
			if err := e.AddObject(0, []geo.Point{{}}); err != nil {
				return err
			}
			e.AddCandidate(c)
			return nil
		},
		"AddPosition": func(e *Engine, c geo.Point) error {
			if err := e.AddObject(0, []geo.Point{far}); err != nil {
				return err
			}
			e.AddCandidate(c)
			return e.AddPosition(0, geo.Point{})
		},
	}
	cases, wrong := 0, 0
	for _, rho := range boundaryRhos {
		pf := probfn.PowerLaw{Rho: rho, D0: 1, Lambda: 1}
		for _, tau := range boundaryTaus {
			d := pf.Inverse(tau)
			if d <= 0 {
				continue // τ above ρ: no distance reaches it
			}
			for _, dist := range []float64{math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1))} {
				c := geo.Point{X: dist}
				want := naInfluences(t, pf, tau, []*object.Object{object.MustNew(0, []geo.Point{{}})}, []geo.Point{c})[0]
				cases++
				agrees := true
				for name, apply := range orders {
					e, err := New(pf, tau)
					if err != nil {
						t.Fatal(err)
					}
					if err := apply(e, c); err != nil {
						t.Fatal(err)
					}
					if got, _ := e.Influence(0); got != want {
						agrees = false
						t.Errorf("%s rho %v tau %v dist %v: engine influence %d, NA %d", name, rho, tau, dist, got, want)
					}
				}
				if !agrees {
					wrong++
				}
			}
		}
	}
	if cases != 75 {
		t.Errorf("probe ran %d boundary pairs, want 75", cases)
	}
	t.Logf("%d of %d boundary pairs disagree with NA in some order", wrong, cases)
}

// TestGuardBoundaryProbe checks the guard's NIB credit at the
// boundary: an object at the origin gets a second check-in at the
// origin, which can flip a candidate within a few ulps of μ(τ, 2) from
// uninfluenced to influenced and so past a far rival for the top-1.
// Whenever NA's top-1 changes, the guard must refuse to certify the
// old answer.
func TestGuardBoundaryProbe(t *testing.T) {
	cases, misses := 0, 0
	for _, rho := range boundaryRhos {
		pf := probfn.PowerLaw{Rho: rho, D0: 1, Lambda: 1}
		for _, tau := range boundaryTaus {
			mu := object.MinMaxRadius(pf, tau, 2)
			for ulps := -3; ulps <= 3; ulps++ {
				dist := mu
				for i := 0; i < ulps; i++ {
					dist = math.Nextafter(dist, math.Inf(1))
				}
				for i := 0; i > ulps; i-- {
					dist = math.Nextafter(dist, 0)
				}
				e, err := New(pf, tau)
				if err != nil {
					t.Fatal(err)
				}
				// The rival takes the smaller id, so it wins the top-1
				// while both candidates have influence 0.
				e.AddCandidate(geo.Point{X: 1e6})
				e.AddCandidate(geo.Point{X: dist})
				if err := e.AddObject(0, []geo.Point{{}}); err != nil {
					t.Fatal(err)
				}
				g, err := NewTopKGuard(pf, tau, 1, engineVector(e))
				if err != nil {
					t.Fatal(err)
				}
				if err := e.AddPosition(0, geo.Point{}); err != nil {
					t.Fatal(err)
				}
				o, _ := e.Object(0)
				certified := g.Observe([]*object.Object{o})
				_, pts := e.SnapshotCandidates()
				best, _ := core.Argmax(naInfluences(t, pf, tau, []*object.Object{o}, pts))
				cases++
				if certified && best != g.TopK()[0].ID {
					misses++
					t.Errorf("rho %v tau %v dist %v (%+d ulps of mu): guard certified top-1 %d, NA's is %d",
						rho, tau, dist, ulps, g.TopK()[0].ID, best)
				}
			}
		}
	}
	t.Logf("%d of %d boundary appends missed by the guard", misses, cases)
}
