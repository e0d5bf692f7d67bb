package optimize

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"pinocchio/internal/core"
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

// randObjects builds a clustered random population: each object is a
// short random walk around a center, the shape minMaxRadius pruning
// is designed for.
func randObjects(rng *rand.Rand, count int) []*object.Object {
	objs := make([]*object.Object, count)
	for i := range objs {
		cx, cy := rng.Float64()*40, rng.Float64()*40
		n := 1 + rng.Intn(6)
		pts := make([]geo.Point, n)
		x, y := cx, cy
		for j := range pts {
			pts[j] = geo.Point{X: x, Y: y}
			x += rng.NormFloat64() * 0.8
			y += rng.NormFloat64() * 0.8
		}
		objs[i] = object.MustNew(i+1, pts)
	}
	return objs
}

// exactInfluence is the reference evaluator: the cumulative influence
// definition applied directly, no pruning, no shared code with the
// optimizer's cover sets.
func exactInfluence(objs []*object.Object, pf probfn.Func, tau float64, c geo.Point) int {
	inf := 0
	for _, o := range objs {
		if influenced(o, pf, tau, c) {
			inf++
		}
	}
	return inf
}

// influenced applies the cumulative influence definition to one object.
func influenced(o *object.Object, pf probfn.Func, tau float64, c geo.Point) bool {
	q := 1.0
	for _, p := range o.Positions {
		q *= 1 - pf.Prob(p.Dist(c))
	}
	return 1-q >= tau
}

// TestOptimizeDominatesGrid is the bound-soundness property test: the
// optimizer's exact influence must be at least the best dense-grid
// candidate's at matching PF/ρ/λ/τ whenever the branch-and-bound
// resolves, and BestInfluence + Gap must dominate unconditionally.
// Run under -race in CI.
func TestOptimizeDominatesGrid(t *testing.T) {
	taus := []float64{0.5, 0.7, 0.9}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		objs := randObjects(rng, 20+rng.Intn(60))
		pf, err := probfn.NewPowerLaw(0.9, 1.0, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		tau := taus[trial%len(taus)]

		var cost Cost
		res, err := Optimize(&Problem{
			Objects: objs, PF: pf, Tau: tau,
			Ctx: context.Background(), Cost: &cost,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// The reported influence must be exactly right: recompute it
		// from the definition, independent of the cover-set machinery.
		if got := exactInfluence(objs, pf, tau, res.BestPoint); got != res.BestInfluence {
			t.Fatalf("trial %d τ=%v: reported influence %d at %v, definition gives %d",
				trial, tau, res.BestInfluence, res.BestPoint, got)
		}

		// Dense grid over the population's bounding box.
		bounds := objs[0].MBR()
		for _, o := range objs[1:] {
			bounds = bounds.Union(o.MBR())
		}
		gridBest := 0
		const r = 20
		for i := 0; i < r; i++ {
			for j := 0; j < r; j++ {
				c := geo.Point{
					X: bounds.Min.X + bounds.Width()*float64(i)/(r-1),
					Y: bounds.Min.Y + bounds.Height()*float64(j)/(r-1),
				}
				if inf := exactInfluence(objs, pf, tau, c); inf > gridBest {
					gridBest = inf
				}
			}
		}

		if res.UpperBound < res.BestInfluence || res.UpperBound != res.BestInfluence+res.Gap {
			t.Fatalf("trial %d: upper bound %d, best %d, gap %d: want upper_bound == best + gap ≥ best",
				trial, res.UpperBound, res.BestInfluence, res.Gap)
		}
		if res.BestInfluence+res.Gap < gridBest {
			t.Fatalf("trial %d τ=%v: best %d + gap %d < grid best %d",
				trial, tau, res.BestInfluence, res.Gap, gridBest)
		}
		if res.Resolved {
			if res.Gap != 0 {
				t.Fatalf("trial %d: resolved with gap %d", trial, res.Gap)
			}
			if res.BestInfluence < gridBest {
				t.Fatalf("trial %d τ=%v: resolved best %d below grid best %d",
					trial, tau, res.BestInfluence, gridBest)
			}
		}
		if res.BestInfluence > res.SweepMax {
			t.Fatalf("trial %d: exact %d above sweep bound %d",
				trial, res.BestInfluence, res.SweepMax)
		}
		if res.BestInfluence < res.IAMax {
			t.Fatalf("trial %d: exact %d below IA floor %d",
				trial, res.BestInfluence, res.IAMax)
		}
		if cost.PairWork() == 0 || cost.SweptRects != int64(len(objs)) {
			t.Fatalf("trial %d: implausible ledger %+v", trial, cost)
		}
	}
}

// TestIABoxSound samples points of the inscribed IA box and verifies
// each one is within μ of every MBR corner (the defining constraint).
func TestIABoxSound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		w, h := rng.Float64()*4, rng.Float64()*4
		if trial%5 == 0 {
			w = 0 // degenerate MBRs are common (single-position objects)
		}
		mbr := geo.Rect{Min: geo.Point{X: 1, Y: 2}, Max: geo.Point{X: 1 + w, Y: 2 + h}}
		half := mbr.HalfDiagonal()
		mu := half + rng.Float64()*3
		box, ok := iaBox(mbr, mu)
		if !ok {
			t.Fatalf("trial %d: iaBox empty with μ %v ≥ half-diagonal %v", trial, mu, half)
		}
		for i := 0; i < 20; i++ {
			p := geo.Point{
				X: box.Min.X + rng.Float64()*box.Width(),
				Y: box.Min.Y + rng.Float64()*box.Height(),
			}
			if d := math.Sqrt(mbr.MaxDistSq(p)); d > mu*(1+1e-12) {
				t.Fatalf("trial %d: box point %v at maxDist %v > μ %v (mbr %v)",
					trial, p, d, mu, mbr)
			}
		}
	}
}

func TestOptimizeBounds(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	rng := rand.New(rand.NewSource(9))
	objs := randObjects(rng, 50)
	bounds := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 10, Y: 10}}
	res, err := Optimize(&Problem{
		Objects: objs, PF: pf, Tau: 0.7, Bounds: &bounds, Ctx: context.Background(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bounds.ContainsPoint(res.BestPoint) {
		t.Fatalf("best point %v escapes bounds %v", res.BestPoint, bounds)
	}
	// A bounds rectangle far from every object yields zero influence.
	far := geo.Rect{Min: geo.Point{X: 1e6, Y: 1e6}, Max: geo.Point{X: 1e6 + 1, Y: 1e6 + 1}}
	res, err = Optimize(&Problem{
		Objects: objs, PF: pf, Tau: 0.7, Bounds: &far, Ctx: context.Background(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestInfluence != 0 || !res.Resolved {
		t.Fatalf("far bounds: %+v", res)
	}
}

func TestOptimizeValidation(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	if _, err := Optimize(&Problem{PF: pf, Tau: 0.7}); err == nil {
		t.Error("accepted empty population")
	}
	objs := randObjects(rand.New(rand.NewSource(1)), 3)
	if _, err := Optimize(&Problem{Objects: objs, Tau: 0.7}); err == nil {
		t.Error("accepted nil PF")
	}
	if _, err := Optimize(&Problem{Objects: objs, PF: pf, Tau: 1.5}); err == nil {
		t.Error("accepted tau outside (0,1)")
	}
	bad := geo.Rect{Min: geo.Point{X: 5, Y: 5}, Max: geo.Point{X: 1, Y: 1}}
	if _, err := Optimize(&Problem{Objects: objs, PF: pf, Tau: 0.7, Bounds: &bad}); err == nil {
		t.Error("accepted inverted bounds")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Optimize(&Problem{Objects: objs, PF: pf, Tau: 0.7, Ctx: ctx}); err == nil {
		t.Error("ignored canceled context")
	}
}

// TestOptimizeMatchesCoreSolver pins the optimizer's exact evaluator
// to the core path: the influence the optimizer reports at its best
// point must equal what a core solver computes for a candidate placed
// exactly there.
func TestOptimizeMatchesCoreSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	objs := randObjects(rng, 80)
	pf := probfn.DefaultPowerLaw()
	res, err := Optimize(&Problem{Objects: objs, PF: pf, Tau: 0.7, Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(core.AlgPinocchio, &core.Problem{
		Objects: objs, Candidates: []geo.Point{res.BestPoint}, PF: pf, Tau: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.BestInfluence != res.BestInfluence {
		t.Fatalf("optimizer says %d, core solver says %d at %v",
			res.BestInfluence, sol.BestInfluence, res.BestPoint)
	}
}

// TestCollectRectsShardMerge checks the scatter invariant the server
// relies on: extracting rects per partition and sweeping the merged
// set yields exactly the same result as extracting globally.
func TestCollectRectsShardMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	objs := randObjects(rng, 60)
	pf := probfn.DefaultPowerLaw()

	whole, err := Optimize(&Problem{Objects: objs, PF: pf, Tau: 0.7, Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}

	var merged []ObjectRects
	for part := 0; part < 3; part++ {
		var sub []*object.Object
		for i, o := range objs {
			if i%3 == part {
				sub = append(sub, o)
			}
		}
		merged = append(merged, CollectRects(sub, pf, 0.7)...)
	}
	sharded, err := Optimize(&Problem{Rects: merged, PF: pf, Tau: 0.7, Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.BestInfluence != whole.BestInfluence || sharded.SweepMax != whole.SweepMax {
		t.Fatalf("sharded extraction diverged: %+v vs %+v", sharded, whole)
	}
}

// TestOptimizeTinyTau: below τ ≈ 2·10⁻⁶ the NIB radii bound every
// PF(d_i) instead of the product, so every rect and reported region
// stays finite (the served response must encode as JSON) and the
// answer is exact.
func TestOptimizeTinyTau(t *testing.T) {
	objs := randObjects(rand.New(rand.NewSource(13)), 60)
	pf := probfn.DefaultPowerLaw()
	for _, tau := range []float64{1e-7, 1e-16} {
		for _, r := range CollectRects(objs, pf, tau) {
			if b := r.NIB; math.IsInf(b.Min.X, 0) || math.IsInf(b.Max.Y, 0) {
				t.Fatalf("τ=%v object %d: unbounded NIB box %v", tau, r.Obj.ID, b)
			}
		}
		res, err := Optimize(&Problem{Objects: objs, PF: pf, Tau: tau, MaxRefine: 200, Ctx: context.Background()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("τ=%v: result does not encode: %v", tau, err)
		}
		if want := exactInfluence(objs, pf, tau, res.BestPoint); res.BestInfluence != want {
			t.Fatalf("τ=%v: best influence %d at %v, definition gives %d", tau, res.BestInfluence, res.BestPoint, want)
		}
	}
}
