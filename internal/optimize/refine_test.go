package optimize

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pinocchio/internal/core"
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

// TestCellBoundSound holds cellBound to the influence definition on
// random populations and random cells split two levels deep through
// halves. At sampled points p of each cell, the objects outside its
// cover that influence p must number exactly sure: each was either
// tallied as influencing the whole cell or pruned as influencing none
// of it. Hence sure ≤ inf(p) ≤ sure + |cover|, and sure plus the exact
// count over the cover at the center is inf(center). A child's cover
// must lie inside its parent's, in the parent's order, and its sure
// set must grow only by objects the parent still covered.
func TestCellBoundSound(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	taus := []float64{0.3, 0.5, 0.7, 0.9}
	var sures, covered, cells int
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		objs := randObjects(rng, 40+rng.Intn(80))
		tau := taus[trial%len(taus)]
		rs := CollectRects(objs, pf, tau)
		p := &Problem{PF: pf, Tau: tau}
		all := make([]int32, len(rs))
		for i := range all {
			all[i] = int32(i)
		}

		check := func(c, parent cell) {
			t.Helper()
			cells++
			sures += c.sure
			covered += len(c.cover)
			if c.ub != c.sure+len(c.cover) {
				t.Fatalf("trial %d: cell %v ub %d, want sure %d + |cover| %d", trial, c.rect, c.ub, c.sure, len(c.cover))
			}
			if c.sure < parent.sure || c.sure+len(c.cover) > parent.sure+len(parent.cover) {
				t.Fatalf("trial %d: cell %v sure %d + cover %d escapes parent's sure %d + cover %d",
					trial, c.rect, c.sure, len(c.cover), parent.sure, len(parent.cover))
			}
			in := make(map[int32]bool, len(c.cover))
			j := 0
			for _, idx := range c.cover {
				for j < len(parent.cover) && parent.cover[j] != idx {
					j++
				}
				if j == len(parent.cover) {
					t.Fatalf("trial %d: cell %v cover %v is not an ordered subset of its parent's %v", trial, c.rect, c.cover, parent.cover)
				}
				in[idx] = true
			}
			corners := c.rect.Corners()
			pts := append([]geo.Point{c.rect.Center()}, corners[:]...)
			for k := 0; k < 8; k++ {
				pts = append(pts, geo.Point{
					X: c.rect.Min.X + rng.Float64()*c.rect.Width(),
					Y: c.rect.Min.Y + rng.Float64()*c.rect.Height(),
				})
			}
			for _, pt := range pts {
				outside := 0
				for i, o := range objs {
					if !in[int32(i)] && influenced(o, pf, tau, pt) {
						outside++
					}
				}
				if outside != c.sure {
					t.Fatalf("trial %d τ=%v: at %v in cell %v, %d objects outside the cover influence it, sure is %d",
						trial, tau, pt, c.rect, outside, c.sure)
				}
				if inf := exactInfluence(objs, pf, tau, pt); inf < c.sure || inf > c.ub {
					t.Fatalf("trial %d τ=%v: inf(%v) = %d outside [sure %d, ub %d]", trial, tau, pt, inf, c.sure, c.ub)
				}
			}
			center := c.rect.Center()
			if got, want := c.sure+exactAt(p, rs, c.cover, center), exactInfluence(objs, pf, tau, center); got != want {
				t.Fatalf("trial %d τ=%v: sure + exactAt over the cover at %v = %d, definition gives %d", trial, tau, center, got, want)
			}
		}

		// A cell of 0.05-6 km a side around a random position, where
		// objects cluster, so the sure tally and the pruning both bite.
		o := objs[rng.Intn(len(objs))]
		at := o.Positions[rng.Intn(len(o.Positions))]
		w, h := 0.05+rng.Float64()*6, 0.05+rng.Float64()*6
		at.X += (rng.Float64() - 0.5) * w
		at.Y += (rng.Float64() - 0.5) * h
		top := cell{cover: all}
		root := cellBound(p, rs, top, geo.Rect{
			Min: geo.Point{X: at.X - w/2, Y: at.Y - h/2},
			Max: geo.Point{X: at.X + w/2, Y: at.Y + h/2},
		})
		check(root, top)
		for _, q := range halves(root.rect) {
			child := cellBound(p, rs, root, q)
			check(child, root)
			for _, g := range halves(child.rect) {
				check(cellBound(p, rs, child, g), child)
			}
		}
	}
	if sures == 0 || covered == 0 {
		t.Fatalf("%d cells tallied %d sure and covered %d objects: the test exercised neither the tally nor the cover", cells, sures, covered)
	}
}

// TestExactAtBoundaryProbe places one check-in and one point at, and
// one ulp on either side of, the distance where PF = τ (power law
// λ = 1, ρ ∈ {0.5, 0.7, 0.9}, nine τ: the core boundary probe's 81
// cases). exactAt over CollectRects must count what NA counts there,
// and so must a point cell's sure tally plus exactAt over its cover.
func TestExactAtBoundaryProbe(t *testing.T) {
	taus := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.45, 0.7}
	for _, rho := range []float64{0.5, 0.7, 0.9} {
		pf := probfn.PowerLaw{Rho: rho, D0: 1, Lambda: 1}
		for _, tau := range taus {
			d := pf.Inverse(tau)
			for _, dist := range []float64{math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1))} {
				objs := []*object.Object{object.MustNew(0, []geo.Point{{X: 0, Y: 0}})}
				c := geo.Point{X: dist, Y: 0}
				na, err := core.NA(&core.Problem{Objects: objs, Candidates: []geo.Point{c}, PF: pf, Tau: tau})
				if err != nil {
					t.Fatal(err)
				}
				p := &Problem{PF: pf, Tau: tau}
				rs := CollectRects(objs, pf, tau)
				top := cell{cover: []int32{0}}
				if got := exactAt(p, rs, top.cover, c); got != na.BestInfluence {
					t.Errorf("rho %v tau %v dist %v: exactAt %d, NA %d", rho, tau, dist, got, na.BestInfluence)
				}
				pt := cellBound(p, rs, top, geo.Rect{Min: c, Max: c})
				if got := pt.sure + exactAt(p, rs, pt.cover, c); got != na.BestInfluence {
					t.Errorf("rho %v tau %v dist %v: point cell sure %d + exactAt over cover %v = %d, NA %d",
						rho, tau, dist, pt.sure, pt.cover, got, na.BestInfluence)
				}
			}
		}
	}
}

// TestOptimizeDeterministicAcrossProcs pins the split cover scans to
// the serial scan: Result and Cost must be identical at GOMAXPROCS 1,
// 2 and 4 on a population whose live-set scans split, both at the
// served budget and on a bounded run deep enough that children are
// popped. Run under -race in CI.
func TestOptimizeDeterministicAcrossProcs(t *testing.T) {
	objs := randObjects(rand.New(rand.NewSource(31)), 1200)
	pf := probfn.DefaultPowerLaw()
	district := geo.Rect{Min: geo.Point{X: 10, Y: 10}, Max: geo.Point{X: 30, Y: 30}}
	cases := []struct {
		name      string
		bounds    *geo.Rect
		maxRefine int
	}{
		{"served-budget", nil, 200},
		{"bounded-deep", &district, 1500},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		var want *Result
		var wantCost Cost
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			var cost Cost
			res, err := Optimize(&Problem{
				Objects: objs, PF: pf, Tau: 0.7, Bounds: tc.bounds, MaxRefine: tc.maxRefine,
				Ctx: context.Background(), Cost: &cost,
			})
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", tc.name, procs, err)
			}
			if procs == 1 {
				want, wantCost = res, cost
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: GOMAXPROCS %d result %+v, serial %+v", tc.name, procs, res, want)
			}
			if cost != wantCost {
				t.Fatalf("%s: GOMAXPROCS %d cost %+v, serial %+v", tc.name, procs, cost, wantCost)
			}
		}
		if wantCost.SweptRects < splitMin {
			t.Fatalf("%s: %d live objects, below the %d a scan needs to split", tc.name, wantCost.SweptRects, splitMin)
		}
		// Every exact evaluation of the live set visits SweptRects
		// pairs; fewer on average means some popped cell was a child
		// with its own, smaller cover.
		if tc.bounds != nil && wantCost.PairsVisited >= wantCost.RefineSolves*wantCost.SweptRects {
			t.Fatalf("%s: %d pairs over %d solves of %d live objects: no child cell was popped",
				tc.name, wantCost.PairsVisited, wantCost.RefineSolves, wantCost.SweptRects)
		}
	}
}
