package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

// indexInfluences answers τ from ix into a fresh vector.
func indexInfluences(t *testing.T, ix *Index, m int, tau float64) []int {
	t.Helper()
	if !ix.Covers(tau) {
		t.Fatalf("index over [%v, %v] does not cover tau %v", ix.lo, ix.top, tau)
	}
	inf := make([]int, m)
	ix.AddInfluences(tau, inf)
	return inf
}

// naInfluences is the oracle: NA's influence vector at τ.
func naInfluences(t *testing.T, p *Problem, tau float64) []int {
	t.Helper()
	q := *p
	q.Tau = tau
	res, err := NA(&q)
	if err != nil {
		t.Fatalf("NA at tau %v: %v", tau, err)
	}
	return res.Influences
}

// TestIndexBoundaryProbe places one check-in and one candidate at, and
// one ulp on either side of, the distance where PF = τ — the pairs
// whose verdict rounding decides. The index must agree with NA in
// every case, whether built for τ alone, for the 1/64-grid cell around
// it, or for a wide interval, and so must every static solver entry
// point (checkSolversMatchNA).
func TestIndexBoundaryProbe(t *testing.T) {
	taus := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.45, 0.7}
	for _, rho := range []float64{0.5, 0.7, 0.9} {
		pf := probfn.PowerLaw{Rho: rho, D0: 1, Lambda: 1}
		for _, tau := range taus {
			d := pf.Inverse(tau)
			for _, dist := range []float64{math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1))} {
				p := &Problem{
					Objects:    []*object.Object{object.MustNew(0, []geo.Point{{X: 0, Y: 0}})},
					Candidates: []geo.Point{{X: dist, Y: 0}},
					PF:         pf,
				}
				want := naInfluences(t, p, tau)
				intervals := [][2]float64{
					{tau, tau},
					{math.Floor(tau*64) / 64, math.Ceil(tau*64) / 64},
					{1.0 / 64, 63.0 / 64},
				}
				for _, iv := range intervals {
					ix, err := BuildIndex(p, iv[0], iv[1], nil)
					if err != nil {
						t.Fatal(err)
					}
					if got := indexInfluences(t, ix, 1, tau); !reflect.DeepEqual(got, want) {
						t.Errorf("rho %v tau %v dist %v interval %v: index %v, NA %v", rho, tau, dist, iv, got, want)
					}
				}
				p.Tau = tau
				checkSolversMatchNA(t, fmt.Sprintf("rho %v tau %v dist %v", rho, tau, dist), p)
			}
		}
	}
}

// indexTestPF draws a PF of the given family with parameters scaled to
// the test frame.
func indexTestPF(t *testing.T, rng *rand.Rand, family string) probfn.Func {
	t.Helper()
	rho := 0.3 + 0.7*rng.Float64()
	if rng.Intn(4) == 0 {
		rho = 1
	}
	shape := map[string]float64{
		"powerlaw": 0.5 + 1.5*rng.Float64(),
		"logsig":   0.3 + 2*rng.Float64(),
		"convex":   0.3 + 2*rng.Float64(),
	}[family]
	if shape == 0 {
		shape = 1 + 5*rng.Float64() // ranges, scales and σ in frame units
	}
	pf, err := probfn.ByName(family, rho, shape)
	if err != nil {
		t.Fatalf("%s(%v, %v): %v", family, rho, shape, err)
	}
	return pf
}

// indexTestProblem draws clustered objects and candidates in a 12x12
// frame, plus single-position probe objects with candidates at, and an
// ulp either side of, the distance where PF = τ for each probe τ.
func indexTestProblem(rng *rand.Rand, pf probfn.Func, probes []float64) *Problem {
	var objects []*object.Object
	for k := 0; k < 30; k++ {
		c := geo.Point{X: rng.Float64() * 12, Y: rng.Float64() * 12}
		pts := make([]geo.Point, 1+rng.Intn(8))
		for i := range pts {
			pts[i] = geo.Point{X: c.X + rng.NormFloat64(), Y: c.Y + rng.NormFloat64()}
		}
		objects = append(objects, object.MustNew(k, pts))
	}
	cands := make([]geo.Point, 20)
	for j := range cands {
		cands[j] = geo.Point{X: rng.Float64() * 12, Y: rng.Float64() * 12}
	}
	for _, tau := range probes {
		d := pf.Inverse(tau)
		if math.IsInf(d, 0) || d <= 0 {
			continue
		}
		q := geo.Point{X: rng.Float64() * 12, Y: rng.Float64() * 12}
		objects = append(objects, object.MustNew(len(objects), []geo.Point{q}))
		for _, dist := range []float64{math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1))} {
			cands = append(cands, geo.Point{X: q.X + dist, Y: q.Y})
		}
	}
	return &Problem{Objects: objects, Candidates: cands, PF: pf}
}

// TestIndexMatchesNA is the randomized exactness property over every
// PF family: at τ on, inside and at the edges of the covered interval
// the index equals NA; just outside it does not claim coverage; and a
// sequence of widenings to the union of the old interval and a new τ
// keeps every earlier τ exact.
func TestIndexMatchesNA(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, family := range probfn.Families() {
		for trial := 0; trial < 6; trial++ {
			pf := indexTestPF(t, rng, family)
			taus := make([]float64, 4)
			for i := range taus {
				taus[i] = 0.02 + 0.96*rng.Float64()
			}
			p := indexTestProblem(rng, pf, taus)
			m := len(p.Candidates)

			lo, hi := taus[0], taus[0]
			var ix *Index
			for step, tau := range taus {
				if ix == nil || !ix.Covers(tau) {
					lo, hi = math.Min(lo, tau-0.01*rng.Float64()), math.Max(hi, tau+0.01*rng.Float64())
					var err error
					if ix, err = BuildIndex(p, lo, hi, nil); err != nil {
						t.Fatal(err)
					}
				}
				check := append([]float64{lo, hi, ix.top, (lo + hi) / 2, lo + (hi-lo)*rng.Float64()}, taus[:step+1]...)
				for _, c := range check {
					if !(c > 0 && c < 1) {
						continue
					}
					if got, want := indexInfluences(t, ix, m, c), naInfluences(t, p, c); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %v trial %d step %d: index [%v, %v] at tau %v = %v, NA %v",
							family, pf, trial, step, lo, hi, c, got, want)
					}
				}
				if ix.Covers(math.Nextafter(lo, 0)) || ix.Covers(math.Nextafter(ix.top, 1)) {
					t.Fatalf("%s trial %d: index [%v, %v] claims a tau outside its interval", family, trial, lo, ix.top)
				}
			}
		}
	}
}

// TestIndexBuildStatsAndCancel: the build accounts every pair exactly
// once across its rules, and a cancelled context aborts it.
func TestIndexBuildStatsAndCancel(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(9)), 60, 40, 0.5)
	ix, err := BuildIndex(p, 0.3, 0.7, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.PairsTotal != 60*40 || st.PrunedByIA+st.PrunedByNIB+st.Validated != st.PairsTotal {
		t.Errorf("build stats do not partition the pairs: %+v", st)
	}
	if st.Validated == 0 || st.PositionProbes < st.Validated {
		t.Errorf("build validated nothing: %+v", st)
	}
	if _, err := BuildIndex(p, 0.7, 0.3, nil); !errors.Is(err, ErrBadInterval) {
		t.Errorf("inverted interval: err %v, want ErrBadInterval", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := *p
	q.Ctx = ctx
	if _, err := BuildIndex(&q, 0.3, 0.7, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled build: err %v, want context.Canceled", err)
	}
}

// TestPinocchioVOTieBreak: on tie-heavy instances (duplicated
// candidates and grid-aligned objects) PIN-VO names the same best
// candidate as NA, the smallest index among the most influential.
func TestPinocchioVOTieBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		var objects []*object.Object
		for k := 0; k < 25; k++ {
			pts := make([]geo.Point, 1+rng.Intn(3))
			for i := range pts {
				pts[i] = geo.Point{X: float64(rng.Intn(6)), Y: float64(rng.Intn(6))}
			}
			objects = append(objects, object.MustNew(k, pts))
		}
		var cands []geo.Point
		for j := 0; j < 8; j++ {
			c := geo.Point{X: float64(rng.Intn(6)), Y: float64(rng.Intn(6))}
			for d := 0; d <= rng.Intn(3); d++ {
				cands = append(cands, c)
			}
		}
		rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
		p := &Problem{Objects: objects, Candidates: cands, PF: probfn.DefaultPowerLaw(), Tau: 0.3 + 0.5*rng.Float64()}
		want, err := NA(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PinocchioVO(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.BestIndex != want.BestIndex || got.BestInfluence != want.BestInfluence {
			t.Fatalf("trial %d: PIN-VO best (%d, %d), NA (%d, %d)",
				trial, got.BestIndex, got.BestInfluence, want.BestIndex, want.BestInfluence)
		}
	}
}
