package object

import (
	"math"
	"sync"

	"pinocchio/internal/geo"
	"pinocchio/internal/probfn"
)

// MinMaxRadius computes the paper's novel distance measure
// (Definition 5):
//
//	minMaxRadius(τ, n) = PF⁻¹(1 − (1−τ)^(1/n))
//
// It is the radius of the circle around a candidate c such that an
// object whose n positions all lie inside is influenced with
// probability at least τ (Theorem 1), and an object whose positions
// all lie outside cannot be influenced (Theorem 2).
func MinMaxRadius(pf probfn.Func, tau float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	p := 1 - math.Pow(1-tau, 1/float64(n))
	return pf.Inverse(p)
}

// RadiusTable memoizes minMaxRadius per position count n — the HashMap
// HM of Algorithm 1. The number of distinct n across a dataset is far
// smaller than the number of objects, so the PF inverse is evaluated
// once per distinct n. Safe for concurrent readers once sealed;
// the plain Get path is not goroutine-safe (matching the paper's
// single-threaded algorithms), use GetLocked from concurrent code.
type RadiusTable struct {
	pf  probfn.Func
	tau float64
	hm  map[int]float64
	mu  sync.Mutex
}

// NewRadiusTable returns an empty memo table for the given PF and τ.
func NewRadiusTable(pf probfn.Func, tau float64) *RadiusTable {
	return &RadiusTable{pf: pf, tau: tau, hm: make(map[int]float64)}
}

// Tau returns the probability threshold the table was built for.
func (rt *RadiusTable) Tau() float64 { return rt.tau }

// PF returns the probability function the table was built for.
func (rt *RadiusTable) PF() probfn.Func { return rt.pf }

// Get returns minMaxRadius(τ, n), computing and caching it on first
// use.
func (rt *RadiusTable) Get(n int) float64 {
	if r, ok := rt.hm[n]; ok {
		return r
	}
	r := MinMaxRadius(rt.pf, rt.tau, n)
	rt.hm[n] = r
	return r
}

// GetLocked is Get guarded by a mutex, for use by concurrent
// validation workers.
func (rt *RadiusTable) GetLocked(n int) float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.Get(n)
}

// Len returns the number of distinct n cached so far.
func (rt *RadiusTable) Len() int { return len(rt.hm) }

// margin is the relative slack of the margin-checked radii (nibRadius,
// iaRadius). A pair is dropped (NIB) or counted as influenced (IA) on
// geometry alone only when its exact non-influence product clears the
// relevant bar by this factor, so the verdict holds for the product NA
// computes in floating point too: an n-position product with
// per-factor rounding of a few ulps is off by about 5nε ≈ 1.1e-15·n,
// below 1e-6 for any n under 10⁸. Pairs inside the margin are
// validated exactly, which costs a few extra products and never an
// answer.
const margin = 1e-6

// nibRadius returns a radius outside which an n-position object cannot
// be influenced at any τ ≥ tau, checked by evaluating PF forward: with
// every position beyond the radius (less the float slop of the
// geometric test), the product stays above (1 − tau)(1 + margin).
// +Inf (no pruning) when no such radius is found.
func nibRadius(pf probfn.Func, tau float64, n int) float64 {
	nf := float64(n)
	target := (1 - tau) * (1 + 2*margin)
	if target >= 1 {
		return math.Inf(1)
	}
	r := pf.Inverse(1 - math.Pow(target, 1/nf))
	if !(math.Pow(1-pf.Prob(r*(1+margin/2)), nf) >= (1-tau)*(1+margin)) {
		return math.Inf(1)
	}
	return r * (1 + margin)
}

// iaRadius returns a radius inside which an n-position object is
// influenced at every τ ≤ tau, checked by evaluating PF forward: with
// every position within the radius (plus the float slop of the
// geometric test), the product stays below (1 − tau)(1 − margin).
// −1 (no candidate qualifies) when no such radius is found, e.g. when
// tau asks for more than PF(0) gives.
func iaRadius(pf probfn.Func, tau float64, n int) float64 {
	nf := float64(n)
	target := (1 - tau) * (1 - 2*margin)
	r := pf.Inverse(1 - math.Pow(target, 1/nf))
	if math.IsInf(r, 0) || !(math.Pow(1-pf.Prob(r*(1-margin/2)), nf) <= (1-tau)*(1-margin)) {
		return -1
	}
	return r * (1 - margin)
}

// EarlyStopBar returns the bar of the early stop (Strategy 2, Lemma 4)
// at threshold tau: a running non-influence product Π ≤ bar gives
// 1 − Π ≥ tau in floating point, and later factors only shrink Π, so
// the pair is influenced exactly as NA's full product decides.
// fl(1 − fl(1 − tau)) can fall an ulp short of tau (it does at
// tau = 0.1), so the bar steps down from 1 − tau until its complement
// covers tau.
func EarlyStopBar(tau float64) float64 {
	bar := 1 - tau
	for bar > 0 && 1-bar < tau {
		bar = math.Nextafter(bar, 0)
	}
	return bar
}

// MarginTable memoizes the margin-checked radii per position count for
// one PF: the NIB radius at lo and the IA radius at hi, so a pair that
// either rule settles is decided at every τ of [lo, hi] exactly as the
// full product decides it. Not safe for concurrent use.
type MarginTable struct {
	pf     probfn.Func
	lo, hi float64
	hm     map[int][2]float64 // n → squared NIB and IA radii
}

// NewMarginTable returns an empty table for pf over [lo, hi].
func NewMarginTable(pf probfn.Func, lo, hi float64) *MarginTable {
	return &MarginTable{pf: pf, lo: lo, hi: hi, hm: map[int][2]float64{}}
}

// Regions returns o's margin-checked pruning geometry, computing the
// radii of o's position count on first use.
func (t *MarginTable) Regions(o *Object) MarginRegions {
	sq, ok := t.hm[o.N()]
	if !ok {
		nib, ia := nibRadius(t.pf, t.lo, o.N()), iaRadius(t.pf, t.hi, o.N())
		sq = [2]float64{nib * nib, -1}
		if ia >= 0 {
			sq[1] = ia * ia
		}
		t.hm[o.N()] = sq
	}
	return MarginRegions{MBR: o.MBR(), NIBSq: sq[0], IASq: sq[1]}
}

// Len returns the number of distinct position counts seen so far.
func (t *MarginTable) Len() int { return len(t.hm) }

// MarginRegions is the margin-checked counterpart of Regions: the same
// IA and NIB membership tests, against iaRadius and nibRadius instead
// of the bare minMaxRadius, so a verdict settled by geometry is the one
// NA's floating-point product reaches.
type MarginRegions struct {
	MBR geo.Rect
	// NIBSq and IASq are the squared NIB and IA radii; a negative IASq
	// disables the IA rule.
	NIBSq, IASq float64
}

// InIA reports whether every position of the object is within the IA
// radius of c: the pair is influenced.
func (r MarginRegions) InIA(c geo.Point) bool { return r.MBR.MaxDistSq(c) <= r.IASq }

// InNIB reports whether c lies within the NIB radius of the MBR;
// outside it the pair is not influenced.
func (r MarginRegions) InNIB(c geo.Point) bool { return r.MBR.MinDistSq(c) <= r.NIBSq }

// Classify buckets a candidate per the margin-checked pruning rules.
func (r MarginRegions) Classify(c geo.Point) Class {
	if r.InIA(c) {
		return Influenced
	}
	if r.InNIB(c) {
		return NeedsValidation
	}
	return NotInfluenced
}

// NIBBox returns the MBR of the non-influence boundary: the object MBR
// expanded by the NIB radius on every side.
func (r MarginRegions) NIBBox() geo.Rect { return r.MBR.Expand(math.Sqrt(r.NIBSq)) }
