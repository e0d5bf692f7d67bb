package object

import (
	"math"

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
// Below tau ≈ 2·margin that bar passes 1, and the radius instead
// bounds every PF(d_i) by p, checked forward the same way: by the
// union bound, p = tau/(2n) gives 1 − Π ≤ tau/2, which NA's product,
// off by about nε (ε = 2⁻⁵²), keeps short of tau while 4nε ≤ tau;
// below that, p = 2⁻⁵⁵ rounds every factor 1 − PF(d_i) to 1, so NA's
// Π is exactly 1. +Inf (no pruning) when no such radius is found.
func nibRadius(pf probfn.Func, tau float64, n int) float64 {
	nf := float64(n)
	target := (1 - tau) * (1 + 2*margin)
	if target >= 1 {
		p := tau / (2 * nf)
		if 4*nf*0x1p-52 > tau {
			p = 0x1p-55
		}
		r := pf.Inverse(p)
		if !(pf.Prob(r*(1+margin/2)) <= p) {
			return math.Inf(1)
		}
		return r * (1 + margin)
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
// one PF, in the role of Algorithm 1's HashMap HM (which memoizes
// minMaxRadius): the NIB radius at lo and the IA radius at hi, so a
// pair that either rule settles is decided at every τ of [lo, hi]
// exactly as the full product decides it. The number of distinct n
// across a dataset is far smaller than the number of objects, so the
// PF inverse runs once per distinct n. Not safe for concurrent use.
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
