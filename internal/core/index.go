package core

import (
	"errors"
	"fmt"
	"sort"

	"pinocchio/internal/object"
	"pinocchio/internal/rtree"
)

// ErrBadInterval is returned by BuildIndex for a τ interval outside
// [0, 1] or with lo > hi.
var ErrBadInterval = errors.New("core: index interval must satisfy 0 <= lo <= hi <= 1")

// Index answers PRIME-LS influence queries for one (object set,
// candidate set, PF) at every τ of an interval [lo, hi], exactly as NA
// decides them. It stores, per candidate, the count of pairs
// influenced at every τ of the interval and the sorted non-influence
// products Π = Π_i(1 − PF(dist(c, p_i))) of the remaining pairs that
// some τ of the interval influences. Since NA's verdict is
// 1 − Π ≥ τ and 1 − Π is non-increasing in Π, the influenced pairs at
// τ are a prefix of the ascending products, found by binary search.
//
// An Index is immutable once built and safe for concurrent use.
type Index struct {
	// lo and hi are the interval the index was built for; top ≥ hi is
	// the float complement 1 − bar of the early-stop bar, the largest τ
	// whose "always influenced" verdicts are exact.
	lo, hi, top float64

	// always[c] counts pairs influenced at every covered τ; the kept
	// products of candidate c are prods[off[c]:off[c+1]], ascending.
	always []int32
	off    []int
	prods  []float64

	stats Stats
}

// BuildIndex builds the influence index of p's objects, candidates and
// PF over the τ interval [lo, hi]; p.Tau is ignored. ct, when non-nil
// and built over p.Candidates with p's fan-out, supplies the candidate
// R-tree. The build honours p.Ctx and records "prune" and "validate"
// phase spans under p.Obs. Per pair it:
//
//   - drops the pair when the candidate lies outside the object's
//     margin-checked NIB at lo (object.MarginTable), or its product
//     satisfies 1 − Π < lo;
//   - counts it as always influenced when the candidate lies inside
//     the object's margin-checked IA at hi, or its running product
//     falls to the bar object.EarlyStopBar(hi) (Lemma 4: later factors
//     only shrink it);
//   - otherwise keeps its full product, computed with NA's float
//     operations in position order.
func BuildIndex(p *Problem, lo, hi float64, ct *CandTree) (*Index, error) {
	switch {
	case len(p.Objects) == 0:
		return nil, ErrNoObjects
	case len(p.Candidates) == 0:
		return nil, ErrNoCandidates
	case p.PF == nil:
		return nil, ErrNilPF
	case !(0 <= lo && lo <= hi && hi <= 1):
		return nil, fmt.Errorf("%w: got [%v, %v]", ErrBadInterval, lo, hi)
	}
	if err := p.ctxErr(); err != nil {
		return nil, err
	}
	m := len(p.Candidates)
	ix := &Index{
		lo:     lo,
		hi:     hi,
		always: make([]int32, m),
		off:    make([]int, m+1),
	}
	// The bar decides "always influenced": a product Π ≤ bar gives
	// 1 − Π ≥ 1 − bar ≥ hi in floating point.
	bar := object.EarlyStopBar(hi)
	ix.top = 1 - bar

	tree := p.candidateTreeFrom(ct)
	st := &ix.stats
	st.PairsTotal = int64(len(p.Objects)) * int64(m)
	kept := make([][]float64, m)
	radii := object.NewMarginTable(p.PF, lo, hi)

	pruneSp := p.Obs.Child("prune")
	valSp := p.Obs.Child("validate")
	valTimer := valSp.Sampler(validateSampleLog)
	scanStart := pruneSp.StartTimer()
	cc := canceller{ctx: p.Ctx}
	var ctxErr error
	for _, o := range p.Objects {
		if ctxErr = cc.tick(); ctxErr != nil {
			break
		}
		rg := radii.Regions(o)
		var touched int64
		tree.SearchRect(rg.NIBBox(), func(it rtree.Item) bool {
			c := it.Point
			if !rg.InNIB(c) {
				return true
			}
			touched++
			if rg.InIA(c) {
				st.PrunedByIA++
				ix.always[it.ID]++
				return true
			}
			if ctxErr = cc.tick(); ctxErr != nil {
				return false
			}
			st.Validated++
			valTimer.Start()
			nonInf := 1.0
			early := false
			for i, pos := range o.Positions {
				st.PositionProbes++
				nonInf *= 1 - p.PF.Prob(c.Dist(pos))
				if nonInf <= bar {
					if i < len(o.Positions)-1 {
						st.EarlyStops++
					}
					early = true
					break
				}
			}
			switch {
			case early:
				ix.always[it.ID]++
			case 1-nonInf >= lo:
				kept[it.ID] = append(kept[it.ID], nonInf)
			}
			valTimer.Stop()
			return true
		})
		st.PrunedByNIB += int64(m) - touched
		if ctxErr != nil {
			break
		}
	}
	valTimer.Finish()
	pruneSp.EndExclusive(scanStart, valSp)
	valSp.End()
	if ctxErr != nil {
		return nil, ctxErr
	}
	st.DistinctN = radii.Len()

	total := 0
	for _, ps := range kept {
		total += len(ps)
	}
	ix.prods = make([]float64, 0, total)
	for c, ps := range kept {
		sort.Float64s(ps)
		ix.prods = append(ix.prods, ps...)
		ix.off[c+1] = len(ix.prods)
		kept[c] = nil
	}
	p.Obs.SetAttr("stats", *st)
	return ix, nil
}

// candidateTreeFrom returns ct's tree when it was built over exactly
// p's candidates and fan-out, else a fresh bulk load.
func (p *Problem) candidateTreeFrom(ct *CandTree) *rtree.Tree {
	if ct != nil && sameSlice(ct.cands, p.Candidates) && ct.fanout == p.fanout() {
		return ct.tree
	}
	return p.candidateTree()
}

// Covers reports whether the index answers τ exactly: lo ≤ τ ≤ 1 − bar.
func (ix *Index) Covers(tau float64) bool {
	return ix.lo <= tau && tau <= ix.top
}

// Interval returns the τ interval the index was built for.
func (ix *Index) Interval() (lo, hi float64) { return ix.lo, ix.hi }

// AddInfluences adds every candidate's influence at τ to into, which
// must have one slot per candidate. τ must be covered (Covers): a τ
// outside the interval would silently miss dropped or always-counted
// pairs, so AddInfluences panics instead.
func (ix *Index) AddInfluences(tau float64, into []int) {
	if !ix.Covers(tau) {
		panic(fmt.Sprintf("core: index over [%v, %v] asked for tau %v", ix.lo, ix.top, tau))
	}
	for c := range ix.always {
		ps := ix.prods[ix.off[c]:ix.off[c+1]]
		n := sort.Search(len(ps), func(i int) bool { return !(1-ps[i] >= tau) })
		into[c] += int(ix.always[c]) + n
	}
}

// Stats returns the work counters of the build.
func (ix *Index) Stats() Stats { return ix.stats }

// Bytes returns the memory held by the index's tables: 8 bytes per
// kept product plus 12 per candidate.
func (ix *Index) Bytes() int64 {
	return int64(8*len(ix.prods) + 4*len(ix.always) + 8*len(ix.off))
}
