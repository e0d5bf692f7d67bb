package core

import (
	"container/heap"
	"fmt"
	"sort"
	"time"
)

// PinocchioVOTopT generalizes PINOCCHIO-VO from top-1 to top-t, the
// "top-t most influential sites" variant the related work ([1], [13])
// studies: it certifies the t most influential candidates without
// computing exact influence for the dominated rest.
//
// The bound machinery carries over: candidates are validated in
// (maxInf, minInf) heap order, and the loop stops when the heap top's
// upper bound falls below the t-th best certified influence — every
// remaining candidate is then dominated by t certified ones. Returned
// candidates are sorted by influence descending, ties by index.
func PinocchioVOTopT(p *Problem, t int) ([]Ranked, *Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if t <= 0 {
		return nil, nil, fmt.Errorf("core: top-t needs t ≥ 1, got %d", t)
	}
	m := len(p.Candidates)
	if t > m {
		t = m
	}
	if err := p.ctxErr(); err != nil {
		return nil, nil, err
	}
	p.stampTrace()

	start := time.Now()
	st := &Stats{PairsTotal: int64(len(p.Objects)) * int64(m)}
	a2d, tree, prunes := p.solveState(st)

	s := &voState{
		p:      p,
		cost:   p.Cost,
		minInf: make([]int, m),
		maxInf: make([]int, m),
		vs:     make([][]int, m),
	}
	pruneSp := p.Obs.Child("prune")
	cc := canceller{ctx: p.Ctx}
	for k, e := range a2d {
		k := k
		if err := cc.tick(); err != nil {
			pruneSp.End()
			return nil, nil, err
		}
		touched, ia, arcs := scanObject(tree, prunes, k, e, s.cost.nodeCounter(),
			func(cand int) {
				s.cost.pruneIA(cand)
				s.minInf[cand]++
			},
			func(cand int) {
				s.vs[cand] = append(s.vs[cand], k)
			})
		st.PrunedByIA += ia
		st.PrunedByNIB += int64(m) - touched
		s.cost.addNIB(arcs, int64(m)-touched-arcs)
	}
	for c := 0; c < m; c++ {
		s.maxInf[c] = s.minInf[c] + len(s.vs[c])
	}
	pruneSp.End()

	ranked, err := s.runTopT(st, t)
	if err != nil {
		return nil, nil, err
	}
	s.cost.finishTopT(p, st, s.minInf, s.maxInf, ranked)
	finishSolve(p.Obs, "PIN-VO-TOPT", start, st, s.cost)
	return ranked, st, nil
}

// runTopT is the top-t counterpart of runValidation. certified holds
// candidates whose exact influence is known; the threshold is the t-th
// largest certified influence (0 until t are certified).
func (s *voState) runTopT(st *Stats, t int) ([]Ranked, error) {
	valSp := s.p.Obs.Child("validate")
	defer func() {
		valSp.SetAttr("heap_pops", st.HeapPops)
		valSp.End()
	}()
	m := len(s.p.Candidates)
	h := newCandHeap(s, m)

	certified := make([]Ranked, 0, t+1)
	// tthBest returns the current pruning threshold.
	tthBest := func() int {
		if len(certified) < t {
			return 0
		}
		return certified[len(certified)-1].Influence
	}
	insertCertified := func(r Ranked) {
		certified = append(certified, r)
		sort.Slice(certified, func(a, b int) bool {
			if certified[a].Influence != certified[b].Influence {
				return certified[a].Influence > certified[b].Influence
			}
			return certified[a].Index < certified[b].Index
		})
		if len(certified) > t {
			certified = certified[:t]
		}
	}

	cc := canceller{ctx: s.p.Ctx}
	for h.Len() > 0 {
		top := h.order[0]
		// Strict domination: a certified t-th best strictly above the
		// top's upper bound means no remaining candidate can enter the
		// top-t. (Equality keeps validating so ties are resolved
		// deterministically by exact influence and index.)
		if s.maxInf[top] < tthBest() {
			for _, c := range h.order {
				st.SkippedByBounds += int64(len(s.vs[c]))
				s.cost.skip(c, len(s.vs[c]))
			}
			break
		}
		st.HeapPops++
		for vi, ok := range s.vs[top] {
			if err := cc.tick(); err != nil {
				return nil, err
			}
			st.Validated++
			if s.validatePair(top, ok, st) {
				s.minInf[top]++
			} else {
				s.maxInf[top]--
				if s.maxInf[top] < tthBest() {
					st.SkippedByBounds += int64(len(s.vs[top]) - vi - 1)
					s.cost.skip(top, len(s.vs[top])-vi-1)
					break
				}
			}
		}
		if s.maxInf[top] >= tthBest() {
			// Fully validated (the early break above implies the
			// opposite), so minInf is exact.
			insertCertified(Ranked{Index: top, Influence: s.minInf[top]})
		}
		heap.Pop(h)
	}
	return certified, nil
}

// newCandHeap builds the validation heap over all candidates.
func newCandHeap(s *voState, m int) *candHeap {
	h := &candHeap{order: make([]int, m), maxInf: s.maxInf, minInf: s.minInf}
	for i := range h.order {
		h.order[i] = i
	}
	heap.Init(h)
	return h
}
