package core

import (
	"container/heap"
	"time"
)

// candHeap orders candidate indices by maxInf descending, breaking
// ties by minInf descending — the Max Heap H of Algorithm 3 (line 13).
// Keys of non-top elements never change while they sit in the heap
// (validation only mutates the bounds of the candidate being
// processed), so the heap property is preserved without re-sifting.
type candHeap struct {
	order  []int
	maxInf []int
	minInf []int
}

func (h *candHeap) Len() int { return len(h.order) }
func (h *candHeap) Less(i, j int) bool {
	a, b := h.order[i], h.order[j]
	if h.maxInf[a] != h.maxInf[b] {
		return h.maxInf[a] > h.maxInf[b]
	}
	return h.minInf[a] > h.minInf[b]
}
func (h *candHeap) Swap(i, j int)      { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *candHeap) Push(x interface{}) { h.order = append(h.order, x.(int)) }
func (h *candHeap) Pop() interface{} {
	old := h.order
	n := len(old)
	x := old[n-1]
	h.order = old[:n-1]
	return x
}

// voState is the shared machinery of PINOCCHIO-VO and PINOCCHIO-VO*:
// influence bounds, verification sets and the Strategy 1/2 validation
// loop.
type voState struct {
	p      *Problem
	cost   *Cost   // aliases p.Cost; nil disables EXPLAIN accounting
	minInf []int   // identified influence (lower bound)
	maxInf []int   // possible influence (upper bound)
	vs     [][]int // verification set: object indices per candidate
}

// validatePair decides the remnant pair (candidate top, object ok) with
// the early-stopping scan.
func (s *voState) validatePair(top, ok int, st *Stats) bool {
	s.cost.validated(top)
	return influencedEarlyStop(s.p.PF, s.p.Tau, s.p.Candidates[top], s.p.Objects[ok].Positions, st)
}

// runValidation executes lines 13-29 of Algorithm 3 and returns the
// optimal candidate index and its exact influence. The heap-ordered
// loop is the VO "validate" phase; it reports its heap behavior on
// the phase span. A done Problem.Ctx aborts the loop with the
// context's error.
func (s *voState) runValidation(st *Stats) (bestIdx, bestVal int, err error) {
	valSp := s.p.Obs.Child("validate")
	defer func() {
		valSp.SetAttr("heap_pops", st.HeapPops)
		valSp.SetAttr("skipped_by_bounds", st.SkippedByBounds)
		valSp.End()
	}()
	m := len(s.p.Candidates)

	// maxminInf = max over minInf after pruning; it only grows.
	bestIdx, bestVal = 0, s.minInf[0]
	for c := 1; c < m; c++ {
		if s.minInf[c] > bestVal {
			bestIdx, bestVal = c, s.minInf[c]
		}
	}
	maxminInf := bestVal

	h := &candHeap{order: make([]int, m), maxInf: s.maxInf, minInf: s.minInf}
	for i := range h.order {
		h.order[i] = i
	}
	heap.Init(h)

	cc := canceller{ctx: s.p.Ctx}
	for h.Len() > 0 {
		top := h.order[0]
		if s.maxInf[top] < maxminInf {
			// Strategy 1: every remaining candidate is dominated.
			for _, c := range h.order {
				st.SkippedByBounds += int64(len(s.vs[c]))
				s.cost.skip(c, len(s.vs[c]))
			}
			break
		}
		st.HeapPops++
		for vi, ok := range s.vs[top] {
			if err := cc.tick(); err != nil {
				return 0, 0, err
			}
			st.Validated++
			if s.validatePair(top, ok, st) {
				s.minInf[top]++
			} else {
				s.maxInf[top]--
				if s.maxInf[top] < maxminInf {
					// Strategy 1 inside validation: the candidate can
					// no longer win; skip its remaining objects.
					st.SkippedByBounds += int64(len(s.vs[top]) - vi - 1)
					s.cost.skip(top, len(s.vs[top])-vi-1)
					break
				}
			}
		}
		// Ties go to the smallest index, as in NA and PIN. A candidate
		// whose exact influence equals the optimum is never cut short by
		// the strict Strategy 1 test, so every tied candidate reaches
		// here fully validated, and minInf == bestVal implies exactness.
		if s.minInf[top] > bestVal || (s.minInf[top] == bestVal && top < bestIdx) {
			bestIdx, bestVal = top, s.minInf[top]
		}
		if s.minInf[top] > maxminInf {
			maxminInf = s.minInf[top]
		}
		heap.Pop(h)
	}
	return bestIdx, bestVal, nil
}

// PinocchioVO is Algorithm 3: the PINOCCHIO pruning phase feeding the
// bound-ordered validation of §5 (Strategy 1 upper/lower influence
// bounds, Strategy 2 early stopping). It certifies the optimal
// candidate without computing exact influence for dominated ones, so
// Result.Influences is nil.
func PinocchioVO(p *Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.ctxErr(); err != nil {
		return nil, err
	}
	start := time.Now()
	m := len(p.Candidates)
	res := &Result{}
	st := &res.Stats
	st.PairsTotal = int64(len(p.Objects)) * int64(m)

	a2d, tree, prunes := p.solveState(st)

	s := &voState{
		p:      p,
		cost:   p.Cost,
		minInf: make([]int, m),
		maxInf: make([]int, m),
		vs:     make([][]int, m),
	}
	// Unlike Algorithm 2 the VO prune loop defers all validation, so
	// the prune span is pure pruning time.
	pruneSp := p.Obs.Child("prune")
	cc := canceller{ctx: p.Ctx}
	for k, e := range a2d {
		k := k
		if err := cc.tick(); err != nil {
			pruneSp.End()
			return nil, err
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
	// maxInf(c) = r − #objects whose NIB excludes c
	//           = IA hits + |VS(c)|.
	for c := 0; c < m; c++ {
		s.maxInf[c] = s.minInf[c] + len(s.vs[c])
	}
	pruneSp.End()

	var err error
	res.BestIndex, res.BestInfluence, err = s.runValidation(st)
	if err != nil {
		return nil, err
	}
	s.cost.finishVO(p, st, s.minInf, s.maxInf, res.BestIndex)
	finishSolve(p.Obs, AlgPinocchioVO.String(), start, st, s.cost)
	return res, nil
}

// PinocchioVOStar is the PIN-VO* ablation of §6.1: the validation
// optimizations (Strategies 1 and 2) without the pruning phase. Every
// candidate starts with bounds [0, r] and a verification set holding
// all objects. Having no pruning phase it uses none of the derived
// state a Problem.Plan carries, so an attached plan is ignored.
func PinocchioVOStar(p *Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.ctxErr(); err != nil {
		return nil, err
	}
	start := time.Now()
	m := len(p.Candidates)
	r := len(p.Objects)
	res := &Result{}
	st := &res.Stats
	st.PairsTotal = int64(r) * int64(m)

	all := make([]int, r)
	for k := range all {
		all[k] = k
	}
	s := &voState{
		p:      p,
		cost:   p.Cost,
		minInf: make([]int, m),
		maxInf: make([]int, m),
		vs:     make([][]int, m),
	}
	for c := 0; c < m; c++ {
		s.maxInf[c] = r
		s.vs[c] = all
	}

	var err error
	res.BestIndex, res.BestInfluence, err = s.runValidation(st)
	if err != nil {
		return nil, err
	}
	s.cost.finishVO(p, st, s.minInf, s.maxInf, res.BestIndex)
	finishSolve(p.Obs, AlgPinocchioVOStar.String(), start, st, s.cost)
	return res, nil
}
