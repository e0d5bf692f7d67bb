package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// PinocchioParallel is a data-parallel PINOCCHIO (Algorithm 2): the
// per-object pruning + validation loop shards objects across workers.
// Each worker accumulates a private influence vector and Stats, merged
// at the end, so there is no contention on the hot path. The candidate
// R-tree and the A_2D array are built once and read concurrently
// (searches do not mutate the tree, and each A_2D entry carries its
// own radii).
//
// Results are identical to Pinocchio; only wall-clock time differs.
func PinocchioParallel(p *Problem, workers int) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.ctxErr(); err != nil {
		return nil, err
	}
	p.stampTrace()
	start := time.Now()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := len(p.Candidates)
	res := &Result{Influences: make([]int, m)}
	st := &res.Stats
	st.PairsTotal = int64(len(p.Objects)) * int64(m)

	// A_2D holds every per-object radius, so the workers only read it;
	// a prebuilt plan is immutable by construction and shared the same
	// way.
	a2d, tree, prunes := p.solveState(st)

	if workers > len(a2d) {
		workers = len(a2d)
	}
	type shardResult struct {
		influences []int
		stats      Stats
		cost       *Cost
		err        error
	}
	results := make([]shardResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker gets its own span subtree, so the per-shard
			// prune/validate split is contention-free and visible in
			// the trace. Each worker also gets its own canceller: the
			// shared context's Err is the only state they all touch.
			workerSp := p.Obs.Child(fmt.Sprintf("worker-%d", w))
			pruneSp := workerSp.Child("prune")
			valSp := workerSp.Child("validate")
			valTimer := valSp.Sampler(validateSampleLog)
			scanStart := pruneSp.StartTimer()
			// A private Cost ledger per shard keeps the per-candidate
			// tables contention-free; the parent merges them below.
			local := shardResult{influences: make([]int, m), cost: p.Cost.workerChild()}
			lst := &local.stats
			cc := canceller{ctx: p.Ctx}
			for k := w; k < len(a2d); k += workers {
				e := a2d[k]
				touched, ia, arcs := scanObject(tree, prunes, k, e, local.cost.nodeCounter(),
					func(cand int) {
						local.cost.pruneIA(cand)
						local.influences[cand]++
					},
					func(cand int) {
						if local.err != nil {
							return
						}
						if local.err = cc.tick(); local.err != nil {
							return
						}
						lst.Validated++
						local.cost.validated(cand)
						valTimer.Start()
						if influencedEarlyStop(p.PF, p.Tau, p.Candidates[cand], e.obj.Positions, lst) {
							local.influences[cand]++
						}
						valTimer.Stop()
					})
				lst.PrunedByIA += ia
				lst.PrunedByNIB += int64(m) - touched
				local.cost.addNIB(arcs, int64(m)-touched-arcs)
				if local.err == nil {
					local.err = cc.tick()
				}
				if local.err != nil {
					break
				}
			}
			valTimer.Finish()
			pruneSp.EndExclusive(scanStart, valSp)
			valSp.End()
			workerSp.SetAttr("stats", local.stats)
			workerSp.End()
			results[w] = local
		}(w)
	}
	wg.Wait()

	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		for j, v := range r.influences {
			res.Influences[j] += v
		}
		st.Merge(r.stats)
		p.Cost.merge(r.cost)
	}
	res.BestIndex, res.BestInfluence = Argmax(res.Influences)
	p.Cost.finishExact(p, st, res.Influences, res.BestIndex)
	res.Trace = p.Obs
	finishSolve(p.Obs, "PIN-PAR", start, st, p.Cost)
	return res, nil
}
