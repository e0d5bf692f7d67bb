package core

// shard.go is the scatter-gather half of the shard-per-core engine:
// the serving layer partitions Ω into per-shard object sets (routed by
// dynamic.ShardOf), solves each part independently with any
// full-vector solver, and SolveSharded merges the per-shard influence
// vectors, Stats and Cost ledgers back into one exact Result.
//
// The merge is exact because influence is additive over objects: every
// object/candidate pair is settled inside exactly one part, so the
// per-candidate influence counts, the per-rule prune buckets and the
// work counters all sum. The two quantities that do NOT decompose by
// summation are recomputed at gather time: PairsTotal (r·m over the
// parent instance) and DistinctN (the distinct position-count table
// size — a union across parts, not a sum, since two shards may share
// an n). Early-exit solvers (PIN-VO, PIN-VO*, TopT) are not shardable
// this way: their bound-ordered termination depends on the global
// vector, so the serving layer runs them over the combined object set.

import (
	"fmt"
	"sync"
	"time"
)

// ShardSolve runs one part of a scattered solve. The part problem
// carries its own Objects slice (one shard of the parent's partition)
// and shares the parent's Candidates, PF and Tau; idx is the shard
// index, for labeling.
type ShardSolve func(idx int, part *Problem) (*Result, error)

// Shardable reports whether alg computes a full influence vector and
// therefore merges exactly under SolveSharded. The VO family early-
// exits on bounds ordered by the global vector, so it is excluded.
func Shardable(alg Algorithm) bool {
	switch alg {
	case AlgNA, AlgPinocchio:
		return true
	}
	return false
}

// SolveSharded scatters the parts and gathers one exact Result.
//
// p is the parent instance: its Objects must be exactly the
// concatenation (in any order) of the parts' Objects, and every part
// must share p.Candidates, p.PF and p.Tau — the gather step recomputes
// PairsTotal, DistinctN and the argmax over the parent, so a
// mismatched part silently corrupts the answer. Parts with no objects
// are skipped (Validate would reject them; an empty shard contributes
// zero influence). Each part may carry its own Plan (built over that
// shard's objects); parts must NOT carry a Cost — SolveSharded wires a
// private child of p.Cost into each part and merges the children, the
// same contention-free pattern PinocchioParallel uses for its workers.
//
// solve runs one part; it is invoked concurrently, one goroutine per
// non-empty part. The first error (including context cancellation
// propagated through p.Ctx into the parts) aborts the gather.
func SolveSharded(p *Problem, parts []*Problem, solve ShardSolve) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.ctxErr(); err != nil {
		return nil, err
	}
	p.stampTrace()
	start := time.Now()
	m := len(p.Candidates)
	res := &Result{Influences: make([]int, m)}
	st := &res.Stats

	type partResult struct {
		res  *Result
		cost *Cost
		dur  time.Duration
		err  error
	}
	results := make([]partResult, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		if part == nil || len(part.Objects) == 0 {
			continue
		}
		part.Cost = p.Cost.workerChild()
		if part.Ctx == nil {
			part.Ctx = p.Ctx
		}
		if part.Obs == nil {
			part.Obs = p.Obs.Child(fmt.Sprintf("shard-%d", i))
		}
		part.Obs.SetAttr("shard", i)
		part.Obs.SetAttr("objects", len(part.Objects))
		wg.Add(1)
		go func(i int, part *Problem) {
			defer wg.Done()
			shardStart := time.Now()
			r, err := solve(i, part)
			// End the per-shard span here so its recorded duration is the
			// shard's wall time, not whenever the trace is snapshotted.
			part.Obs.End()
			results[i] = partResult{res: r, cost: part.Cost, dur: time.Since(shardStart), err: err}
		}(i, part)
	}
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, r.err)
		}
		if r.res == nil {
			continue
		}
		if len(r.res.Influences) != m {
			return nil, fmt.Errorf("core: shard %d returned %d influences, want %d (solver must compute the full vector)",
				i, len(r.res.Influences), m)
		}
		for j, v := range r.res.Influences {
			res.Influences[j] += v
		}
		st.Merge(r.res.Stats)
		p.Cost.merge(r.cost)
	}

	// PairsTotal and DistinctN over the parent: the per-part values sum
	// (respectively max-merge) to something else. DistinctN is the size
	// of the radius memo table an unsharded solve would build —
	// the number of distinct position counts across ALL objects — which
	// the per-part union can only under-count through Merge's max. A
	// solver that never builds the table (NA) reports 0 everywhere, and
	// 0 it stays.
	st.PairsTotal = int64(len(p.Objects)) * int64(m)
	if st.DistinctN > 0 {
		seen := make(map[int]struct{})
		for _, o := range p.Objects {
			seen[o.N()] = struct{}{}
		}
		st.DistinctN = len(seen)
	}

	res.BestIndex, res.BestInfluence = Argmax(res.Influences)
	p.Cost.finishExact(p, st, res.Influences, res.BestIndex)
	res.Trace = p.Obs
	res.ShardDurations = make([]time.Duration, len(parts))
	for i := range results {
		res.ShardDurations[i] = results[i].dur
	}
	RecordScatter(p.Obs, res.ShardDurations)
	finishSolve(p.Obs, "SHARDED", start, st, p.Cost)
	return res, nil
}
