// Package core implements the PRIME-LS problem (Definition 3) and the
// paper's algorithms for it: the NA exhaustive baseline, PINOCCHIO
// (Algorithm 2, minMaxRadius pruning + sequential validation) and
// PINOCCHIO-VO (Algorithm 3, pruning + upper/lower influence bounds +
// early-stopping validation), plus the PINOCCHIO-VO* ablation that uses
// the validation optimizations without the pruning phase.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/obs"
	"pinocchio/internal/probfn"
	"pinocchio/internal/rtree"
)

// Validation errors returned by Problem.Validate.
var (
	ErrNoObjects    = errors.New("core: problem needs at least one moving object")
	ErrNoCandidates = errors.New("core: problem needs at least one candidate location")
	ErrNilPF        = errors.New("core: problem needs a probability function")
	ErrBadTau       = errors.New("core: threshold tau must lie in (0, 1)")
	ErrPlanMismatch = errors.New("core: prebuilt plan does not match the problem")
)

// Problem is a PRIME-LS instance: moving objects Ω, candidate
// locations C, a distance-based probability function PF and the
// influence threshold τ.
type Problem struct {
	Objects    []*object.Object
	Candidates []geo.Point
	PF         probfn.Func
	Tau        float64

	// Fanout is the node capacity of the candidate R-tree; 0 selects
	// rtree.DefaultMaxEntries (8, the paper's setting).
	Fanout int

	// Obs, when non-nil, receives one child span per algorithm phase
	// (build-a2d, build-rtree, prune, validate, …) plus the run's work
	// counters as attributes. Nil disables tracing; every span method
	// is nil-safe, so the disabled path costs a pointer test.
	Obs *obs.Span

	// TraceID identifies the request this solve serves. The solver
	// entry points stamp it onto the root span (attribute "trace_id"),
	// so an exported span tree can be joined back to the serving
	// layer's trace store and log lines. Empty is fine and costs
	// nothing; the ID never influences the computation.
	TraceID string

	// Ctx, when non-nil, bounds the solve: the scan and validation
	// loops check it roughly every cancelEvery pairs and return its
	// error (context.Canceled or context.DeadlineExceeded) instead of
	// finishing the computation. Nil means no deadline, the library
	// default.
	Ctx context.Context

	// Cost, when non-nil, receives the solve's EXPLAIN accounting:
	// per-rule prune counts, validated pairs, index node
	// visits and (after EnableVerdicts) a per-candidate verdict table.
	// Nil disables accounting; every Cost method is nil-safe and the
	// disabled path allocates nothing.
	Cost *Cost

	// Plan, when non-nil, supplies prebuilt solve state (BuildPlan):
	// the candidate R-tree, the A_2D array and the memoized prune
	// classification. It must have been built for exactly these
	// Objects, Candidates (same slices), PF, Tau and Fanout — Validate
	// rejects a detectable mismatch with ErrPlanMismatch. PF identity
	// is checked by value for the comparable probfn families and by
	// dynamic type only for custom implementations. Solvers that use
	// no derived state (NA, PINOCCHIO-VO*) ignore it; nil keeps the
	// build-per-solve path.
	Plan *Plan
}

// Validate checks the instance is well formed.
func (p *Problem) Validate() error {
	switch {
	case len(p.Objects) == 0:
		return ErrNoObjects
	case len(p.Candidates) == 0:
		return ErrNoCandidates
	case p.PF == nil:
		return ErrNilPF
	case !(p.Tau > 0 && p.Tau < 1):
		return fmt.Errorf("%w: got %v", ErrBadTau, p.Tau)
	}
	if p.Plan != nil && !p.Plan.matches(p) {
		return ErrPlanMismatch
	}
	return nil
}

// stampTrace annotates the root span with the request's trace ID; the
// solver entry points call it once per run.
func (p *Problem) stampTrace() {
	if p.TraceID != "" {
		p.Obs.SetAttr("trace_id", p.TraceID)
	}
}

// fanout resolves the effective R-tree fan-out.
func (p *Problem) fanout() int {
	if p.Fanout > 0 {
		return p.Fanout
	}
	return rtree.DefaultMaxEntries
}

// candidateTree bulk-loads the candidate set into an R-tree; the
// item ID is the candidate index into p.Candidates.
func (p *Problem) candidateTree() *rtree.Tree {
	items := make([]rtree.Item, len(p.Candidates))
	for i, c := range p.Candidates {
		items[i] = rtree.Item{Point: c, ID: i}
	}
	return rtree.Bulk(items, p.fanout())
}

// Result reports the outcome of a PRIME-LS computation.
type Result struct {
	// BestIndex is the index into Problem.Candidates of the selected
	// optimal location. Among equally influential candidates every
	// solver in this package returns the smallest index.
	BestIndex int

	// BestInfluence is inf(BestIndex), the number of moving objects
	// influenced by the selected candidate.
	BestInfluence int

	// Influences is the exact influence of every candidate for
	// algorithms that compute it (NA, PINOCCHIO); nil for the VO
	// variants, which only certify the optimum.
	Influences []int

	// Stats holds the work counters accumulated during the run.
	Stats Stats

	// Trace is the span tree of this run when the caller supplied
	// Problem.Obs, nil otherwise. It aliases the caller's spans — the
	// phase breakdown travels with the result instead of requiring the
	// caller to keep the root around separately.
	Trace *obs.Span

	// ShardDurations, set only by SolveSharded, holds the wall time of
	// each scattered part (zero for parts skipped as empty), indexed
	// like the parts slice — the raw material for straggler
	// attribution at the serving layer.
	ShardDurations []time.Duration
}

// Stats instruments the algorithms: the counters behind Fig. 10
// (pruning effect) and the validation-cost discussion of §5.
type Stats struct {
	// PairsTotal is r·m, the number of object/candidate pairs.
	PairsTotal int64
	// PrunedByIA counts pairs resolved by the influence-arcs rule
	// (candidate certainly influences the object, no validation).
	PrunedByIA int64
	// PrunedByNIB counts pairs resolved by the non-influence-boundary
	// rule (candidate certainly cannot influence the object).
	PrunedByNIB int64
	// Validated counts pairs whose cumulative influence probability
	// was (at least partially) computed.
	Validated int64
	// SkippedByBounds counts pairs never validated because Strategy 1
	// eliminated the candidate (maxInf < maxminInf).
	SkippedByBounds int64
	// PositionProbes counts PF evaluations: the per-position work the
	// early-stopping Strategy 2 reduces.
	PositionProbes int64
	// EarlyStops counts validations finished by Lemma 4 before
	// exhausting an object's positions.
	EarlyStops int64
	// HeapPops counts candidates fully processed by the VO heap loop.
	HeapPops int64
	// DistinctN is the number of distinct position counts, i.e. the
	// size of the radius memo table HM of Algorithm 1 (object.MarginTable).
	DistinctN int
}

// PruneRatio returns the fraction of object/candidate pairs resolved
// without validation by the two pruning rules.
func (s Stats) PruneRatio() float64 {
	if s.PairsTotal == 0 {
		return 0
	}
	return float64(s.PrunedByIA+s.PrunedByNIB) / float64(s.PairsTotal)
}

// Merge accumulates o into s: the flow counters sum, while DistinctN
// — the size of a memo table rather than a flow — takes the maximum.
// It is the single merge path shared by PinocchioParallel's shard
// reduction and by harness code aggregating stats across runs.
func (s *Stats) Merge(o Stats) {
	s.PairsTotal += o.PairsTotal
	s.PrunedByIA += o.PrunedByIA
	s.PrunedByNIB += o.PrunedByNIB
	s.Validated += o.Validated
	s.SkippedByBounds += o.SkippedByBounds
	s.PositionProbes += o.PositionProbes
	s.EarlyStops += o.EarlyStops
	s.HeapPops += o.HeapPops
	if o.DistinctN > s.DistinctN {
		s.DistinctN = o.DistinctN
	}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf(
		"stats{pairs=%d ia=%d nib=%d validated=%d skipped=%d probes=%d earlyStops=%d pops=%d distinctN=%d}",
		s.PairsTotal, s.PrunedByIA, s.PrunedByNIB, s.Validated,
		s.SkippedByBounds, s.PositionProbes, s.EarlyStops, s.HeapPops, s.DistinctN)
}
