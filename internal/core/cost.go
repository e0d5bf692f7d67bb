package core

// cost.go implements the query-EXPLAIN accounting layer: a Cost value
// attached to Problem.Cost counts per-phase work — which prune rule
// settled each object/candidate pair, how many remnant pairs were
// validated, how many index nodes the scans touched — and optionally
// classifies every candidate into a verdict table. All recording methods are nil-receiver-safe, so the
// disabled path (Cost == nil, the default) costs a pointer test and
// zero allocations.

import "fmt"

// Prune-rule names of the explain taxonomy (DESIGN.md §11). The
// classic Stats.PrunedByNIB counter is the sum of the two nib rules.
const (
	// RuleIA: the influence-arcs rule — the candidate certainly
	// influences the object, no validation needed.
	RuleIA = "ia"
	// RuleNIBBox: the candidate lies outside the NIB bounding box and
	// was never touched by the A2D-radius index scan; it is pruned
	// implicitly by the range query (Lemma 3 via the box
	// over-approximation).
	RuleNIBBox = "nib-box"
	// RuleNIBArc: the candidate was touched by the box scan but lies
	// outside the rounded NIB region — pruned by the exact per-point
	// Lemma 3 test.
	RuleNIBArc = "nib-arc"
)

// Verdict values of the per-candidate explain table. Exactly one
// verdict is assigned per candidate, so the verdict counts sum to the
// candidate-set size.
const (
	VerdictWinner    = "winner"    // selected best (or in the top-t)
	VerdictValidated = "validated" // at least one pair validated, not a winner
	VerdictSkipped   = "skipped"   // eliminated by the Strategy 1 bounds
	VerdictPruned    = "pruned"    // every pair settled by a prune rule
)

// Cost is one solve's work-accounting ledger. The exported counters
// are the wire format of the explain response; unexported per-candidate
// tables exist only after EnableVerdicts and feed the verdict table.
//
// The per-pair buckets partition PairsTotal: PrunedIA + PrunedNIBBox +
// PrunedNIBArc + ValidatedLive + SkippedByBounds ==
// PairsTotal for every solver (AccountedPairs returns the left side).
type Cost struct {
	// PairsTotal is r·m, copied from Stats at finish.
	PairsTotal int64 `json:"pairs_total"`
	// PrunedIA splits Stats.PrunedByIA out per rule (it equals it).
	PrunedIA int64 `json:"pruned_ia"`
	// PrunedNIBBox + PrunedNIBArc == Stats.PrunedByNIB.
	PrunedNIBBox int64 `json:"pruned_nib_box"`
	PrunedNIBArc int64 `json:"pruned_nib_arc"`
	// ValidatedLive == Stats.Validated: pairs decided by a probability
	// scan.
	ValidatedLive int64 `json:"validated_live"`
	// SkippedByBounds mirrors Stats.SkippedByBounds (Strategy 1).
	SkippedByBounds int64 `json:"skipped_by_bounds"`
	// RTreeNodeVisits counts candidate R-tree nodes whose entries a
	// scan examined. Warm solves replay the memoized classification and
	// legitimately report 0 — the plan already paid for the tree walk.
	RTreeNodeVisits int64 `json:"rtree_node_visits"`
	// GridCellsScanned counts uniform-grid cells examined (the
	// footnote-2 alternative index; nonzero only under Ablation.GridIndex
	// or grid-backed baselines).
	GridCellsScanned int64 `json:"grid_cells_scanned,omitempty"`
	// PositionProbes copies Stats.PositionProbes: PF evaluations, the
	// "object positions touched" axis.
	PositionProbes int64 `json:"position_probes"`

	// PlanSource records solve-state provenance: "none" (built inline
	// for this solve) or "attached" (caller supplied a prebuilt plan).
	PlanSource string `json:"plan_source,omitempty"`

	// Per-candidate tables, allocated by EnableVerdicts; int32 bounds
	// the memory at 12 bytes per candidate.
	candIA   []int32
	candVal  []int32
	candSkip []int32
	verdicts []CandVerdict
}

// CandVerdict is one row of the per-candidate explain table: how the
// solve disposed of each of the candidate's r pairs and the influence
// bounds at termination (equal for exact solvers).
type CandVerdict struct {
	Index     int    `json:"index"`
	Verdict   string `json:"verdict"`
	PrunedIA  int    `json:"pruned_ia"`
	PrunedNIB int    `json:"pruned_nib"`
	Validated int    `json:"validated"`
	Skipped   int    `json:"skipped"`
	MinInf    int    `json:"min_influence"`
	MaxInf    int    `json:"max_influence"`
}

// EnableVerdicts allocates the per-candidate tables for an m-candidate
// problem. Without it the Cost stays allocation-free and the verdict
// table is nil.
func (c *Cost) EnableVerdicts(m int) {
	if c == nil {
		return
	}
	c.candIA = make([]int32, m)
	c.candVal = make([]int32, m)
	c.candSkip = make([]int32, m)
}

// nodeCounter returns the R-tree visit counter to hand to the Counted
// search variants, or nil when accounting is off (selecting their
// zero-overhead path).
func (c *Cost) nodeCounter() *int64 {
	if c == nil {
		return nil
	}
	return &c.RTreeNodeVisits
}

// RTreeNodeCounter is the exported nodeCounter for packages outside
// core (the baselines) that drive Counted index searches.
func (c *Cost) RTreeNodeCounter() *int64 { return c.nodeCounter() }

// GridCellCounter returns the grid-cell counter, nil when off.
func (c *Cost) GridCellCounter() *int64 {
	if c == nil {
		return nil
	}
	return &c.GridCellsScanned
}

// AddPositionProbes accumulates PF/position touches for callers with
// no Stats to copy from (the baselines). Core solvers instead copy
// Stats.PositionProbes at finish.
func (c *Cost) AddPositionProbes(n int64) {
	if c != nil {
		c.PositionProbes += n
	}
}

// pruneIA records one pair settled by the influence-arcs rule.
func (c *Cost) pruneIA(cand int) {
	if c == nil {
		return
	}
	c.PrunedIA++
	if c.candIA != nil {
		c.candIA[cand]++
	}
}

// addNIB records a scan's non-influence prunes: arc pairs were touched
// and rejected by the exact Lemma 3 test, box pairs were never touched.
func (c *Cost) addNIB(arc, box int64) {
	if c == nil {
		return
	}
	c.PrunedNIBArc += arc
	c.PrunedNIBBox += box
}

// validated records one validated pair.
func (c *Cost) validated(cand int) {
	if c == nil {
		return
	}
	c.ValidatedLive++
	if c.candVal != nil {
		c.candVal[cand]++
	}
}

// skip records n of a candidate's pairs eliminated by Strategy 1.
func (c *Cost) skip(cand int, n int) {
	if c == nil || n == 0 {
		return
	}
	c.SkippedByBounds += int64(n)
	if c.candSkip != nil {
		c.candSkip[cand] += int32(n)
	}
}

// workerChild returns a private Cost for one shard of a data-parallel
// solve (nil when accounting is off), with verdict tables matching the
// parent's. Shards record contention-free and the parent merges.
func (c *Cost) workerChild() *Cost {
	if c == nil {
		return nil
	}
	w := &Cost{}
	if c.candIA != nil {
		w.EnableVerdicts(len(c.candIA))
	}
	return w
}

// merge folds a worker shard's ledger into c. Totals and provenance
// are not merged — finish fills them on the parent.
func (c *Cost) merge(o *Cost) {
	if c == nil || o == nil {
		return
	}
	c.PrunedIA += o.PrunedIA
	c.PrunedNIBBox += o.PrunedNIBBox
	c.PrunedNIBArc += o.PrunedNIBArc
	c.ValidatedLive += o.ValidatedLive
	c.SkippedByBounds += o.SkippedByBounds
	c.RTreeNodeVisits += o.RTreeNodeVisits
	c.GridCellsScanned += o.GridCellsScanned
	for i, v := range o.candIA {
		c.candIA[i] += v
	}
	for i, v := range o.candVal {
		c.candVal[i] += v
	}
	for i, v := range o.candSkip {
		c.candSkip[i] += v
	}
}

// AccountedPairs sums every per-pair bucket; complete accounting makes
// it equal PairsTotal.
func (c *Cost) AccountedPairs() int64 {
	if c == nil {
		return 0
	}
	return c.PrunedIA + c.PrunedNIBBox + c.PrunedNIBArc +
		c.ValidatedLive + c.SkippedByBounds
}

// PruneRatio is Stats.PruneRatio over the rule-split counters.
func (c *Cost) PruneRatio() float64 {
	if c == nil || c.PairsTotal == 0 {
		return 0
	}
	return float64(c.PrunedIA+c.PrunedNIBBox+c.PrunedNIBArc) / float64(c.PairsTotal)
}

// RuleBreakdown returns the per-rule prune counts keyed by rule name.
func (c *Cost) RuleBreakdown() map[string]int64 {
	if c == nil {
		return nil
	}
	return map[string]int64{
		RuleIA:     c.PrunedIA,
		RuleNIBBox: c.PrunedNIBBox,
		RuleNIBArc: c.PrunedNIBArc,
	}
}

// Verdicts returns the per-candidate table, nil unless EnableVerdicts
// was called before the solve.
func (c *Cost) Verdicts() []CandVerdict {
	if c == nil {
		return nil
	}
	return c.verdicts
}

// VerdictCounts tallies the table by verdict; the values sum to the
// candidate-set size.
func (c *Cost) VerdictCounts() map[string]int {
	if c == nil || c.verdicts == nil {
		return nil
	}
	out := make(map[string]int, 4)
	for i := range c.verdicts {
		out[c.verdicts[i].Verdict]++
	}
	return out
}

// String implements fmt.Stringer.
func (c *Cost) String() string {
	if c == nil {
		return "cost{nil}"
	}
	return fmt.Sprintf(
		"cost{pairs=%d ia=%d nibBox=%d nibArc=%d valLive=%d skipped=%d rtreeNodes=%d gridCells=%d probes=%d plan=%q}",
		c.PairsTotal, c.PrunedIA, c.PrunedNIBBox, c.PrunedNIBArc,
		c.ValidatedLive, c.SkippedByBounds,
		c.RTreeNodeVisits, c.GridCellsScanned, c.PositionProbes, c.PlanSource)
}

// finalize copies the totals from the solve's Stats and stamps default
// plan provenance.
func (c *Cost) finalize(p *Problem, st *Stats) {
	if c == nil {
		return
	}
	c.PairsTotal = st.PairsTotal
	c.PositionProbes = st.PositionProbes
	c.PlanSource = "none"
	if p.Plan != nil {
		c.PlanSource = "attached"
	}
}

// buildVerdicts fills the per-candidate table. minInf/maxInf are the
// influence bounds at termination; winner flags the selected
// candidate(s). The per-candidate NIB count is derived: of the r pairs,
// whatever IA, validation and Strategy 1 did not account for was pruned
// by one of the two NIB rules.
func (c *Cost) buildVerdicts(minInf, maxInf []int, winner func(int) bool) {
	if c == nil || c.candIA == nil {
		return
	}
	m := len(c.candIA)
	r := 0
	if m > 0 {
		r = int(c.PairsTotal) / m
	}
	c.verdicts = make([]CandVerdict, m)
	for i := 0; i < m; i++ {
		v := CandVerdict{
			Index:     i,
			PrunedIA:  int(c.candIA[i]),
			Validated: int(c.candVal[i]),
			Skipped:   int(c.candSkip[i]),
			MinInf:    minInf[i],
			MaxInf:    maxInf[i],
		}
		v.PrunedNIB = r - v.PrunedIA - v.Validated - v.Skipped
		switch {
		case winner(i):
			v.Verdict = VerdictWinner
		case v.Skipped > 0:
			v.Verdict = VerdictSkipped
		case v.Validated > 0:
			v.Verdict = VerdictValidated
		default:
			v.Verdict = VerdictPruned
		}
		c.verdicts[i] = v
	}
}

// finishExact closes accounting for a solver that computed exact
// influence for every candidate (NA, PIN, PIN-PAR, ablations).
func (c *Cost) finishExact(p *Problem, st *Stats, influences []int, best int) {
	if c == nil {
		return
	}
	c.finalize(p, st)
	c.buildVerdicts(influences, influences, func(i int) bool { return i == best })
}

// finishVO closes accounting for a bound-ordered solver: minInf/maxInf
// are the bounds at termination (exact only for the winner).
func (c *Cost) finishVO(p *Problem, st *Stats, minInf, maxInf []int, best int) {
	if c == nil {
		return
	}
	c.finalize(p, st)
	c.buildVerdicts(minInf, maxInf, func(i int) bool { return i == best })
}

// finishTopT closes accounting for the top-t solver; every certified
// candidate is a winner.
func (c *Cost) finishTopT(p *Problem, st *Stats, minInf, maxInf []int, ranked []Ranked) {
	if c == nil {
		return
	}
	c.finalize(p, st)
	win := make(map[int]bool, len(ranked))
	for _, r := range ranked {
		win[r.Index] = true
	}
	c.buildVerdicts(minInf, maxInf, func(i int) bool { return win[i] })
}
