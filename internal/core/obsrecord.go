package core

import (
	"strconv"
	"time"

	"pinocchio/internal/obs"
)

// Metric names exported by the solvers (catalogue in DESIGN.md §6).
// All pair/probe counters carry an algo label so per-algorithm cost
// profiles can be compared on one scrape.
const (
	mQueries    = "pinocchio_queries_total"
	mQuerySecs  = "pinocchio_query_seconds"
	mPairs      = "pinocchio_pairs_total"
	mPrunedIA   = "pinocchio_pairs_pruned_ia_total"
	mPrunedNIB  = "pinocchio_pairs_pruned_nib_total"
	mValidated  = "pinocchio_pairs_validated_total"
	mSkipped    = "pinocchio_pairs_skipped_bounds_total"
	mProbes     = "pinocchio_position_probes_total"
	mEarlyStops = "pinocchio_early_stops_total"
	mHeapPops   = "pinocchio_heap_pops_total"
	mPruneRatio = "pinocchio_last_prune_ratio"

	// Work-per-query distributions (all queries, from Stats).
	mQueryValidated = "pinocchio_query_validated_pairs"
	mQueryProbes    = "pinocchio_query_position_probes"

	// EXPLAIN-only counters, recorded when a solve carries a Cost
	// ledger: the per-rule prune split and validated pairs.
	mPrunedRule   = "pinocchio_pairs_pruned_rule_total"
	mValidatedSrc = "pinocchio_pairs_validated_src_total"
	mNodeVisits   = "pinocchio_rtree_node_visits_total"
	mGridCells    = "pinocchio_grid_cells_scanned_total"
	mExplained    = "pinocchio_explained_queries_total"

	// MetricScatterShard is the per-shard wall-time histogram of
	// scattered solves, labeled {shard} — the straggler-attribution
	// layer of DESIGN.md §15. Exported so the serving layer's status
	// block and the metrics-exhaustiveness test can reference it.
	MetricScatterShard = "pinocchio_scatter_shard_seconds"
)

// WorkBuckets grades per-query work counts (pairs, probes) on decades;
// work, unlike latency, spans from tens to hundreds of millions.
var WorkBuckets = []float64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
}

// finishSolve closes out one solver run: it annotates the query's
// root span with the work counters (and the EXPLAIN ledger when the
// solve carried one) and, when metric recording is on, folds the run
// into the default registry. start is taken before the algorithm's
// first phase; the two time.Now calls per query are noise next to a
// solve, and everything else gates on obs.Enabled().
func finishSolve(sp *obs.Span, alg string, start time.Time, st *Stats, cost *Cost) {
	if sp != nil {
		sp.SetAttr("algo", alg)
		sp.SetAttr("stats", *st)
		sp.SetAttr("prune_ratio", st.PruneRatio())
		if cost != nil {
			// The struct copy drops nothing the trace needs: the
			// verdict table lives only in the explain response, and
			// unexported fields do not marshal.
			sp.SetAttr("cost", *cost)
		}
	}
	if !obs.Enabled() {
		return
	}
	dur := time.Since(start)
	r := obs.Default()
	lbl := obs.Labels{"algo": alg}
	r.Counter(mQueries, "PRIME-LS queries solved.", lbl).Inc()
	r.Histogram(mQuerySecs, "Query wall time in seconds.", obs.DefBuckets, lbl).Observe(dur.Seconds())
	r.Counter(mPairs, "Object/candidate pairs considered.", lbl).Add(st.PairsTotal)
	r.Counter(mPrunedIA, "Pairs resolved by the influence-arcs rule.", lbl).Add(st.PrunedByIA)
	r.Counter(mPrunedNIB, "Pairs resolved by the non-influence-boundary rule.", lbl).Add(st.PrunedByNIB)
	r.Counter(mValidated, "Pairs validated by cumulative-probability computation.", lbl).Add(st.Validated)
	r.Counter(mSkipped, "Pairs skipped by the Strategy 1 bounds.", lbl).Add(st.SkippedByBounds)
	r.Counter(mProbes, "Probability-function evaluations.", lbl).Add(st.PositionProbes)
	r.Counter(mEarlyStops, "Validations finished early by Lemma 4.", lbl).Add(st.EarlyStops)
	r.Counter(mHeapPops, "Candidates fully processed by the VO heap loop.", lbl).Add(st.HeapPops)
	r.Gauge(mPruneRatio, "Prune ratio of the most recent query.", lbl).Set(st.PruneRatio())
	r.Histogram(mQueryValidated, "Pairs validated per query.", WorkBuckets, lbl).Observe(float64(st.Validated))
	r.Histogram(mQueryProbes, "Position probes per query.", WorkBuckets, lbl).Observe(float64(st.PositionProbes))
	if cost != nil {
		recordCost(r, alg, cost)
	}
}

// RecordScatter closes out the gather step of a scattered operation:
// straggler stats (max/min/mean shard wall time, imbalance ratio
// max/mean) annotated on the gather root span, and one observation
// per shard in the pinocchio_scatter_shard_seconds histogram. Empty
// shards (zero duration) are excluded from both. SolveSharded calls
// it for solves; the serving layer reuses it for other sharded
// scatters (rect collection).
func RecordScatter(sp *obs.Span, durs []time.Duration) {
	var max, min, sum time.Duration
	n := 0
	for _, d := range durs {
		if d <= 0 {
			continue
		}
		if n == 0 || d > max {
			max = d
		}
		if n == 0 || d < min {
			min = d
		}
		sum += d
		n++
	}
	if n == 0 {
		return
	}
	mean := sum / time.Duration(n)
	imbalance := 1.0
	if mean > 0 {
		imbalance = float64(max) / float64(mean)
	}
	if sp != nil {
		sp.SetAttr("shard_max_ms", float64(max)/float64(time.Millisecond))
		sp.SetAttr("shard_min_ms", float64(min)/float64(time.Millisecond))
		sp.SetAttr("shard_mean_ms", float64(mean)/float64(time.Millisecond))
		sp.SetAttr("shard_imbalance", imbalance)
	}
	if !obs.Enabled() {
		return
	}
	r := obs.Default()
	for i, d := range durs {
		if d <= 0 {
			continue
		}
		r.Histogram(MetricScatterShard, "Per-shard wall time of scattered solves.",
			obs.DefBuckets, obs.Labels{"shard": strconv.Itoa(i)}).Observe(d.Seconds())
	}
}

// recordCost folds one EXPLAIN ledger into the registry: the per-rule
// prune split and validation provenance that plain Stats cannot
// distinguish. Only explain'd solves reach here, so the rule counters
// aggregate exactly the queries whose responses carried a breakdown.
func recordCost(r *obs.Registry, alg string, c *Cost) {
	r.Counter(mExplained, "Queries solved with EXPLAIN accounting.",
		obs.Labels{"algo": alg}).Inc()
	for rule, n := range c.RuleBreakdown() {
		r.Counter(mPrunedRule, "Pairs pruned, split by rule.",
			obs.Labels{"algo": alg, "rule": rule}).Add(n)
	}
	r.Counter(mValidatedSrc, "Pairs validated by a live probability scan.",
		obs.Labels{"algo": alg, "src": "live"}).Add(c.ValidatedLive)
	r.Counter(mNodeVisits, "Candidate R-tree nodes visited by prune scans.",
		obs.Labels{"algo": alg}).Add(c.RTreeNodeVisits)
	if c.GridCellsScanned > 0 {
		r.Counter(mGridCells, "Grid cells examined by prune scans.",
			obs.Labels{"algo": alg}).Add(c.GridCellsScanned)
	}
}
