package dynamic

import (
	"time"

	"pinocchio/internal/obs"
)

// Metric names for the incremental engine (catalogue in DESIGN.md
// §6); op labels the update kind (add_object, add_position, …).
const (
	mDynOps         = "pinocchio_dynamic_ops_total"
	mDynOpSeconds   = "pinocchio_dynamic_op_seconds"
	mDynValidations = "pinocchio_dynamic_validations_total"
	mDynProbes      = "pinocchio_dynamic_position_probes_total"
	mDynObjects     = "pinocchio_dynamic_objects"
	mDynCandidates  = "pinocchio_dynamic_candidates"
)

// RecordObjects sets the tracked-objects gauge. An engine sets it to
// its own count after every update; a caller that spreads one
// population over several engines sets it back to the total after
// each update.
func RecordObjects(n int) {
	if !obs.Enabled() {
		return
	}
	obs.Default().Gauge(mDynObjects, "Moving objects currently tracked.", nil).Set(float64(n))
}

// finishOp folds one engine update into the default registry: the op
// count and latency, the validation/probe work it caused (the delta
// against the pre-op counters) and the live population gauges. Meant
// to be deferred with entry-time arguments:
//
//	defer e.finishOp("add_object", time.Now(), e.stats)
func (e *Engine) finishOp(op string, start time.Time, pre Stats) {
	if !obs.Enabled() {
		return
	}
	r := obs.Default()
	lbl := obs.Labels{"op": op}
	r.Counter(mDynOps, "Incremental engine updates applied.", lbl).Inc()
	r.Histogram(mDynOpSeconds, "Incremental update wall time in seconds.",
		obs.DefBuckets, lbl).Observe(time.Since(start).Seconds())
	r.Counter(mDynValidations, "Pair validations caused by engine updates.", lbl).
		Add(e.stats.Validations - pre.Validations)
	r.Counter(mDynProbes, "PF evaluations caused by engine updates.", lbl).
		Add(e.stats.PositionProbes - pre.PositionProbes)
	RecordObjects(len(e.objects))
	r.Gauge(mDynCandidates, "Candidate locations currently live.", nil).Set(float64(len(e.candPoints)))
}
