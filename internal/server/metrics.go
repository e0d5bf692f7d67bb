package server

import (
	"strconv"
	"time"

	"pinocchio/internal/dynamic"
	"pinocchio/internal/obs"
	"pinocchio/internal/optimize"
)

// Metric names exported by the serving layer (catalogue in DESIGN.md
// §6/§7). HTTP series are labeled by route pattern; query latency by
// algorithm.
const (
	mHTTPRequests = "pinocchio_http_requests_total"
	mHTTPSeconds  = "pinocchio_http_request_seconds"
	mQueryLatency = "pinocchio_server_query_seconds"
	mPlanHits     = "pinocchio_server_plan_cache_hits_total"
	mPlanMisses   = "pinocchio_server_plan_cache_misses_total"
	mPlanBuild    = "pinocchio_server_plan_build_seconds"
	mShed         = "pinocchio_server_shed_total"
	mInflight     = "pinocchio_server_inflight"
	mMutations    = "pinocchio_server_mutations_total"
	mMutationSecs = "pinocchio_server_mutation_seconds"
	mEpoch        = "pinocchio_server_epoch"

	mOptimizeTotal   = "pinocchio_optimize_total"
	mOptimizeSeconds = "pinocchio_optimize_seconds"
	mOptimizeSwept   = "pinocchio_optimize_swept_rects_total"
	mOptimizeSolves  = "pinocchio_optimize_refine_solves_total"
)

// recordHTTP folds one finished request into the registry.
func recordHTTP(route string, code int, dur time.Duration) {
	if !obs.Enabled() {
		return
	}
	r := obs.Default()
	r.Counter(mHTTPRequests, "HTTP requests served.",
		obs.Labels{"route": route, "code": strconv.Itoa(code)}).Inc()
	r.Histogram(mHTTPSeconds, "HTTP request wall time in seconds.",
		obs.DefBuckets, obs.Labels{"route": route}).Observe(dur.Seconds())
}

// recordQuery tracks served-query latency per algorithm.
func recordQuery(algo string, dur time.Duration) {
	if !obs.Enabled() {
		return
	}
	obs.Default().Histogram(mQueryLatency, "Served PRIME-LS query latency in seconds.",
		obs.DefBuckets, obs.Labels{"algo": algo}).Observe(dur.Seconds())
}

// recordPlanCache counts one per-shard influence-index lookup: a hit
// when no build ran for it, a miss when it built or widened the index.
func recordPlanCache(hit bool) {
	if !obs.Enabled() {
		return
	}
	if hit {
		obs.Default().Counter(mPlanHits, "Influence-index lookups served without a build.", nil).Inc()
	} else {
		obs.Default().Counter(mPlanMisses, "Influence-index lookups that built or widened an index.", nil).Inc()
	}
}

// recordPlanBuild tracks influence-index build latency.
func recordPlanBuild(dur time.Duration) {
	if !obs.Enabled() {
		return
	}
	obs.Default().Histogram(mPlanBuild, "Influence-index build wall time in seconds.",
		obs.DefBuckets, nil).Observe(dur.Seconds())
}

// recordShed counts one admission-control rejection.
func recordShed() {
	if !obs.Enabled() {
		return
	}
	obs.Default().Counter(mShed, "Queries shed by admission control.", nil).Inc()
}

// recordInflight moves the in-flight query gauge.
func recordInflight(delta float64) {
	if !obs.Enabled() {
		return
	}
	obs.Default().Gauge(mInflight, "Queries currently executing.", nil).Add(delta)
}

// recordMutation counts one applied engine mutation and publishes the
// new epoch. The dynamic package separately records the engine-level
// op cost; this series counts the HTTP-applied mutations.
func recordMutation(op string, epoch int64, dur time.Duration) {
	if !obs.Enabled() {
		return
	}
	r := obs.Default()
	r.Counter(mMutations, "Engine mutations applied via the API.", obs.Labels{"op": op}).Inc()
	r.Histogram(mMutationSecs, "Mutation wall time in seconds (lock wait included).",
		obs.DefBuckets, obs.Labels{"op": op}).Observe(dur.Seconds())
	r.Gauge(mEpoch, "Current dataset mutation epoch.", nil).Set(float64(epoch))
}

// recordObjects exports the object total over every shard as
// pinocchio_dynamic_objects. Each shard engine sets that gauge to its
// own count as it applies an op, so the server puts the total back
// after boot, recovery and every mutation; objMu orders each load with
// its Set, so a writer holding an older total cannot overwrite a newer
// one.
func (s *Server) recordObjects() {
	if !obs.Enabled() {
		return
	}
	s.objMu.Lock()
	defer s.objMu.Unlock()
	dynamic.RecordObjects(int(s.objects.Load()))
}

// recordOptimize folds one served optimize run into the registry:
// outcome counts labeled by resolution, latency, and the work the
// run's ledger accounted (swept rects, exact refinement solves).
func recordOptimize(resolved bool, dur time.Duration, cost *optimize.Cost) {
	if !obs.Enabled() {
		return
	}
	r := obs.Default()
	r.Counter(mOptimizeTotal, "Optimize runs served.",
		obs.Labels{"resolved": strconv.FormatBool(resolved)}).Inc()
	r.Histogram(mOptimizeSeconds, "Optimize run wall time in seconds.",
		obs.DefBuckets, nil).Observe(dur.Seconds())
	if cost != nil {
		r.Counter(mOptimizeSwept, "Influence rectangles swept by optimize runs.", nil).
			Add(cost.SweptRects)
		r.Counter(mOptimizeSolves, "Exact influence solves performed by optimize refinement.", nil).
			Add(cost.RefineSolves)
	}
}
