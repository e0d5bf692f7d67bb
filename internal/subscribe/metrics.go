package subscribe

import (
	"time"

	"pinocchio/internal/obs"
)

// Metric names exported by the subscription layer (DESIGN.md §12).
const (
	// MetricActive is the live-subscription gauge.
	MetricActive = "pinocchio_subs_active"
	// MetricEvents counts delivered (published) events, registration
	// and terminal events included.
	MetricEvents = "pinocchio_sub_events_total"
	// MetricChecks counts (batch, subscription) checks by outcome:
	// resolved (re-solved), stale (batch predates the last solve),
	// error (solve failed).
	MetricChecks = "pinocchio_sub_checks_total"
	// MetricNotifySeconds is the batch-enqueue-to-event-publish
	// latency of delivered changes.
	MetricNotifySeconds = "pinocchio_sub_notify_seconds"
	// MetricPipelineStage is the per-stage latency histogram of the
	// ingest→notify pipeline, labeled {stage}: where notify latency is
	// actually spent (DESIGN.md §15).
	MetricPipelineStage = "pinocchio_sub_pipeline_stage_seconds"
)

// Pipeline stage labels for MetricPipelineStage. Queue-wait and solve
// are recorded for every re-solved batch; publish only when the top-k
// changed; flush is recorded by the SSE layer when an event is written
// to a client connection.
const (
	StageQueueWait = "queue-wait"
	StageSolve     = "solve"
	StagePublish   = "publish"
	StageFlush     = "flush"
)

// StageBuckets grades pipeline stages: the cheap stages (queue-wait,
// publish) live in the microseconds, far below the latency
// DefBuckets resolve.
var StageBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, .01, .025, .05, .1, .25, .5, 1, 2.5,
}

// RecordStage folds one pipeline stage duration into the stage
// histogram. Exported so the serving layer can record the flush stage
// it alone observes.
func RecordStage(stage string, d time.Duration) { recordStage(stage, d) }

func recordStage(stage string, d time.Duration) {
	if !obs.Enabled() {
		return
	}
	obs.Default().Histogram(MetricPipelineStage,
		"Ingest-to-notify pipeline stage latency in seconds.",
		StageBuckets, obs.Labels{"stage": stage}).Observe(d.Seconds())
}

func recordActive(n int) {
	if !obs.Enabled() {
		return
	}
	obs.Default().Gauge(MetricActive, "Live subscriptions.", nil).Set(float64(n))
}

func recordEvent() {
	if !obs.Enabled() {
		return
	}
	obs.Default().Counter(MetricEvents, "Subscription events published.", nil).Inc()
}

func recordCheck(result string) {
	if !obs.Enabled() {
		return
	}
	obs.Default().Counter(MetricChecks,
		"Per-batch subscription checks by outcome (resolved, stale or error).",
		obs.Labels{"result": result}).Inc()
}

func recordNotifyLatency(d time.Duration) {
	if !obs.Enabled() {
		return
	}
	obs.Default().Histogram(MetricNotifySeconds,
		"Batch-apply-to-event-publish latency in seconds.",
		obs.DefBuckets, nil).Observe(d.Seconds())
}
