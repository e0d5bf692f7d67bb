// Package server is the PRIME-LS query service: an HTTP JSON API over
// a live dynamic.Engine, the serving layer the paper motivates in §1
// (an online location-selection service over continuously moving
// objects).
//
// A Server loads a workload once and keeps everything hot in memory:
// the moving objects, the candidate set, and the incremental engine
// tracking per-candidate influence under its configured PF/τ. On top
// of that it answers two kinds of traffic:
//
//   - queries (POST /v1/query): top-1 and top-k PRIME-LS with
//     per-request PF family, ρ/λ, τ, k and algorithm selection,
//     solved by the static solvers over a consistent snapshot;
//   - mutations (POST/DELETE under /v1/objects and /v1/candidates):
//     applied to the dynamic engine, which maintains exact influences
//     incrementally.
//
// Concurrency model (shard-per-core, DESIGN.md §13): the object
// population is partitioned across Config.Shards shards, each owning
// its own engine, epoch, snapshot and (when durable) WAL stream.
// Object mutations lock exactly one shard — writers on different
// shards run concurrently — while candidate mutations lock all shards
// under the topology lock. Queries snapshot the per-shard populations
// together with each engine's influence vector and solve outside any
// lock on immutable data: per-shard engine vectors (at the engine's
// PF/τ), influence indexes (at any other) or live per-shard solves sum
// exactly, since influence is additive over objects. Every mutation
// bumps its shard's epoch; a shard's next snapshot replaces the old one
// together with the indexes it owned, so a mutation retires them
// without blocking in-flight queries, and the next query solves against
// the new population. The influence indexes are the only cache of
// solve work: every query and optimize call solves against the
// snapshot it reads.
// Shards = 1 (the Config default) degenerates to the classic
// single-writer/many-reader engine.
//
// Overload behavior: at most MaxInflight queries run concurrently;
// excess requests are shed immediately with 429. Per-request deadlines
// propagate into the solvers through Problem.Ctx, so an expired
// deadline stops the scan mid-loop and surfaces as 503.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pinocchio/internal/core"
	"pinocchio/internal/dynamic"
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/obs"
	"pinocchio/internal/optimize"
	"pinocchio/internal/probfn"
	"pinocchio/internal/store"
	"pinocchio/internal/subscribe"
)

// Config parameterizes a Server. The zero value of optional fields
// selects the documented defaults.
type Config struct {
	// PF and Tau configure the dynamic engine's influence tracking:
	// the /v1/influence and /v1/best views, and the /v1/query answers
	// and subscription re-solves at exactly this PF and τ, which read
	// the engine's vectors instead of an index. PF defaults to the
	// paper's power law, Tau to 0.7.
	PF  probfn.Func
	Tau float64

	// DatasetName labels /v1/status responses.
	DatasetName string

	// Shards is the number of engine shards the object population is
	// partitioned across (dynamic.ShardOf routes object ids). Each
	// shard owns its own engine, epoch, snapshot and WAL stream, so
	// mutations on different shards apply concurrently and full-vector
	// queries scatter-gather across them. Defaults to 1 — the classic
	// single-engine server; cmd/pinocchiod defaults its -shards flag to
	// NumCPU instead.
	Shards int

	// MaxInflight caps concurrently running queries; excess requests
	// are shed with 429. Defaults to 2×max(GOMAXPROCS, Shards) — with
	// more shards than cores the scatter path still keeps every shard
	// busy, so admission scales with the wider of the two.
	MaxInflight int

	// PlanCacheSize bounds how many influence indexes are held
	// (default 32; negative disables them, and every query then runs
	// its solver live, engine PF/τ included). An index answers every τ
	// of an interval for one (shard snapshot, PF, ρ, λ), so pin,
	// pin-vo, pin-par and top-k queries and subscription re-solves at
	// any other PF/τ than the engine's reduce to per-shard lookups; a τ
	// outside the interval widens it with one rebuild.
	PlanCacheSize int

	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64

	// MaxTimeout caps (and defaults) the per-request query deadline.
	// Defaults to 30s.
	MaxTimeout time.Duration

	// Stores, when non-empty, make mutations durable: every mutation
	// is appended to its shard's write-ahead log before it touches the
	// engine, so a crash after the HTTP acknowledgement never loses
	// it. They are the per-shard streams (store.OpenSharded, or one
	// store.Open for a single shard), index-aligned with the shards;
	// len(Stores) must equal Shards.
	Stores []*store.Store

	// CheckpointEvery triggers a background checkpoint after that many
	// applied mutations (default 10000; negative disables automatic
	// checkpoints). Only meaningful with Stores.
	CheckpointEvery int

	// SlowQuery is the slow-request threshold: a traced request
	// finishing at or over it emits a "slow query" slog record with
	// its phase breakdown and enters the trace store's retained ring,
	// so it survives eviction by fast traffic. 0 selects 250ms;
	// negative disables slow-query detection.
	SlowQuery time.Duration

	// SlowNotify is the subscription pipeline's counterpart of
	// SlowQuery: a notify run (mutation apply to event publish) at or
	// over it is marked slow — retained-ring trace plus a "slow notify"
	// slog record with the stage breakdown. 0 selects the SlowQuery
	// threshold; negative disables slow-notify detection.
	SlowNotify time.Duration

	// SLOs are the latency objectives the server monitors (see
	// obs.ParseSLOs for the textual form). Objective bases resolve to
	// the serving histograms: "query" (successful query wall time),
	// "ingest"/"mutation" (applied mutation wall time), "notify"
	// (subscription batch-apply-to-publish). Empty disables the monitor;
	// /v1/status then omits its "slo" block.
	SLOs []obs.SLOObjective

	// TraceKeep sizes request-trace retention: the store keeps the
	// last TraceKeep traces plus up to TraceKeep slow or non-ok ones,
	// served at /v1/debug/traces. 0 selects 256; negative disables
	// request tracing (the debug endpoints answer 404).
	TraceKeep int

	// Traces, when non-nil, is used as the trace store instead of one
	// built from TraceKeep. The daemon creates it before the server
	// exists so pre-serving work (recovery replay, WAL hooks wired via
	// store.Options.Traces) lands in the same store the debug endpoints
	// serve.
	Traces *obs.TraceStore

	// MaxSubs caps live standing-query subscriptions (default 256;
	// negative disables the subscription endpoints entirely).
	MaxSubs int

	// SubBuffer is the per-subscription event backlog ring size
	// (default 16): how far an SSE or long-poll consumer may fall
	// behind before intermediate versions coalesce.
	SubBuffer int
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.PF == nil {
		c.PF = probfn.DefaultPowerLaw()
	}
	if c.Tau == 0 {
		c.Tau = 0.7
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * max(runtime.GOMAXPROCS(0), c.Shards)
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 32
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10000
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = 250 * time.Millisecond
	}
	if c.SlowNotify == 0 {
		c.SlowNotify = c.SlowQuery
	}
	if c.TraceKeep == 0 {
		c.TraceKeep = 256
	}
	if c.MaxSubs == 0 {
		c.MaxSubs = 256
	}
	if c.SubBuffer == 0 {
		c.SubBuffer = 16
	}
	return c
}

// snapshot is one immutable combined view of the population, shared by
// every query issued while no shard moved. Objects are immutable once
// built and points are values, so readers never see a mutation.
type snapshot struct {
	// epoch is the global epoch (Σ per-shard epochs): the wire-visible
	// version number.
	epoch   int64
	objects []*object.Object
	candIDs []int
	candPts []geo.Point

	// cs is the shared candidate view (points + lazily built R-tree),
	// stable across object mutations; parts are the per-shard object
	// snapshots this view was assembled from — the scatter path solves
	// them directly.
	cs    *candSet
	parts []*shardSnap
}

// candTree returns the snapshot's shared candidate R-tree, building it
// on first call.
func (sn *snapshot) candTree() *core.CandTree {
	return sn.cs.candTree()
}

// candIndex returns the snapshot position of a candidate id, -1 when
// the id is not live in this snapshot.
func (sn *snapshot) candIndex(id int) int {
	lo, hi := 0, len(sn.candIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if sn.candIDs[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sn.candIDs) && sn.candIDs[lo] == id {
		return lo
	}
	return -1
}

// Server is the query service. It implements http.Handler.
type Server struct {
	cfg   Config
	start time.Time

	// shards partition the object population (dynamic.ShardOf routes
	// ids); every shard holds the full candidate set. Each shard has
	// its own RWMutex — see shard.go for the lock order.
	shards []*shard

	// topoMu orders cross-shard operations: candidate mutations (which
	// touch every shard) take the write side, snapshot assembly the
	// read side, so no query ever sees a candidate set torn across
	// shards. Object mutations bypass it entirely.
	topoMu sync.RWMutex

	// gepoch is the global epoch: Σ per-shard epochs, bumped once per
	// applied (sub-)record. Monotonic; equals the per-shard sum
	// whenever no mutation is in flight.
	gepoch atomic.Int64

	// candGen counts candidate mutations (written under topoMu.Lock);
	// cands caches the shared candidate view keyed by it, so object
	// mutations never invalidate candidate slices or the R-tree.
	candGen int64
	cands   atomic.Pointer[candSet]

	// objects is the population total over every shard, moved by object
	// mutations; objMu orders its exports (recordObjects).
	objects atomic.Int64
	objMu   sync.Mutex

	// snap caches the latest combined snapshot; rebuilt lazily when any
	// shard moved. A rebuild publishes with CompareAndSwap and never
	// replaces a snapshot at a larger epoch sum, so a slow rebuilder
	// cannot put an older population back.
	snap atomic.Pointer[snapshot]

	// scatterSolves counts queries dispatched through the scatter-
	// gather path; scatterMerges counts the ones whose per-shard
	// vectors merged successfully. Surfaced in /v1/status.
	scatterSolves atomic.Int64
	scatterMerges atomic.Int64

	// inflightNow and shedTotal feed the /v1/status admission block.
	inflightNow atomic.Int64
	shedTotal   atomic.Int64

	// inflight is the admission-control semaphore for queries.
	inflight chan struct{}

	// sinceCkpt counts mutations applied since the last checkpoint;
	// ckptRunning keeps at most one background checkpoint in flight,
	// and ckptWG lets shutdown wait for it before closing the store.
	sinceCkpt   atomic.Int64
	ckptRunning atomic.Bool
	ckptWG      sync.WaitGroup

	indexes *indexCache
	mux     *http.ServeMux

	// subs manages standing-query subscriptions; nil when MaxSubs < 0.
	// The server itself is the manager's solve backend.
	subs *subscribe.Manager

	// traces retains finished request telemetry for /v1/debug/traces;
	// nil when tracing is disabled (TraceKeep < 0).
	traces *obs.TraceStore

	// latQuery, latMutation and latNotify feed the /v1/status latency
	// percentiles and the SLO monitor. They record unconditionally (not
	// gated on obs.Enabled) because the status endpoint is part of the
	// API, not of the opt-in metrics surface; latNotify is written by
	// the subscription manager (Config.NotifyLatency).
	latQuery    *obs.Histogram
	latMutation *obs.Histogram
	latNotify   *obs.Histogram

	// slo samples the latency histograms into multi-window burn rates;
	// nil when Config.SLOs is empty.
	slo *obs.SLOMonitor

	// Cumulative solved-query work, fed by every answered query and
	// surfaced in /v1/status so work-per-query trends are visible
	// without the metrics endpoint.
	workPairs     atomic.Int64
	workPruned    atomic.Int64
	workValidated atomic.Int64
	workProbes    atomic.Int64
	workQueries   atomic.Int64

	// Cumulative candidate-free placement work (POST /v1/optimize),
	// fed by every answered optimize run.
	optRuns     atomic.Int64
	optSwept    atomic.Int64
	optEvents   atomic.Int64
	optCells    atomic.Int64
	optSolves   atomic.Int64
	optPairWork atomic.Int64
}

// addWork folds one solve's counters into the status totals.
func (s *Server) addWork(st *core.Stats) {
	s.workQueries.Add(1)
	s.workPairs.Add(st.PairsTotal)
	s.workPruned.Add(st.PrunedByIA + st.PrunedByNIB)
	s.workValidated.Add(st.Validated)
	s.workProbes.Add(st.PositionProbes)
}

// addOptimizeWork folds one optimize run's ledger into the status
// totals.
func (s *Server) addOptimizeWork(c *optimize.Cost) {
	s.optRuns.Add(1)
	if c == nil {
		return
	}
	s.optSwept.Add(c.SweptRects)
	s.optEvents.Add(c.SweepEvents)
	s.optCells.Add(c.RefineCells)
	s.optSolves.Add(c.RefineSolves)
	s.optPairWork.Add(c.PairWork())
}

// workStatus shapes the cumulative work block of /v1/status.
func (s *Server) workStatus() map[string]any {
	pairs := s.workPairs.Load()
	pruned := s.workPruned.Load()
	ratio := 0.0
	if pairs > 0 {
		ratio = float64(pruned) / float64(pairs)
	}
	return map[string]any{
		"queries_solved":  s.workQueries.Load(),
		"pairs_total":     pairs,
		"pairs_pruned":    pruned,
		"pairs_validated": s.workValidated.Load(),
		"position_probes": s.workProbes.Load(),
		"prune_ratio":     ratio,
		"optimize": map[string]any{
			"runs":          s.optRuns.Load(),
			"swept_rects":   s.optSwept.Load(),
			"sweep_events":  s.optEvents.Load(),
			"refine_cells":  s.optCells.Load(),
			"refine_solves": s.optSolves.Load(),
			"pair_work":     s.optPairWork.Load(),
		},
	}
}

// New builds a server over an initial population, seeded by
// dynamic.Seed: the candidate locations go into every shard engine
// (ids 0..len-1 on each) and the moving objects to their owning
// shards (dynamic.ShardOf). Either slice may be empty; queries return
// 409 until both populations are non-empty.
func New(cfg Config, objects []*object.Object, candidates []geo.Point) (*Server, error) {
	cfg = cfg.withDefaults()
	engines := make([]*dynamic.Engine, cfg.Shards)
	for i := range engines {
		eng, err := dynamic.New(cfg.PF, cfg.Tau)
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	if err := dynamic.Seed(engines, objects, candidates); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return NewWithShards(cfg, engines, make([]int64, cfg.Shards))
}

// NewFromRecovery builds a server from store.RecoverSharded's
// results: one engine and epoch per shard, stores attached for
// continued logging. cfg.Stores should already hold the recovered
// stores (index-aligned with results); cfg.Shards is taken from the
// result count.
func NewFromRecovery(cfg Config, results []*store.RecoverResult) (*Server, error) {
	engines := make([]*dynamic.Engine, len(results))
	epochs := make([]int64, len(results))
	for i, r := range results {
		engines[i] = r.Engine
		epochs[i] = r.Epoch
	}
	cfg.Shards = len(results)
	return NewWithShards(cfg, engines, epochs)
}

// NewWithShards builds a server around per-shard engines — the
// sharded recovery path: store.RecoverSharded yields one engine and
// epoch per shard, and the server continues from there. Each engine
// must hold exactly the objects ShardOf routes to its index (recovery
// from per-shard streams guarantees this) and all engines must hold
// identical candidate sets.
func NewWithShards(cfg Config, engines []*dynamic.Engine, epochs []int64) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards != len(engines) && cfg.Shards != 1 {
		// cfg.Shards defaulting to 1 while engines carry the real count
		// is the common construction; align rather than reject.
		return nil, fmt.Errorf("server: %d engines for %d shards", len(engines), cfg.Shards)
	}
	cfg.Shards = len(engines)
	if len(epochs) != len(engines) {
		return nil, fmt.Errorf("server: %d epochs for %d engines", len(epochs), len(engines))
	}
	if len(cfg.Stores) > 0 && len(cfg.Stores) != len(engines) {
		return nil, fmt.Errorf("server: %d stores for %d shards", len(cfg.Stores), len(engines))
	}
	traces := cfg.Traces
	if traces == nil {
		traces = obs.NewTraceStore(cfg.TraceKeep)
	}
	s := &Server{
		cfg:         cfg,
		start:       time.Now(),
		inflight:    make(chan struct{}, cfg.MaxInflight),
		indexes:     newIndexCache(cfg.PlanCacheSize),
		mux:         http.NewServeMux(),
		traces:      traces,
		latQuery:    obs.NewHistogram(nil),
		latMutation: obs.NewHistogram(nil),
		latNotify:   obs.NewHistogram(nil),
	}
	s.shards = make([]*shard, len(engines))
	var total int64
	for i, eng := range engines {
		sh := &shard{idx: i, engine: eng, epoch: epochs[i], indexes: s.indexes}
		if len(cfg.Stores) > 0 {
			sh.store = cfg.Stores[i]
		}
		s.shards[i] = sh
		total += epochs[i]
		s.objects.Add(int64(eng.Objects()))
	}
	s.gepoch.Store(total)
	s.recordObjects()
	// Build identity is constant for the process; registering here keeps
	// every server (including tests) exporting it without a cmd hook.
	obs.RegisterBuildInfo(obs.Default())
	if cfg.MaxSubs > 0 {
		// Cannot fail: the backend (the server itself) is always set.
		s.subs, _ = subscribe.NewManager(subscribe.Config{
			MaxSubs:       cfg.MaxSubs,
			Buffer:        cfg.SubBuffer,
			Backend:       s,
			Traces:        s.traces,
			SlowNotify:    cfg.SlowNotify,
			NotifyLatency: s.latNotify,
		})
	}
	if len(cfg.SLOs) > 0 {
		mon, err := obs.NewSLOMonitor(obs.SLOConfig{
			Objectives: cfg.SLOs,
			Source:     s.sloHistogram,
			Registry:   obs.Default(),
			Logger:     slog.Default(),
		})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.slo = mon
		mon.Start()
	}
	s.routes()
	return s, nil
}

// sloHistogram resolves an SLO objective base to the serving histogram
// it is evaluated against.
func (s *Server) sloHistogram(base string) *obs.Histogram {
	switch base {
	case "query":
		return s.latQuery
	case "ingest", "mutation":
		return s.latMutation
	case "notify":
		return s.latNotify
	}
	return nil
}

// Shutdown terminates the subscription manager: every subscription
// receives its terminal event, which ends attached SSE streams and
// long-polls so http.Server.Shutdown can drain them. Call before
// shutting down the HTTP listener; safe to call twice.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.subs != nil {
		s.subs.Close()
	}
	s.slo.Stop()
	return ctx.Err()
}

// DrainSubscriptions blocks until the subscription manager has
// processed every batch note enqueued so far. Test and smoke hook.
func (s *Server) DrainSubscriptions() {
	if s.subs != nil {
		s.subs.Drain()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// maybeCheckpoint spawns a background checkpoint once CheckpointEvery
// mutations have been applied since the last one. At most one
// checkpoint runs at a time; the counter resets when it starts, so a
// slow checkpoint simply delays the next trigger.
func (s *Server) maybeCheckpoint() {
	if len(s.cfg.Stores) == 0 || s.cfg.CheckpointEvery <= 0 {
		return
	}
	if s.sinceCkpt.Add(1) < int64(s.cfg.CheckpointEvery) {
		return
	}
	if !s.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	s.sinceCkpt.Store(0)
	s.ckptWG.Add(1)
	go func() {
		defer s.ckptWG.Done()
		defer s.ckptRunning.Store(false)
		if _, err := s.CheckpointNow(); err != nil {
			slog.Error("background checkpoint failed", "err", err)
		}
	}()
}

// DrainCheckpoints blocks until no background checkpoint is in
// flight. Call before closing the Store.
func (s *Server) DrainCheckpoints() { s.ckptWG.Wait() }

// CheckpointNow checkpoints every shard: each shard's engine state is
// exported under that shard's read lock at the WAL position it covers,
// so each checkpoint is a consistent per-shard cut (cross-shard skew
// is fine — recovery replays each stream independently). Safe to call
// concurrently with queries and mutations; returns shard 0's
// checkpointed sequence number. No-op (0, nil) without stores.
func (s *Server) CheckpointNow() (uint64, error) {
	if len(s.cfg.Stores) == 0 {
		return 0, nil
	}
	start := time.Now()
	var root *obs.Span
	if s.traces != nil {
		root = obs.NewSpan("checkpoint")
	}
	var seq0 uint64
	var err error
	for i, sh := range s.shards {
		if sh.store == nil {
			continue
		}
		cs := root.Child("shard")
		cs.SetAttr("shard", i)
		// The read lock orders the snapshot against mutations: LastSeq
		// read under it is the seq of the last record already applied, so
		// the exported state covers exactly the log prefix through seq.
		sh.mu.RLock()
		st := sh.engine.ExportState()
		epoch := sh.epoch
		seq := sh.store.LastSeq()
		sh.mu.RUnlock()
		cs.SetAttr("seq", seq)
		cs.SetAttr("epoch", epoch)
		cerr := sh.store.Checkpoint(st, epoch, seq)
		cs.End()
		if cerr != nil {
			err = fmt.Errorf("shard %d: %w", i, cerr)
			break
		}
		if i == 0 {
			seq0 = seq
		}
	}
	if s.traces != nil {
		s.traces.AddBackground("checkpoint", start, root, err, s.cfg.SlowQuery)
	}
	if err != nil {
		return 0, err
	}
	return seq0, nil
}

// Epoch returns the current global mutation epoch (Σ shard epochs).
func (s *Server) Epoch() int64 {
	return s.gepoch.Load()
}
