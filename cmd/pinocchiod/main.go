// Command pinocchiod serves PRIME-LS queries over HTTP: it loads (or
// generates) a check-in dataset once, samples candidate locations,
// seeds the incremental influence engine, and then answers queries and
// mutations until interrupted.
//
// Usage:
//
//	pinocchiod -addr :8080 -preset foursquare -scale 0.2 -candidates 400
//	curl -s localhost:8080/v1/query -d '{"tau":0.7,"algorithm":"pin-vo"}'
//
// The API is documented in DESIGN.md §7: POST /v1/query for static
// top-1/top-k solves with per-request PF and algorithm, GET
// /v1/influence/{id} and /v1/best for the engine's incrementally
// maintained view, and POST/DELETE under /v1/objects and /v1/candidates
// for mutations. POST /v1/ingest applies a cross-object position batch
// as one WAL record, and POST /v1/subscribe registers a standing top-k
// query pushed over SSE (DESIGN.md §12). GET /metrics always serves
// the metric registry;
// -obs-addr additionally exposes /debug/vars and /debug/pprof/ on a
// separate listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pinocchio/internal/dataset"
	"pinocchio/internal/dynamic"
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/obs"
	"pinocchio/internal/probfn"
	"pinocchio/internal/server"
	"pinocchio/internal/store"
	"pinocchio/internal/wal"
)

// options collects everything run needs, so tests can call it without
// going through flag parsing.
type options struct {
	addr     string
	addrFile string // write the bound address here (for scripts using :0)

	source     dataset.Source
	candidates int
	seed       int64

	pfName string
	rho    float64
	lambda float64
	tau    float64

	shards        int
	maxInflight   int
	planCacheSize int
	maxTimeout    time.Duration

	dataDir         string // durable state directory ("" = in-memory only)
	fsync           string
	checkpointEvery int

	slowQuery  time.Duration // slow-query log threshold (<= 0 disables)
	slowNotify time.Duration // slow-notify threshold (0 = slow-query)
	slowSync   time.Duration // WAL fsync trace threshold (0 disables)
	traceKeep  int           // retained traces per ring (<= 0 disables)
	sloSpec    string        // latency objectives ("none" disables)

	maxSubs   int // live standing-subscription cap (0 disables)
	subBuffer int // per-subscription event backlog ring size
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", ":8080", "HTTP listen address (use :0 for an ephemeral port)")
	flag.StringVar(&opts.addrFile, "addr-file", "", "write the bound address to this file once listening")
	flag.StringVar(&opts.source.Path, "data", "", "check-in CSV (from datagen); empty generates the preset")
	flag.StringVar(&opts.source.Preset, "preset", "foursquare", "synthetic preset: foursquare or gowalla")
	flag.Float64Var(&opts.source.Scale, "scale", 0.2, "synthetic dataset size factor (>1 grows the preset)")
	flag.Int64Var(&opts.source.SeedOffset, "data-seed", 0, "seed offset added to the preset seed")
	flag.IntVar(&opts.candidates, "candidates", 400, "number of candidate locations sampled from venues")
	flag.Int64Var(&opts.seed, "seed", 1, "candidate sampling seed")
	flag.StringVar(&opts.pfName, "pf", "powerlaw", "engine PF family for /v1/influence and /v1/best")
	flag.Float64Var(&opts.rho, "rho", 0.9, "engine PF behavior factor")
	flag.Float64Var(&opts.lambda, "lambda", 1.0, "engine PF shape factor")
	flag.Float64Var(&opts.tau, "tau", 0.7, "engine influence threshold in (0,1)")
	flag.IntVar(&opts.shards, "shards", 0, "engine shards: object mutations lock one shard, full-vector queries scatter-gather (0 = NumCPU)")
	flag.IntVar(&opts.maxInflight, "max-inflight", 0, "concurrent query cap before shedding with 429 (0 = 2×max(GOMAXPROCS, shards))")
	flag.IntVar(&opts.planCacheSize, "plan-cache", 32, "influence indexes held, one per (shard snapshot, PF), each answering every τ of an interval (0 disables: queries solve live)")
	flag.DurationVar(&opts.maxTimeout, "max-timeout", 30*time.Second, "cap on per-request query deadlines")
	flag.StringVar(&opts.dataDir, "data-dir", "", "durable state directory (WAL + checkpoints); empty serves in-memory only")
	flag.StringVar(&opts.fsync, "fsync", "always", "WAL durability policy: always, group or off")
	flag.IntVar(&opts.checkpointEvery, "checkpoint-every", 10000, "checkpoint after this many mutations (negative disables automatic checkpoints)")
	flag.DurationVar(&opts.slowQuery, "slow-query", 250*time.Millisecond, "log requests slower than this with their phase breakdown (0 disables)")
	flag.DurationVar(&opts.slowNotify, "slow-notify", 0, "log notify pipelines slower than this with their stage breakdown (0 = -slow-query)")
	flag.DurationVar(&opts.slowSync, "slow-sync", 25*time.Millisecond, "retain WAL fsyncs slower than this as background traces (0 disables)")
	flag.IntVar(&opts.traceKeep, "trace-keep", 256, "retained request traces for /v1/debug/traces (0 disables tracing)")
	flag.StringVar(&opts.sloSpec, "slo", "query_p99=5ms,notify_p99=250ms,ingest_p99=2ms", "latency objectives monitored as multi-window burn rates, name_pNN=duration comma-separated (\"none\" disables)")
	flag.IntVar(&opts.maxSubs, "max-subs", 256, "live standing-subscription cap for /v1/subscribe (0 disables subscriptions)")
	flag.IntVar(&opts.subBuffer, "sub-buffer", 16, "per-subscription event backlog before coalescing")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	obsSrv, err := obsFlags.Setup(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pinocchiod:", err)
		os.Exit(1)
	}
	if obsSrv != nil {
		defer obsSrv.Close()
	}
	// The daemon serves /metrics itself, so recording is always on —
	// not only when the sidecar listener runs.
	obs.Enable()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "pinocchiod:", err)
		os.Exit(1)
	}
}

// loadWorkload loads (or generates) the dataset and samples the
// candidate set.
func loadWorkload(opts options) ([]*object.Object, []geo.Point, string, error) {
	start := time.Now()
	ds, err := opts.source.Load()
	if err != nil {
		return nil, nil, "", err
	}
	m := opts.candidates
	if m > len(ds.Venues) {
		m = len(ds.Venues)
	}
	cs, err := dataset.SampleCandidates(ds, m, rand.New(rand.NewSource(opts.seed)))
	if err != nil {
		return nil, nil, "", err
	}
	slog.Info("dataset loaded", "name", ds.Name, "objects", len(ds.Objects),
		"venues", len(ds.Venues), "candidates", len(cs.Points),
		"elapsed", time.Since(start).Round(time.Millisecond))
	return ds.Objects, cs.Points, ds.Name, nil
}

// validateOptions rejects flag values with no sensible reading before
// the (possibly slow) dataset load: the observability knobs use "0
// disables", so a negative value is always a typo — surfacing it at
// startup beats silently disabling a feature the operator asked for.
func validateOptions(opts options) error {
	if opts.shards < 0 {
		return fmt.Errorf("-shards must be >= 0 (got %d); use 0 for one shard per CPU", opts.shards)
	}
	if opts.slowQuery < 0 {
		return fmt.Errorf("-slow-query must be >= 0 (got %v); use 0 to disable the slow-query log", opts.slowQuery)
	}
	if opts.slowNotify < 0 {
		return fmt.Errorf("-slow-notify must be >= 0 (got %v); use 0 to inherit -slow-query", opts.slowNotify)
	}
	if opts.slowSync < 0 {
		return fmt.Errorf("-slow-sync must be >= 0 (got %v); use 0 to disable WAL fsync tracing", opts.slowSync)
	}
	if opts.traceKeep < 0 {
		return fmt.Errorf("-trace-keep must be >= 0 (got %d); use 0 to disable trace retention", opts.traceKeep)
	}
	if opts.planCacheSize < 0 {
		return fmt.Errorf("-plan-cache must be >= 0 (got %d); use 0 to disable the influence indexes", opts.planCacheSize)
	}
	if opts.maxSubs < 0 {
		return fmt.Errorf("-max-subs must be >= 0 (got %d); use 0 to disable subscriptions", opts.maxSubs)
	}
	if opts.subBuffer < 0 {
		return fmt.Errorf("-sub-buffer must be >= 0 (got %d); use 0 for the default", opts.subBuffer)
	}
	return nil
}

// run loads the workload (or recovers it from -data-dir), builds the
// server, and serves until ctx is cancelled, then drains in-flight
// requests and writes a final checkpoint.
func run(ctx context.Context, opts options) error {
	if err := validateOptions(opts); err != nil {
		return err
	}
	if opts.shards == 0 {
		opts.shards = runtime.NumCPU()
	}
	pf, err := probfn.ByName(opts.pfName, opts.rho, opts.lambda)
	if err != nil {
		return err
	}

	cfg := server.Config{
		PF:            pf,
		Tau:           opts.tau,
		MaxInflight:   opts.maxInflight,
		PlanCacheSize: opts.planCacheSize,
		MaxTimeout:    opts.maxTimeout,
		Shards:        opts.shards,
		SlowQuery:     opts.slowQuery,
		SlowNotify:    opts.slowNotify,
		TraceKeep:     opts.traceKeep,
		MaxSubs:       opts.maxSubs,
		SubBuffer:     opts.subBuffer,
	}
	if spec := strings.TrimSpace(opts.sloSpec); spec != "" && spec != "none" && spec != "off" {
		slos, err := obs.ParseSLOs(spec)
		if err != nil {
			return err
		}
		cfg.SLOs = slos
	}
	// The flags' "0 disables" contract maps onto the Config convention
	// where zero selects the default and negative disables.
	if opts.slowQuery == 0 {
		cfg.SlowQuery = -1
	}
	if opts.traceKeep == 0 {
		cfg.TraceKeep = -1
	}
	if opts.planCacheSize == 0 {
		cfg.PlanCacheSize = -1
	}
	if opts.maxSubs == 0 {
		cfg.MaxSubs = -1
	}

	// Feed runtime health (heap, GC pauses, goroutines, scheduler
	// latency) into the registry /metrics serves.
	sampler := obs.StartRuntimeSampler(nil, 0)
	defer sampler.Close()

	// The trace store is created here, before the server exists, so the
	// work that happens between boot and serving — recovery replay, and
	// later every WAL rotation or slow fsync — is debuggable through the
	// same /v1/debug/traces the request traces land in.
	var traces *obs.TraceStore
	if opts.traceKeep > 0 {
		traces = obs.NewTraceStore(opts.traceKeep)
		cfg.Traces = traces
	}

	start := time.Now()
	var srv *server.Server
	var stores []*store.Store
	if opts.dataDir != "" {
		policy, err := wal.ParsePolicy(opts.fsync)
		if err != nil {
			return err
		}
		stores, err = store.OpenSharded(opts.dataDir, opts.shards, store.Options{
			Fsync:    policy,
			Traces:   traces,
			SlowSync: opts.slowSync,
		})
		if err != nil {
			return err
		}
		defer func() {
			for _, st := range stores {
				st.Close()
			}
		}()
		// The tag pins the engine configuration a data directory was
		// built under; recovery refuses a mismatch rather than serving
		// influences computed under different parameters. Per-shard
		// streams additionally carry the shard layout in their tags.
		tag := fmt.Sprintf("pf=%s rho=%g lambda=%g tau=%g",
			opts.pfName, opts.rho, opts.lambda, opts.tau)
		recStart := time.Now()
		results, err := store.RecoverSharded(stores, pf, opts.tau, tag)
		if traces != nil {
			// Retain the boot replay as a background trace with one
			// subtree per shard stream: the per-shard Elapsed and replay
			// counts show which stream dominated a slow boot.
			root := obs.NewSpan("recovery")
			root.SetAttr("shards", opts.shards)
			root.SetAttr("dir", opts.dataDir)
			for i, res := range results {
				cs := root.Child("shard")
				cs.SetAttr("shard", i)
				cs.SetAttr("checkpoint_seq", res.CheckpointSeq)
				cs.SetAttr("seq", res.Seq)
				cs.SetAttr("replayed", res.Replayed)
				cs.SetAttr("rejected", res.Rejected)
				cs.Accumulate(res.Elapsed)
				cs.End()
			}
			traces.AddBackground("recovery", recStart, root, err, opts.slowQuery)
		}
		if err != nil {
			return err
		}
		if results[0].Fresh {
			// First boot on this directory: seed from the dataset —
			// candidates into every shard, objects routed to their
			// owning shards (dynamic.Seed) — and persist the seed
			// population as checkpoint zero per shard, so later boots
			// never re-read the dataset.
			objs, cands, name, err := loadWorkload(opts)
			if err != nil {
				return err
			}
			engines := make([]*dynamic.Engine, len(results))
			for i, res := range results {
				engines[i] = res.Engine
			}
			if err := dynamic.Seed(engines, objs, cands); err != nil {
				return err
			}
			for i, st := range stores {
				if err := st.Checkpoint(results[i].Engine.ExportState(), 0, 0); err != nil {
					return fmt.Errorf("seed checkpoint for shard %d: %w", i, err)
				}
			}
			cfg.DatasetName = name
		} else {
			var epoch, replayed int64
			for _, res := range results {
				epoch += res.Epoch
				replayed += int64(res.Replayed)
			}
			cfg.DatasetName = "recovered:" + opts.dataDir
			slog.Info("state recovered", "dir", opts.dataDir,
				"shards", len(results), "epoch", epoch, "replayed", replayed,
				"elapsed", results[0].Elapsed.Round(time.Millisecond))
		}
		cfg.Stores = stores
		cfg.CheckpointEvery = opts.checkpointEvery
		srv, err = server.NewFromRecovery(cfg, results)
		if err != nil {
			return err
		}
	} else {
		objs, cands, name, err := loadWorkload(opts)
		if err != nil {
			return err
		}
		cfg.DatasetName = name
		srv, err = server.New(cfg, objs, cands)
		if err != nil {
			return err
		}
	}
	slog.Info("engine ready", "pf", pf.Name(), "tau", opts.tau,
		"shards", opts.shards, "durable", len(stores) > 0,
		"elapsed", time.Since(start).Round(time.Millisecond))

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	if opts.addrFile != "" {
		if err := os.WriteFile(opts.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing addr file: %w", err)
		}
	}

	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	slog.Info("serving", "addr", ln.Addr().String())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, let in-flight queries finish
	// within a grace period bounded by the query deadline cap.
	slog.Info("shutting down")
	grace := opts.maxTimeout + 5*time.Second
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	// Terminate subscriptions FIRST: the goodbye events end every open
	// SSE stream and long-poll, so httpSrv.Shutdown can drain the
	// remaining (bounded-deadline) requests instead of hanging on
	// streams that would otherwise stay open forever.
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("subscription shutdown: %w", err)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if len(stores) > 0 {
		// A final checkpoint makes the next boot replay-free.
		srv.DrainCheckpoints()
		seq, err := srv.CheckpointNow()
		if err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		slog.Info("final checkpoint written", "seq", seq)
	}
	return nil
}
