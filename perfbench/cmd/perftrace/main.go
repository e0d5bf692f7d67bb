// Command perftrace is the benchmark's traced run (perfbench --trace 1).
// It makes one timed end-to-end run against the daemon, exactly as
// --trace 0 does, and reads the daemon's own /v1/status and /metrics
// around it; then it replays the same seeded op stream in-process,
// recording a span around every call into a layer's public entry point
// and sending each op through an in-process server.Server too. It
// prints the per-layer metrics as the last line of standard output,
// after a report that names, for each layer metric, the end-to-end
// metric and workload it should move, and where its value came from.
//
// It imports the program's internal packages, which is why it is a
// separate command: an internal rename breaks this run only.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pinocchio/perfbench/load"
)

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "length of the measured window, and budget of the replay")
	flag.Int("trace", 1, "accepted for symmetry with perfbench")
	daemon := flag.String("daemon", "", "pinocchiod binary built from this checkout")
	build := flag.String("build", "", "directory for run scratch and the span file")
	shrink := flag.Float64("shrink", 1, "population factor; below 1 only for the self-test")
	flag.Parse()
	// The in-process server logs slow requests; the report already
	// carries every timing, so keep standard error for failures.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})))
	if err := run(*workload, *seed, *seconds, *daemon, *build, *shrink); err != nil {
		fmt.Fprintln(os.Stderr, "perftrace:", err)
		os.Exit(1)
	}
}

// layerMetric is one per-layer row: its unit, where its value came
// from, and the end-to-end metric and workload it should move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics is the per-layer table. The "moves" column names the
// role metrics; perfbench/README.md maps them to op classes.
var layerMetrics = []layerMetric{
	{"core.plan_build_ms", "ms", "answer_p50_ms on paper-sweep (query) and on monitor (notify)"},
	{"core.solve_ms", "ms", "answer_p50_ms on paper-sweep (query) and on monitor (notify)"},
	{"core.position_probes", "count", "answer_p50_ms on paper-sweep (query)"},
	{"core.validations", "count", "answer_p50_ms on paper-sweep (query)"},
	{"core.prune_ratio", "ratio", "answer_p50_ms on paper-sweep (query)"},
	{"core.ns_per_probe", "ns", "answer_p50_ms on paper-sweep (query)"},
	{"server.answer_handler_ms", "ms", "answer_p50_ms on paper-sweep (query) and on monitor (notify)"},
	{"server.answer_residual_ms", "ms", "answer_p50_ms on paper-sweep (query) and on monitor (notify)"},
	{"server.answer_transport_ms", "ms", "answer_p50_ms on paper-sweep (query) and on monitor (notify)"},
	{"server.side_handler_ms", "ms", "side_p50_ms on paper-sweep (optimize) and on monitor (ingest)"},
	{"server.side_residual_ms", "ms", "side_p50_ms on paper-sweep (optimize) and on monitor (ingest)"},
	{"server.side_transport_ms", "ms", "side_p50_ms on paper-sweep (optimize) and on monitor (ingest)"},
	{"server.plan_hit_ratio", "ratio", "answer_p50_ms on monitor (notify: re-solves share plans); 0 on paper-sweep by design"},
	{"server.result_hit_ratio", "ratio", "answer_p50_ms on the unlisted serve-mixed (query); 0 on paper-sweep by design, and monitor sends no queries"},
	{"server.scatter_imbalance", "ratio", "answer_p50_ms on paper-sweep (query) and on monitor (notify)"},
	{"dynamic.apply_ms", "ms", "side_p50_ms on monitor (ingest)"},
	{"dynamic.validations_per_write", "count", "side_p50_ms on monitor (ingest)"},
	{"store.append_ms", "ms", "side_p50_ms on monitor (ingest)"},
	{"wal.fsync_ms", "ms", "side_p50_ms on monitor (ingest)"},
	{"wal.bytes_per_position", "B", "side_p50_ms on monitor (ingest)"},
	{"subscribe.filter_ratio", "ratio", "answer_p50_ms and answer_tail_ms on monitor (notify)"},
	{"subscribe.stale_ratio", "ratio", "answer_p50_ms and answer_tail_ms on monitor (notify)"},
	{"subscribe.resolves_per_batch", "count", "answer_p50_ms and answer_tail_ms on monitor (notify)"},
	{"subscribe.observe_us", "us", "answer_p50_ms and answer_tail_ms on monitor (notify)"},
	{"subscribe.resolve_ms", "ms", "answer_p50_ms and answer_tail_ms on monitor (notify)"},
	{"optimize.collect_ms", "ms", "side_p50_ms on paper-sweep (optimize)"},
	{"optimize.run_ms", "ms", "side_p50_ms on paper-sweep (optimize)"},
	{"optimize.refine_cells", "count", "side_p50_ms on paper-sweep (optimize)"},
	{"optimize.pair_work", "count", "side_p50_ms on paper-sweep (optimize)"},
}

func run(workload string, seed int64, seconds float64, daemon, build string, shrink float64) error {
	if daemon == "" || build == "" {
		return fmt.Errorf("-daemon and -build are required (run perfbench/run.sh from the repository root)")
	}
	work := filepath.Join(build, fmt.Sprintf("trace-%s-%d-%d", workload, seed, os.Getpid()))
	out, err := load.Run(load.Config{
		Workload: workload, Seed: seed, Seconds: seconds, Shrink: shrink, Daemon: daemon, WorkDir: work,
	})
	// A window whose generator fell behind still leaves valid daemon
	// counters and replay spans; the report says so instead of failing.
	timedValid := !errors.Is(err, load.ErrGeneratorBehind)
	if err != nil && timedValid {
		return fmt.Errorf("timed run: %w", err)
	}
	spec := out.Spec

	r, err := newReplay(filepath.Join(work, "replay"), out.Dataset, out.Cands)
	if err != nil {
		return fmt.Errorf("replay set-up: %w", err)
	}
	defer r.close()
	for _, q := range out.Subs {
		if err := r.subscribe(q); err != nil {
			return fmt.Errorf("replay subscribe: %w", err)
		}
	}
	inprocBefore, err := r.status()
	if err != nil {
		return err
	}
	replayed, err := r.run(out.Ops, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := r.probe(out.Dataset, seed); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	inproc, err := r.status()
	if err != nil {
		return err
	}

	values, sources := layerValues(spec, out, r, inprocBefore, inproc)
	spanFile := filepath.Join(build, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	if err := r.rec.write(spanFile); err != nil {
		return err
	}

	rows := []map[string]any{}
	metrics := map[string]any{}
	for _, m := range layerMetrics {
		rows = append(rows, map[string]any{
			"metric": m.name, "value": values[m.name], "unit": m.unit,
			"source": sources[m.name], "should_move": m.moves,
		})
		metrics[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}
	self := r.rec.selfTimes()
	selfMS := map[string]any{}
	for name, xs := range self {
		selfMS[name] = map[string]any{"calls": len(xs), "self_ms_p50": load.Median(xs), "self_ms_total": sum(xs)}
	}
	report := map[string]any{
		"workload": spec.Name, "seed": seed,
		"end_to_end": out.Report, "end_to_end_window_valid": timedValid,
		"replay":     map[string]any{"ops_replayed": replayed, "ops_in_stream": len(out.Ops), "span_file": spanFile},
		"self_times": selfMS,
		"layers":     rows,
	}
	b, _ := json.MarshalIndent(report, "", "  ")
	fmt.Printf("report %s\n", b)
	os.RemoveAll(work)
	b, err = json.Marshal(map[string]any{
		"correct": out.Correct, "attempted": out.Attempted, "failed": out.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// layerValues derives every per-layer metric. Span timings come from
// the replay; counters from the daemon's /v1/status and /metrics deltas
// over the timed run when the workload exercises that layer, and from
// the replay (its return values, or the in-process server's status)
// when only the probe does.
func layerValues(spec load.Spec, out *load.Outcome, r *replay, inprocBefore, inproc map[string]any) (map[string]float64, map[string]string) {
	v := map[string]float64{}
	src := map[string]string{}
	self := r.rec.selfTimes()
	set := func(name, source string, x float64) { v[name], src[name] = x, source }

	// core: plan builds and solves, from queries or re-solves.
	var probes, vals, pruneSum float64
	for _, st := range r.stats {
		probes += float64(st.PositionProbes)
		vals += float64(st.Validated)
		pruneSum += st.PruneRatio()
	}
	n := float64(max(len(r.stats), 1))
	solves := append(append(append([]float64(nil), self["core.Solve"]...), self["core.PinocchioParallel"]...), self["core.PinocchioVOTopT"]...)
	set("core.plan_build_ms", "replay spans", load.Median(self["core.BuildPlan"]))
	set("core.solve_ms", "replay spans", load.Median(solves))
	set("core.position_probes", "replay Result.Stats", probes/n)
	set("core.validations", "replay Result.Stats", vals/n)
	set("core.prune_ratio", "replay Result.Stats", pruneSum/n)
	set("core.ns_per_probe", "replay spans / Result.Stats", ratio((sum(self["core.BuildPlan"])+sum(solves))*1e6, probes))

	// server: handler time per role, residual against the same op's
	// layer calls, transport against the daemon's end-to-end median.
	layerNames := []string{"probfn.ByName", "dynamic.SnapshotObjects", "core.NewCandTree", "core.BuildPlan",
		"core.Solve", "core.PinocchioParallel", "core.PinocchioVOTopT", "optimize.CollectRects", "optimize.Optimize",
		"store.Record.Encode", "store.Store.Append", "store.Record.Apply"}
	direct := r.rec.opSums(layerNames...)
	role := func(prefix, class string) {
		handlerName := "server.ServeHTTP"
		if class == "notify" {
			handlerName = "server.SolveTopK"
		}
		handler := r.rec.opSums(handlerName)
		var hs, res, e2e []float64
		for op, h := range handler {
			if opClass(out.Ops, op) != class {
				continue
			}
			hs = append(hs, h)
			res = append(res, h-direct[op])
			if ms, ok := out.OpLatencyMS[op]; ok {
				e2e = append(e2e, ms)
			}
		}
		source := "replay spans"
		if !opsHave(out.Ops, class) {
			source = "probe spans"
		}
		set("server."+prefix+"_handler_ms", source, load.Median(hs))
		set("server."+prefix+"_residual_ms", source, load.Median(res))
		// Transport sets the daemon's end-to-end median against the
		// handler median over the same ops; notifications pair with no
		// single handler call, so they use the whole class.
		if class == "notify" {
			e2e = []float64{out.ClassP50MS[class]}
		}
		set("server."+prefix+"_transport_ms", "daemon e2e p50 - "+source, load.Median(e2e)-load.Median(hs))
	}
	role("answer", spec.AnswerClass)
	role("side", spec.SideClass)

	d0, d1 := out.StatusBefore, out.StatusAfter
	delta := func(path ...string) float64 { return load.Num(d1, path...) - load.Num(d0, path...) }
	ph, pm := promDelta(out, "_plan_cache_hits_total"), promDelta(out, "_plan_cache_misses_total")
	set("server.plan_hit_ratio", "daemon /metrics plan-cache counters", ratio(ph, ph+pm))
	set("server.result_hit_ratio", "daemon responses' cached flag", ratio(float64(out.ResultHits), float64(out.Answered)))
	set("server.scatter_imbalance", "daemon /v1/status shards[].scatter", scatterImbalance(d0, d1))

	// dynamic, store and wal.
	set("dynamic.apply_ms", "replay spans", load.Median(self["store.Record.Apply"]))
	set("store.append_ms", "replay spans", load.Median(self["store.Store.Append"]))
	if out.Writes > 0 {
		set("dynamic.validations_per_write", "daemon /v1/status engine_stats", delta("engine_stats", "Validations")/float64(out.Writes))
		set("wal.fsync_ms", "daemon /v1/status latency.wal_sync", load.Num(d1, "latency", "wal_sync", "p50_ms"))
		set("wal.bytes_per_position", "daemon /v1/status data_dir_bytes", delta("data_dir_bytes")/float64(max(out.Positions, 1)))
	} else {
		set("dynamic.validations_per_write", "probe engine stats", load.Mean(r.valsPerW))
		set("wal.fsync_ms", "probe, in-process /v1/status latency.wal_sync", load.Num(inproc, "latency", "wal_sync", "p50_ms"))
		set("wal.bytes_per_position", "probe, in-process /v1/status data_dir_bytes",
			(load.Num(inproc, "data_dir_bytes")-load.Num(inprocBefore, "data_dir_bytes"))/float64(max(r.positions, 1)))
	}

	// subscribe.
	if len(out.Subs) > 0 {
		sup, res, stale := delta("subscriptions", "checks_suppressed"), delta("subscriptions", "checks_resolved"), delta("subscriptions", "checks_stale")
		set("subscribe.filter_ratio", "daemon /v1/status subscriptions", ratio(sup, sup+res))
		set("subscribe.stale_ratio", "daemon /v1/status subscriptions", ratio(stale, stale+sup+res))
		set("subscribe.resolves_per_batch", "daemon /v1/status subscriptions", ratio(res, float64(out.Writes)))
	} else {
		set("subscribe.filter_ratio", "probe guard results", ratio(float64(r.suppressed), float64(r.observed)))
		set("subscribe.stale_ratio", "probe (a sequential replay never coalesces)", 0)
		set("subscribe.resolves_per_batch", "probe guard results", ratio(float64(r.observed-r.suppressed), float64(r.batches)))
	}
	subSrc := "replay spans"
	if len(out.Subs) == 0 {
		subSrc = "probe spans"
	}
	var resolve []float64
	for _, s := range r.rec.opSums("subscribe.resolve") {
		resolve = append(resolve, s)
	}
	set("subscribe.observe_us", subSrc, load.Median(self["dynamic.TopKGuard.Observe"])*1000)
	set("subscribe.resolve_ms", subSrc, load.Median(resolve))

	// optimize.
	optSrc := "replay spans / optimize.Cost"
	if !opsHave(out.Ops, "optimize") {
		optSrc = "probe spans / optimize.Cost"
	}
	var cells, work float64
	for _, c := range r.optCosts {
		cells += float64(c.RefineCells)
		work += float64(c.PairWork())
	}
	no := float64(max(len(r.optCosts), 1))
	set("optimize.collect_ms", optSrc, load.Median(self["optimize.CollectRects"]))
	set("optimize.run_ms", optSrc, load.Median(self["optimize.Optimize"]))
	set("optimize.refine_cells", optSrc, cells/no)
	set("optimize.pair_work", optSrc, work/no)
	return v, src
}

func opClass(ops []load.Op, op int) string {
	if op >= resolveOpBase {
		return "notify"
	}
	if op < 0 || op >= len(ops) {
		return "" // a probe op, which no role counts
	}
	return ops[op].Class()
}

func opsHave(ops []load.Op, class string) bool {
	if class == "notify" {
		return true
	}
	for i := range ops {
		if ops[i].Class() == class {
			return true
		}
	}
	return false
}

// promDelta is the change across the timed run of the daemon's
// unlabelled counter family whose name ends in suffix. The program
// declares each metric name exactly once (a test in internal/obs
// enforces it), so the benchmark finds the family by its suffix
// instead of spelling the name a second time.
func promDelta(out *load.Outcome, suffix string) float64 {
	return promValue(out.PromAfter, suffix) - promValue(out.PromBefore, suffix)
}

func promValue(text, suffix string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || !strings.HasSuffix(f[0], suffix) {
			continue
		}
		if x, err := strconv.ParseFloat(f[1], 64); err == nil {
			total += x
		}
	}
	return total
}

// scatterImbalance is the busiest shard's scatter time over the mean
// shard's, across the timed run.
func scatterImbalance(before, after map[string]any) float64 {
	b, _ := load.Dig(before, "shards", "scatter").([]any)
	a, _ := load.Dig(after, "shards", "scatter").([]any)
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	var mx, total float64
	for i := range a {
		am, _ := a[i].(map[string]any)
		bm, _ := b[i].(map[string]any)
		d := load.Num(am, "total_ms") - load.Num(bm, "total_ms")
		mx = max(mx, d)
		total += d
	}
	return ratio(mx, total/float64(len(a)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
