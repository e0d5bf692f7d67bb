package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"pinocchio/internal/core"
	"pinocchio/internal/dynamic"
	"pinocchio/internal/geo"
	"pinocchio/internal/obs"
	"pinocchio/internal/probfn"
	"pinocchio/internal/store"
	"pinocchio/internal/subscribe"
	"pinocchio/internal/wal"
)

// PointJSON is a planar position on the wire.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// QueryRequest is the POST /v1/query body. Zero values select the
// paper's defaults (PIN-VO, power-law ρ=0.9 λ=1.0); Tau is required.
type QueryRequest struct {
	// Algorithm selects the solver: na, pin, pin-vo, pin-vo*, pin-par.
	Algorithm string `json:"algorithm"`
	// PF names the probability family (probfn.Families); Rho is the
	// probability at distance zero, Lambda the family's shape
	// parameter (decay exponent, range, σ, …).
	PF     string  `json:"pf"`
	Rho    float64 `json:"rho"`
	Lambda float64 `json:"lambda"`
	// Tau is the influence threshold, required in (0,1).
	Tau float64 `json:"tau"`
	// K requests the top-k most influential candidates; 0 or 1 solves
	// top-1.
	K int `json:"k"`
	// Workers is the pin-par worker count per shard; 0 selects
	// GOMAXPROCS, negative values are rejected with 400.
	Workers int `json:"workers"`
	// TimeoutMs bounds the solve; capped at the server's MaxTimeout,
	// which also applies when 0. Negative values are rejected with 400.
	TimeoutMs int `json:"timeout_ms"`
	// Explain runs the named solver live with EXPLAIN accounting: the
	// response gains an "explain" block with the per-rule prune
	// breakdown, the per-candidate verdict table and plan provenance,
	// and the same counters land on the retained trace.
	Explain bool `json:"explain"`
}

// CandidateJSON is one candidate with its influence on the wire.
type CandidateJSON struct {
	ID        int     `json:"id"`
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	Influence int     `json:"influence"`
}

// QueryResponse is the POST /v1/query result.
type QueryResponse struct {
	Best       CandidateJSON   `json:"best"`
	TopK       []CandidateJSON `json:"top_k,omitempty"`
	Algorithm  string          `json:"algorithm"`
	PF         string          `json:"pf"`
	Tau        float64         `json:"tau"`
	Objects    int             `json:"objects"`
	Candidates int             `json:"candidates"`
	Epoch      int64           `json:"epoch"`
	ElapsedMs  float64         `json:"elapsed_ms"`
	Stats      core.Stats      `json:"stats"`
	// TraceID is this request's trace ID (also echoed in the
	// X-Request-ID response header); look the request up at
	// /v1/debug/traces/{trace_id} while it is retained.
	TraceID string `json:"trace_id,omitempty"`
	// Explain is present only when the request set "explain": true.
	Explain *ExplainJSON `json:"explain,omitempty"`
}

// ExplainJSON is the EXPLAIN block of a query response: the core.Cost
// wire counters of this request's live solve inlined, the derived
// prune ratio, and the per-candidate verdict table.
type ExplainJSON struct {
	core.Cost
	PruneRatio    float64            `json:"prune_ratio"`
	Verdicts      []core.CandVerdict `json:"verdicts,omitempty"`
	VerdictCounts map[string]int     `json:"verdict_counts,omitempty"`
}

// explainJSON shapes a solve's ledger for the wire; nil in, nil out.
func explainJSON(c *core.Cost) *ExplainJSON {
	if c == nil {
		return nil
	}
	return &ExplainJSON{
		Cost:          *c,
		PruneRatio:    c.PruneRatio(),
		Verdicts:      c.Verdicts(),
		VerdictCounts: c.VerdictCounts(),
	}
}

// errorJSON is the error body every non-2xx response carries.
type errorJSON struct {
	Error string `json:"error"`
}

// routes mounts every endpoint, wrapped with HTTP metrics and request
// telemetry. The routeKind decides how much: queries and mutations get
// a retained trace and feed the latency percentiles, everything else
// only gets a trace ID.
func (s *Server) routes() {
	s.route("GET /healthz", kindOther, s.handleHealthz)
	s.route("GET /v1/status", kindOther, s.handleStatus)
	s.route("POST /v1/query", kindQuery, s.handleQuery)
	s.route("POST /v1/optimize", kindOptimize, s.handleOptimize)
	s.route("GET /v1/best", kindOther, s.handleBest)
	s.route("GET /v1/influence/{id}", kindOther, s.handleInfluence)
	s.route("POST /v1/objects", kindMutation, s.handleAddObject)
	s.route("PUT /v1/objects/{id}", kindMutation, s.handleUpdateObject)
	s.route("DELETE /v1/objects/{id}", kindMutation, s.handleRemoveObject)
	s.route("POST /v1/objects/{id}/positions", kindMutation, s.handleAddPositions)
	s.route("POST /v1/candidates", kindMutation, s.handleAddCandidate)
	s.route("DELETE /v1/candidates/{id}", kindMutation, s.handleRemoveCandidate)
	s.route("POST /v1/ingest", kindMutation, s.handleIngest)
	s.route("POST /v1/subscribe", kindOther, s.handleSubscribe)
	s.route("GET /v1/subscriptions/{id}", kindOther, s.handleSubGet)
	s.route("GET /v1/subscriptions/{id}/events", kindOther, s.handleSubEvents)
	s.route("GET /v1/subscriptions/{id}/poll", kindOther, s.handleSubPoll)
	s.route("DELETE /v1/subscriptions/{id}", kindOther, s.handleSubCancel)
	s.route("GET /v1/debug/traces", kindOther, s.handleTraceList)
	s.route("GET /v1/debug/traces/{id}", kindOther, s.handleTraceGet)
	s.mux.Handle("GET /metrics", obs.Default().Handler())
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// streaming handlers (SSE) can flush through the metrics wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// route registers a pattern with per-route request metrics and the
// telemetry middleware: resolve the trace ID (client-supplied or
// generated), echo it, and — for query/mutation routes — open a trace
// record the handler annotates through the request context and
// finishTrace retains once the response is written.
func (s *Server) route(pattern string, kind routeKind, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := requestID(r)
		w.Header().Set("X-Request-ID", id)
		ctx := obs.WithTraceID(r.Context(), id)
		var tr *obs.Trace
		if kind != kindOther {
			tr = &obs.Trace{ID: id, Kind: kind.traceKind(), Route: pattern, Start: start}
			ctx = withTrace(ctx, tr)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(ctx))
		dur := time.Since(start)
		recordHTTP(pattern, sw.code, dur)
		switch {
		case (kind == kindQuery || kind == kindOptimize) && sw.code == http.StatusOK:
			s.latQuery.Observe(dur.Seconds())
		case kind == kindMutation && sw.code < 300:
			s.latMutation.Observe(dur.Seconds())
		}
		if tr != nil {
			s.finishTrace(tr, sw.code, dur)
		}
	})
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr renders a JSON error body.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// decodeJSON parses the request body into v, bounding its size and
// rejecting unknown fields (a typoed parameter should fail loudly, not
// silently run with defaults). It writes the error response itself and
// reports whether decoding succeeded.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeErr(w, http.StatusBadRequest, "decoding body: %v", err)
		return false
	}
	return true
}

// pathID parses the {id} path segment.
func pathID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad id %q: want an integer", r.PathValue("id"))
		return 0, false
	}
	return id, true
}

// engineErrCode maps engine errors to HTTP statuses: unknown ids are
// 404, duplicate inserts 409, bad payloads 400. A WAL append failure
// is a server-side durability fault, not a client error: 500.
func engineErrCode(err error) int {
	switch {
	case errors.Is(err, store.ErrAppend):
		return http.StatusInternalServerError
	case errors.Is(err, dynamic.ErrUnknownObject), errors.Is(err, dynamic.ErrUnknownCandidate):
		return http.StatusNotFound
	case errors.Is(err, dynamic.ErrDuplicateObject):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	var objects, candidates int
	var stats dynamic.Stats
	planEntries, planBytes := s.indexes.stats()
	shardEpochs := make([]int64, len(s.shards))
	shardObjects := make([]int, len(s.shards))
	shardScatter := make([]map[string]any, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		shardObjects[i] = sh.engine.Objects()
		shardEpochs[i] = sh.epoch
		objects += sh.engine.Objects()
		if i == 0 {
			candidates = sh.engine.Candidates()
		}
		stats.Add(sh.engine.Stats())
		sh.mu.RUnlock()
		// Straggler attribution: which shard's sub-solves dominate the
		// scatter path, cumulative since boot.
		const ms = float64(time.Millisecond)
		solves := sh.scatterSolves.Load()
		total := float64(sh.scatterNS.Load())
		meanMS := 0.0
		if solves > 0 {
			meanMS = total / float64(solves) / ms
		}
		shardScatter[i] = map[string]any{
			"shard":    i,
			"solves":   solves,
			"total_ms": total / ms,
			"mean_ms":  meanMS,
			"max_ms":   float64(sh.scatterMaxNS.Load()) / ms,
		}
	}
	body := map[string]any{
		"dataset":        s.cfg.DatasetName,
		"objects":        objects,
		"candidates":     candidates,
		"epoch":          s.gepoch.Load(),
		"engine_pf":      s.cfg.PF.Name(),
		"engine_tau":     s.cfg.Tau,
		"engine_stats":   stats,
		"plan_entries":   planEntries,
		"plan_bytes":     planBytes,
		"max_inflight":   s.cfg.MaxInflight,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"durable":        len(s.cfg.Stores) > 0,
		"trace_entries":  s.traces.Len(),
		"build":          obs.ReadBuildInfo(),
		"work":           s.workStatus(),
		"shards": map[string]any{
			"count":          len(s.shards),
			"epochs":         shardEpochs,
			"objects":        shardObjects,
			"scatter_solves": s.scatterSolves.Load(),
			"scatter_merges": s.scatterMerges.Load(),
			"scatter":        shardScatter,
		},
		// The admission block makes shed decisions explainable: the cap,
		// what it derives from, and the live pressure against it.
		"admission": map[string]any{
			"max_inflight": s.cfg.MaxInflight,
			"derived_from": "2 x max(gomaxprocs, shards)",
			"gomaxprocs":   runtime.GOMAXPROCS(0),
			"shards":       len(s.shards),
			"inflight":     s.inflightNow.Load(),
			"shed_total":   s.shedTotal.Load(),
		},
	}
	if s.subs != nil {
		body["subscriptions"] = s.subs.Stats()
	}
	if s.slo != nil {
		body["slo"] = s.slo.Status()
	}
	latency := map[string]any{
		"query":    quantilesMS(s.latQuery),
		"mutation": quantilesMS(s.latMutation),
		"notify":   quantilesMS(s.latNotify),
	}
	if len(s.cfg.Stores) > 0 {
		// Aggregates over the per-shard streams; with one shard these
		// are exactly the legacy single-stream values.
		var walSeq, ckptSeq uint64
		var bytes int64
		for _, st := range s.cfg.Stores {
			walSeq += st.LastSeq()
			ckptSeq += st.LastCheckpointSeq()
			bytes += st.SizeBytes()
		}
		body["wal_seq"] = walSeq
		body["last_checkpoint_seq"] = ckptSeq
		body["data_dir_bytes"] = bytes
		// The durability layer records into the default registry by
		// name; Histogram here is get-or-create, so a freshly booted
		// server reports zero counts rather than omitting the keys.
		r := obs.Default()
		latency["wal_sync"] = quantilesMS(r.Histogram(wal.MetricFsyncSeconds,
			"WAL fsync latency in seconds.", wal.FsyncBuckets, nil))
		latency["checkpoint"] = quantilesMS(r.Histogram(store.MetricCheckpointSeconds,
			"Checkpoint write wall time in seconds.", obs.DefBuckets, nil))
	}
	body["latency"] = latency
	writeJSON(w, http.StatusOK, body)
}

// handleTraceList serves GET /v1/debug/traces: retained trace
// summaries (no span trees), newest first, filterable by min_ms,
// outcome and algorithm; limit defaults to 100.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeErr(w, http.StatusNotFound, "tracing disabled (trace-keep <= 0)")
		return
	}
	q := r.URL.Query()
	f := obs.TraceFilter{Outcome: q.Get("outcome"), Algorithm: q.Get("algorithm"), Kind: q.Get("kind"), Limit: 100}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad min_ms %q: want a number", v)
			return
		}
		f.MinMS = ms
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad limit %q: want an integer", v)
			return
		}
		f.Limit = n
	}
	traces := s.traces.List(f)
	out := make([]*obs.Trace, len(traces))
	for i, t := range traces {
		out[i] = t.Summary()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces":   out,
		"retained": s.traces.Len(),
	})
}

// handleTraceGet serves GET /v1/debug/traces/{id}: one retained trace
// with its full span tree.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeErr(w, http.StatusNotFound, "tracing disabled (trace-keep <= 0)")
		return
	}
	id := r.PathValue("id")
	t, ok := s.traces.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no retained trace %q", id)
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// algorithms maps the wire names to solvers; pin-par has no
// core.Algorithm and is dispatched by solveLive.
var algorithms = map[string]core.Algorithm{
	"na":      core.AlgNA,
	"pin":     core.AlgPinocchio,
	"pin-vo":  core.AlgPinocchioVO,
	"pin-vo*": core.AlgPinocchioVOStar,
}

// timeoutFor resolves a request's timeout_ms against MaxTimeout,
// writing a 400 for a negative value: 0 selects zero, and any value
// past the cap selects the cap. ms is compared with the cap before it
// becomes a Duration, so a huge value cannot overflow into a negative,
// already expired deadline.
func (s *Server) timeoutFor(w http.ResponseWriter, ms int, zero time.Duration) (time.Duration, bool) {
	switch {
	case ms < 0:
		writeErr(w, http.StatusBadRequest, "timeout_ms %d must be non-negative", ms)
		return 0, false
	case ms == 0:
		return zero, true
	case int64(ms) > s.cfg.MaxTimeout.Milliseconds():
		return s.cfg.MaxTimeout, true
	}
	return time.Duration(ms) * time.Millisecond, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Admission control: shed immediately rather than queue — a
	// client-visible 429 beats an invisible goroutine pile-up.
	select {
	case s.inflight <- struct{}{}:
		recordInflight(+1)
		s.inflightNow.Add(1)
		defer func() {
			<-s.inflight
			recordInflight(-1)
			s.inflightNow.Add(-1)
		}()
	default:
		recordShed()
		s.shedTotal.Add(1)
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests,
			"server at capacity (%d queries in flight)", s.cfg.MaxInflight)
		return
	}

	req := QueryRequest{
		Algorithm: "pin-vo",
		PF:        subscribe.DefaultPF,
		Rho:       subscribe.DefaultRho,
		Lambda:    subscribe.DefaultLambda,
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if _, ok := algorithms[req.Algorithm]; !ok && req.Algorithm != "pin-par" {
		writeErr(w, http.StatusBadRequest,
			"unknown algorithm %q (want na, pin, pin-vo, pin-vo* or pin-par)", req.Algorithm)
		return
	}
	if req.Workers < 0 {
		writeErr(w, http.StatusBadRequest,
			"workers %d must be non-negative (0 selects GOMAXPROCS)", req.Workers)
		return
	}
	pf, err := probfn.ByName(req.PF, req.Rho, req.Lambda)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !(req.Tau > 0 && req.Tau < 1) {
		writeErr(w, http.StatusBadRequest, "tau %v outside (0,1)", req.Tau)
		return
	}
	if req.K < 0 {
		writeErr(w, http.StatusBadRequest, "k %d must be non-negative", req.K)
		return
	}
	if req.K > 1 && req.Algorithm == "pin-vo*" {
		writeErr(w, http.StatusBadRequest, "top-k is not supported for pin-vo*")
		return
	}
	timeout, ok := s.timeoutFor(w, req.TimeoutMs, s.cfg.MaxTimeout)
	if !ok {
		return
	}

	tr := traceFrom(r.Context())
	tr.SetAlgorithm(req.Algorithm)

	sn := s.snapshotNow()
	tr.SetEpoch(sn.epoch)
	if len(sn.objects) == 0 || len(sn.candPts) == 0 {
		writeErr(w, http.StatusConflict,
			"nothing to query: %d objects, %d candidates", len(sn.objects), len(sn.candPts))
		return
	}

	// Basing the deadline on the request context also aborts the solve
	// when the client disconnects.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	resp, err := s.solveQuery(ctx, sn, &req, pf)
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			recordQuery(req.Algorithm, elapsed)
			writeErr(w, http.StatusServiceUnavailable,
				"query aborted after %v: %v", elapsed.Round(time.Millisecond), err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "solve failed: %v", err)
		return
	}
	resp.ElapsedMs = float64(elapsed) / float64(time.Millisecond)
	recordQuery(req.Algorithm, elapsed)
	s.addWork(&resp.Stats)
	writeJSON(w, http.StatusOK, resp)
}

// solveQuery runs the selected solver over the snapshot and shapes the
// response. pin, pin-vo, pin-par and top-k queries are answered by
// indexInfluences: from the shard snapshots' engine vectors at the
// engine's PF/τ, from the per-shard influence indexes otherwise;
// EXPLAIN requests, NA and PIN-VO* (and every query when the index
// cache is disabled) run the solver live. Indices into the snapshot's
// candidate slice are translated back to engine candidate ids.
func (s *Server) solveQuery(ctx context.Context, sn *snapshot, req *QueryRequest, pf probfn.Func) (*QueryResponse, error) {
	tr := traceFrom(ctx)
	root := tr.StartSpan("query")
	resp := &QueryResponse{
		Algorithm:  req.Algorithm,
		PF:         pf.Name(),
		Tau:        req.Tau,
		Objects:    len(sn.objects),
		Candidates: len(sn.candPts),
		Epoch:      sn.epoch,
		TraceID:    obs.TraceIDFrom(ctx),
	}
	mk := func(idx, inf int) CandidateJSON {
		return CandidateJSON{
			ID:        sn.candIDs[idx],
			X:         sn.candPts[idx].X,
			Y:         sn.candPts[idx].Y,
			Influence: inf,
		}
	}
	topK := func(influences []int) {
		k := min(req.K, len(influences))
		for _, rk := range core.Rank(influences)[:k] {
			resp.TopK = append(resp.TopK, mk(rk.Index, rk.Influence))
		}
	}

	if s.indexServes(req.Algorithm, req.Explain) {
		inf, st, err := s.indexInfluences(ctx, sn, pfKey(req.PF, req.Rho, req.Lambda), pf, req.Tau, root)
		if err != nil {
			return nil, err
		}
		resp.Stats = st
		resp.Best = mk(core.Argmax(inf))
		if req.K > 1 {
			topK(inf)
		}
		return resp, nil
	}

	p := &core.Problem{
		Objects:    sn.objects,
		Candidates: sn.candPts,
		PF:         pf,
		Tau:        req.Tau,
		Ctx:        ctx,
		Obs:        root,
		TraceID:    resp.TraceID,
	}
	if req.Explain {
		// Only explain'd requests carry a ledger: the served path with
		// explain off must stay allocation-free for the accounting
		// layer.
		p.Cost = &core.Cost{}
		p.Cost.EnableVerdicts(len(sn.candPts))
	}

	// Top-k with the VO machinery keeps the bound-ordered early exit;
	// the exact algorithms rank their full influence vector instead.
	if req.K > 1 && req.Algorithm == "pin-vo" {
		ranked, st, err := core.PinocchioVOTopT(p, req.K)
		if err != nil {
			return nil, err
		}
		resp.Stats = *st
		for _, rk := range ranked {
			resp.TopK = append(resp.TopK, mk(rk.Index, rk.Influence))
		}
		if len(resp.TopK) > 0 {
			resp.Best = resp.TopK[0]
		}
		resp.Explain = explainJSON(p.Cost)
		return resp, nil
	}

	res, err := s.solveLive(sn, req.Algorithm, req.Workers, p)
	if err != nil {
		return nil, err
	}
	resp.Stats = res.Stats
	resp.Best = mk(res.BestIndex, res.BestInfluence)
	if req.K > 1 {
		if res.Influences == nil {
			return nil, fmt.Errorf("server: %s computed no influence vector", req.Algorithm)
		}
		topK(res.Influences)
	}
	resp.Explain = explainJSON(p.Cost)
	return resp, nil
}

func (s *Server) handleBest(w http.ResponseWriter, r *http.Request) {
	// The global winner is the argmax of the summed shard vectors of one
	// snapshot, so the answer and its epoch describe one population;
	// candIDs ascend, so Argmax's smallest-index tie-break is the
	// engine's smallest id.
	sn := s.snapshotNow()
	if len(sn.candIDs) == 0 {
		writeErr(w, http.StatusNotFound, "no candidates registered")
		return
	}
	inf := make([]int, len(sn.candIDs))
	for _, ps := range sn.parts {
		for c, v := range ps.inf {
			inf[c] += v
		}
	}
	idx, bestInf := core.Argmax(inf)
	pt := sn.candPts[idx]
	body := map[string]any{
		"best":  CandidateJSON{ID: sn.candIDs[idx], X: pt.X, Y: pt.Y, Influence: bestInf},
		"pf":    s.cfg.PF.Name(),
		"tau":   s.cfg.Tau,
		"epoch": sn.epoch,
	}
	// ?explain=true re-derives the engine view with a static solve at
	// the engine's PF/τ over the same snapshot, attaching the same Cost
	// ledger /v1/query carries — the prune breakdown and verdict table
	// for the current population.
	if v := r.URL.Query().Get("explain"); v != "" {
		want, err := strconv.ParseBool(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad explain %q: want a boolean", v)
			return
		}
		if want {
			if len(sn.objects) == 0 {
				writeErr(w, http.StatusConflict, "nothing to explain: 0 objects")
				return
			}
			cost := &core.Cost{}
			cost.EnableVerdicts(len(sn.candPts))
			_, err := core.Solve(core.AlgPinocchio, &core.Problem{
				Objects:    sn.objects,
				Candidates: sn.candPts,
				PF:         s.cfg.PF,
				Tau:        s.cfg.Tau,
				Ctx:        r.Context(),
				Cost:       cost,
				TraceID:    obs.TraceIDFrom(r.Context()),
			})
			if err != nil {
				writeErr(w, http.StatusInternalServerError, "explain solve failed: %v", err)
				return
			}
			body["explain"] = explainJSON(cost)
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleInfluence(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	// Influence is additive over the object partition: sum the shard
	// vectors of one snapshot, which also fixes the reported epoch.
	sn := s.snapshotNow()
	i := sn.candIndex(id)
	if i < 0 {
		writeErr(w, http.StatusNotFound, "%v: %d", dynamic.ErrUnknownCandidate, id)
		return
	}
	inf := 0
	for _, ps := range sn.parts {
		inf += ps.inf[i]
	}
	pt := sn.candPts[i]
	writeJSON(w, http.StatusOK, map[string]any{
		"candidate": CandidateJSON{ID: id, X: pt.X, Y: pt.Y, Influence: inf},
		"objects":   len(sn.objects),
		"pf":        s.cfg.PF.Name(),
		"tau":       s.cfg.Tau,
		"epoch":     sn.epoch,
	})
}

// objectRequest is the POST /v1/objects and PUT /v1/objects/{id} body.
type objectRequest struct {
	ID        int         `json:"id"`
	Positions []PointJSON `json:"positions"`
}

// positionsRequest is the POST /v1/objects/{id}/positions body: either
// a single point or a batch.
type positionsRequest struct {
	X         *float64    `json:"x,omitempty"`
	Y         *float64    `json:"y,omitempty"`
	Positions []PointJSON `json:"positions,omitempty"`
}

// toPoints converts wire positions.
func toPoints(ps []PointJSON) []geo.Point {
	out := make([]geo.Point, len(ps))
	for i, p := range ps {
		out[i] = geo.Point{X: p.X, Y: p.Y}
	}
	return out
}

// finitePoints rejects NaN/±Inf coordinates with a 400, BEFORE the
// record reaches the WAL. A non-finite position would be logged,
// applied and then poison every distance computation downstream (NaN
// compares false against everything, so the object silently vanishes
// from influence counts) — and replay would faithfully reapply it
// after every restart. Encoding, "null"/"1e999" JSON and arithmetic
// overflows all funnel through here.
func finitePoints(w http.ResponseWriter, pts []geo.Point) bool {
	for _, p := range pts {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			writeErr(w, http.StatusBadRequest,
				"non-finite coordinate (%v, %v): positions must be finite", p.X, p.Y)
			return false
		}
	}
	return true
}

// mutationResponse acknowledges an applied mutation. Seq is the WAL
// sequence number the mutation was logged at; 0 when the server runs
// without a durable store.
type mutationResponse struct {
	ID    int    `json:"id"`
	Epoch int64  `json:"epoch"`
	Seq   uint64 `json:"seq,omitempty"`
}

func (s *Server) handleAddObject(w http.ResponseWriter, r *http.Request) {
	var req objectRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Positions) == 0 {
		writeErr(w, http.StatusBadRequest, "object needs at least one position")
		return
	}
	pts := toPoints(req.Positions)
	if !finitePoints(w, pts) {
		return
	}
	_, epoch, seq, err := s.mutate(r.Context(), &store.Record{
		Op: store.OpAddObject, ID: int64(req.ID), Positions: pts,
	})
	if err != nil {
		writeErr(w, engineErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, mutationResponse{ID: req.ID, Epoch: epoch, Seq: seq})
}

func (s *Server) handleUpdateObject(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var req objectRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Positions) == 0 {
		writeErr(w, http.StatusBadRequest, "object needs at least one position")
		return
	}
	pts := toPoints(req.Positions)
	if !finitePoints(w, pts) {
		return
	}
	_, epoch, seq, err := s.mutate(r.Context(), &store.Record{
		Op: store.OpUpdateObject, ID: int64(id), Positions: pts,
	})
	if err != nil {
		writeErr(w, engineErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, mutationResponse{ID: id, Epoch: epoch, Seq: seq})
}

func (s *Server) handleRemoveObject(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	_, epoch, seq, err := s.mutate(r.Context(), &store.Record{Op: store.OpRemoveObject, ID: int64(id)})
	if err != nil {
		writeErr(w, engineErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, mutationResponse{ID: id, Epoch: epoch, Seq: seq})
}

func (s *Server) handleAddPositions(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var req positionsRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	pts := toPoints(req.Positions)
	if req.X != nil && req.Y != nil {
		pts = append(pts, geo.Point{X: *req.X, Y: *req.Y})
	}
	if len(pts) == 0 {
		writeErr(w, http.StatusBadRequest, `need "positions" or an "x"/"y" pair`)
		return
	}
	if !finitePoints(w, pts) {
		return
	}
	// One record carries the whole batch, matching the single epoch
	// bump: AddPosition only fails on an unknown object, which the
	// write lock makes stable across the batch, so either every point
	// applies or none do — live and on replay.
	_, epoch, seq, err := s.mutate(r.Context(), &store.Record{
		Op: store.OpAddPosition, ID: int64(id), Positions: pts,
	})
	if err != nil {
		writeErr(w, engineErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, mutationResponse{ID: id, Epoch: epoch, Seq: seq})
}

func (s *Server) handleAddCandidate(w http.ResponseWriter, r *http.Request) {
	var req PointJSON
	if !s.decodeJSON(w, r, &req) {
		return
	}
	pt := geo.Point{X: req.X, Y: req.Y}
	if !finitePoints(w, []geo.Point{pt}) {
		return
	}
	id, epoch, seq, err := s.mutate(r.Context(), &store.Record{
		Op: store.OpAddCandidate, Pt: pt,
	})
	if err != nil {
		writeErr(w, engineErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, mutationResponse{ID: id, Epoch: epoch, Seq: seq})
}

func (s *Server) handleRemoveCandidate(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	_, epoch, seq, err := s.mutate(r.Context(), &store.Record{Op: store.OpRemoveCandidate, ID: int64(id)})
	if err != nil {
		writeErr(w, engineErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, mutationResponse{ID: id, Epoch: epoch, Seq: seq})
}
