// Continuous-query endpoints: batched position ingest plus standing
// subscriptions with SSE push and long-poll fallback (DESIGN.md §12).
//
// POST /v1/ingest applies many (object, position) appends as ONE
// mutation record — one WAL group-commit, one epoch bump — and, like
// every applied mutation, sends the subscription manager one note at
// the new epoch: each standing query solved below it re-solves, and
// publishes only if its top-k changed. POST /v1/subscribe registers
// the standing query; /v1/subscriptions/{id}/events streams its
// versioned change events over SSE and /v1/subscriptions/{id}/poll
// long-polls them.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pinocchio/internal/core"
	"pinocchio/internal/obs"
	"pinocchio/internal/probfn"
	"pinocchio/internal/store"
	"pinocchio/internal/subscribe"
)

// sseHeartbeat is the idle-stream keepalive interval: a comment line
// that keeps proxies from timing the connection out. Variable so tests
// can shrink it.
var sseHeartbeat = 15 * time.Second

// SolveTopK implements subscribe.Backend: solve the standing query
// against the current snapshot and return the FULL ranked influence
// vector (influence descending, id ascending) — a subscription's
// candidate filter ranks any subset of it, not just the global
// prefix. pin and pin-par go through indexInfluences: at the
// engine's PF/τ they read the shard snapshots' engine vectors, with no
// build; at any other pair a burst of re-solves at one epoch builds
// each changed shard's index once and the rest are lookups. na (and
// every query with the index cache disabled) solves live.
func (s *Server) SolveTopK(q *subscribe.Query) (*subscribe.Solution, error) {
	pf, err := probfn.ByName(q.PF, q.RhoVal(), q.LambdaVal())
	if err != nil {
		return nil, err
	}
	sn := s.snapshotNow()
	sol := &subscribe.Solution{Epoch: sn.epoch, TraceID: obs.NewTraceID()}
	if len(sn.candPts) == 0 {
		return sol, nil
	}
	mk := func(idx, inf int) subscribe.Candidate {
		return subscribe.Candidate{
			ID:        sn.candIDs[idx],
			X:         sn.candPts[idx].X,
			Y:         sn.candPts[idx].Y,
			Influence: inf,
		}
	}
	if len(sn.objects) == 0 {
		// No objects: every influence is zero and candIDs are already
		// ascending, which is the ranked order under the id tie-break.
		sol.Ranked = make([]subscribe.Candidate, len(sn.candIDs))
		for i := range sn.candIDs {
			sol.Ranked[i] = mk(i, 0)
		}
		return sol, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaxTimeout)
	defer cancel()
	// With tracing on, the re-solve gets its own span tree; it returns
	// through Solution.Trace, and the subscription pipeline adopts it
	// under its "solve" stage — the causal link from an ingest's trace
	// to the phases of the solve it triggered.
	var sp *obs.Span
	if s.traces != nil {
		sp = obs.NewSpan("re-solve")
		sp.SetAttr("algo", q.Algorithm)
		sol.Trace = sp
		defer sp.End()
	}
	var influences []int
	if s.indexServes(q.Algorithm, false) {
		influences, _, err = s.indexInfluences(ctx, sn, pfKey(q.PF, q.RhoVal(), q.LambdaVal()), pf, q.Tau, sp)
	} else {
		p := &core.Problem{
			Objects:    sn.objects,
			Candidates: sn.candPts,
			PF:         pf,
			Tau:        q.Tau,
			Ctx:        ctx,
			Obs:        sp,
			TraceID:    sol.TraceID,
		}
		var res *core.Result
		if res, err = s.solveLive(sn, q.Algorithm, 0, p); err == nil {
			influences = res.Influences
		}
	}
	if err != nil {
		return nil, err
	}
	if influences == nil {
		return nil, fmt.Errorf("server: %s computed no influence vector", q.Algorithm)
	}
	ranked := core.Rank(influences)
	sol.Ranked = make([]subscribe.Candidate, len(ranked))
	for i, rk := range ranked {
		sol.Ranked[i] = mk(rk.Index, rk.Influence)
	}
	return sol, nil
}

// ingestAppend is one object's new positions inside an ingest batch.
type ingestAppend struct {
	ID        int         `json:"id"`
	Positions []PointJSON `json:"positions"`
}

// ingestRequest is the POST /v1/ingest body: many appends, applied
// all-or-nothing as one record.
type ingestRequest struct {
	Appends []ingestAppend `json:"appends"`
}

// ingestResponse acknowledges an applied batch.
type ingestResponse struct {
	Objects   int    `json:"objects"`
	Positions int    `json:"positions"`
	Epoch     int64  `json:"epoch"`
	Seq       uint64 `json:"seq,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Appends) == 0 {
		writeErr(w, http.StatusBadRequest, "ingest batch needs at least one append")
		return
	}
	rec := &store.Record{Op: store.OpIngestBatch, Appends: make([]store.Append, len(req.Appends))}
	positions := 0
	for i, a := range req.Appends {
		if len(a.Positions) == 0 {
			writeErr(w, http.StatusBadRequest, "append for object %d has no positions", a.ID)
			return
		}
		pts := toPoints(a.Positions)
		if !finitePoints(w, pts) {
			return
		}
		rec.Appends[i] = store.Append{ID: int64(a.ID), Positions: pts}
		positions += len(a.Positions)
	}
	_, epoch, seq, err := s.mutate(r.Context(), rec)
	if err != nil {
		writeErr(w, engineErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Objects: len(req.Appends), Positions: positions, Epoch: epoch, Seq: seq,
	})
}

// subscribeResponse is the POST /v1/subscribe answer: the id, the
// resolved query (defaults filled in), the registration-time result
// (version 1), and where to consume further events.
type subscribeResponse struct {
	Subscription string           `json:"subscription"`
	Query        subscribe.Query  `json:"query"`
	Result       *subscribe.Event `json:"result,omitempty"`
	Events       string           `json:"events"`
	Poll         string           `json:"poll"`
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.subs == nil {
		writeErr(w, http.StatusNotFound, "subscriptions disabled (max-subs < 0)")
		return
	}
	var q subscribe.Query
	if !s.decodeJSON(w, r, &q) {
		return
	}
	sub, err := s.subs.Register(q)
	if err != nil {
		switch {
		case errors.Is(err, subscribe.ErrLimit):
			writeErr(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, subscribe.ErrClosed):
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	resp := subscribeResponse{
		Subscription: sub.ID,
		Query:        sub.Query,
		Events:       "/v1/subscriptions/" + sub.ID + "/events",
		Poll:         "/v1/subscriptions/" + sub.ID + "/poll",
	}
	if evs, _ := sub.Since(0); len(evs) > 0 {
		resp.Result = &evs[0]
	}
	writeJSON(w, http.StatusCreated, resp)
}

// subFromPath resolves {id} to a live subscription, writing the error
// response itself on failure.
func (s *Server) subFromPath(w http.ResponseWriter, r *http.Request) (*subscribe.Subscription, bool) {
	if s.subs == nil {
		writeErr(w, http.StatusNotFound, "subscriptions disabled (max-subs < 0)")
		return nil, false
	}
	id := r.PathValue("id")
	sub, ok := s.subs.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no live subscription %q", id)
		return nil, false
	}
	return sub, true
}

func (s *Server) handleSubGet(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.subFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"subscription": sub.ID,
		"query":        sub.Query,
		"version":      sub.Version(),
		"closed":       sub.Closed(),
	})
}

func (s *Server) handleSubCancel(w http.ResponseWriter, r *http.Request) {
	if s.subs == nil {
		writeErr(w, http.StatusNotFound, "subscriptions disabled (max-subs < 0)")
		return
	}
	id := r.PathValue("id")
	if !s.subs.Cancel(id) {
		writeErr(w, http.StatusNotFound, "no live subscription %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"cancelled": id})
}

// afterVersion parses the consumer's resume position: the SSE
// Last-Event-ID header (set by reconnecting EventSource clients) wins
// over the ?after= query parameter.
func afterVersion(r *http.Request) (uint64, error) {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("after")
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad resume version %q: want an unsigned integer", v)
	}
	return n, nil
}

// handleSubEvents streams a subscription over SSE. Each delivery is
//
//	id: <version>
//	event: result | goodbye
//	data: <Event JSON>
//
// with comment-line heartbeats while idle and a ": coalesced" comment
// when the consumer fell behind the backlog ring. The stream ends with
// the goodbye event (cancel or server shutdown) or when the client
// disconnects; Last-Event-ID resumes past already-seen versions.
func (s *Server) handleSubEvents(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.subFromPath(w, r)
	if !ok {
		return
	}
	after, err := afterVersion(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	fl := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if err := fl.Flush(); err != nil {
		// No streaming support underneath (or the client is gone); the
		// header is out, so all we can do is stop.
		return
	}
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		// Grab the broadcast channel BEFORE draining the backlog: a
		// publish between the two closes the grabbed channel, so the
		// select below wakes instead of sleeping through it.
		ch := sub.Wait()
		evs, coalesced := sub.Since(after)
		if coalesced {
			fmt.Fprintf(w, ": coalesced past version %d\n\n", after)
		}
		// The flush stage is the pipeline's last hop: serialize + write +
		// flush of a non-empty delivery, recorded per connection.
		var flushStart time.Time
		if len(evs) > 0 {
			flushStart = time.Now()
		}
		for _, ev := range evs {
			name := "result"
			if ev.Terminal {
				name = "goodbye"
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Version, name, data)
			after = ev.Version
			if ev.Terminal {
				_ = fl.Flush()
				subscribe.RecordStage(subscribe.StageFlush, time.Since(flushStart))
				return
			}
		}
		if err := fl.Flush(); err != nil {
			return
		}
		if !flushStart.IsZero() {
			subscribe.RecordStage(subscribe.StageFlush, time.Since(flushStart))
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			if err := fl.Flush(); err != nil {
				return
			}
		}
	}
}

// handleSubPoll is the long-poll fallback: block until the
// subscription has events past ?after= (or timeout_ms elapses — 204).
func (s *Server) handleSubPoll(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.subFromPath(w, r)
	if !ok {
		return
	}
	after, err := afterVersion(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout := s.cfg.MaxTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad timeout_ms %q: want a non-negative integer", v)
			return
		}
		// An explicit 0 checks for events without waiting.
		if timeout, ok = s.timeoutFor(w, ms, 0); !ok {
			return
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		ch := sub.Wait()
		evs, coalesced := sub.Since(after)
		if len(evs) > 0 {
			writeJSON(w, http.StatusOK, map[string]any{
				"events":    evs,
				"coalesced": coalesced,
			})
			return
		}
		if sub.Closed() {
			// The terminal event was already consumed (after is past it);
			// nothing more will ever arrive.
			w.WriteHeader(http.StatusNoContent)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		case <-timer.C:
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}
