package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"pinocchio/internal/obs"
)

// doTraced issues one request with an optional X-Request-ID header and
// returns the recorder.
func doTraced(t *testing.T, s *Server, method, path, body, requestID string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

var hexID = regexp.MustCompile(`^[0-9a-f]{16}$`)

func TestRequestIDEchoAndGeneration(t *testing.T) {
	s := newTestServer(t, Config{})

	rec := doTraced(t, s, "POST", "/v1/query", queryBody("pin-vo", 0.7, 0), "client-req-7")
	if rec.Code != http.StatusOK {
		t.Fatalf("query: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-ID"); got != "client-req-7" {
		t.Fatalf("echoed id = %q, want client-req-7", got)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != "client-req-7" {
		t.Fatalf("body trace_id = %q, want client-req-7", resp.TraceID)
	}

	// Without a client ID the server generates one per request.
	a := doTraced(t, s, "POST", "/v1/query", queryBody("pin-vo", 0.7, 0), "")
	b := doTraced(t, s, "POST", "/v1/query", queryBody("pin-vo", 0.7, 0), "")
	idA, idB := a.Header().Get("X-Request-ID"), b.Header().Get("X-Request-ID")
	if !hexID.MatchString(idA) || !hexID.MatchString(idB) {
		t.Fatalf("generated ids %q, %q: want 16 hex chars", idA, idB)
	}
	if idA == idB {
		t.Fatalf("generated ids must be unique, both %q", idA)
	}

	// Unusable client IDs (control bytes, spaces, oversized) are
	// replaced, not echoed.
	c := doTraced(t, s, "POST", "/v1/query", queryBody("pin-vo", 0.7, 0), "bad id\x01")
	if got := c.Header().Get("X-Request-ID"); !hexID.MatchString(got) {
		t.Fatalf("unusable client id echoed back as %q", got)
	}
}

func TestTraceEndpointsEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{})

	rec := doTraced(t, s, "POST", "/v1/query", queryBody("pin", indexTau, 0), "trace-me")
	if rec.Code != http.StatusOK {
		t.Fatalf("query: HTTP %d: %s", rec.Code, rec.Body.String())
	}

	rec = doTraced(t, s, "GET", "/v1/debug/traces/trace-me", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace get: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var tr obs.Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Route != "POST /v1/query" || tr.Outcome != obs.OutcomeOK || tr.Status != http.StatusOK {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Algorithm != "pin" || tr.PlanCache != "miss" {
		t.Fatalf("trace annotations: algorithm=%q plan_cache=%q", tr.Algorithm, tr.PlanCache)
	}
	if tr.Spans == nil || tr.Spans.Name != "query" {
		t.Fatalf("trace spans = %+v, want a query root", tr.Spans)
	}
	phases := map[string]bool{}
	var walk func(sj *obs.SpanJSON)
	walk = func(sj *obs.SpanJSON) {
		phases[sj.Name] = true
		for i := range sj.Children {
			walk(&sj.Children[i])
		}
	}
	walk(tr.Spans)
	if !phases["prune"] || !phases["validate"] {
		t.Fatalf("span tree misses solver phases: %v", phases)
	}

	// A second identical request replays the cached plan.
	doTraced(t, s, "POST", "/v1/query", queryBody("pin", indexTau, 0), "trace-me-2")
	rec = doTraced(t, s, "GET", "/v1/debug/traces/trace-me-2", "", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.PlanCache != "hit" {
		t.Fatalf("second solve plan_cache = %q, want hit", tr.PlanCache)
	}

	// The listing carries summaries (no span trees) newest first and
	// honours filters.
	rec = doTraced(t, s, "GET", "/v1/debug/traces", "", "")
	var list struct {
		Traces   []obs.Trace `json:"traces"`
		Retained int         `json:"retained"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) < 2 || list.Retained < 2 {
		t.Fatalf("listing = %+v", list)
	}
	if list.Traces[0].ID != "trace-me-2" {
		t.Fatalf("newest first: got %q", list.Traces[0].ID)
	}
	if list.Traces[0].Spans != nil {
		t.Fatal("listing must not carry span trees")
	}
	rec = doTraced(t, s, "GET", "/v1/debug/traces?algorithm=nope", "", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 0 {
		t.Fatalf("algorithm filter leaked %d traces", len(list.Traces))
	}

	rec = doTraced(t, s, "GET", "/v1/debug/traces/absent", "", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing trace: HTTP %d", rec.Code)
	}
	rec = doTraced(t, s, "GET", "/v1/debug/traces?min_ms=zebra", "", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad min_ms: HTTP %d", rec.Code)
	}
}

func TestTraceRingEviction(t *testing.T) {
	s := newTestServer(t, Config{TraceKeep: 4})
	for i := 0; i < 8; i++ {
		rec := doTraced(t, s, "POST", "/v1/query", queryBody("pin-vo", 0.7, 0),
			fmt.Sprintf("evict-%d", i))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: HTTP %d", i, rec.Code)
		}
	}
	for i := 0; i < 4; i++ {
		rec := doTraced(t, s, "GET", fmt.Sprintf("/v1/debug/traces/evict-%d", i), "", "")
		if rec.Code != http.StatusNotFound {
			t.Fatalf("evict-%d should be evicted, HTTP %d", i, rec.Code)
		}
	}
	for i := 4; i < 8; i++ {
		rec := doTraced(t, s, "GET", fmt.Sprintf("/v1/debug/traces/evict-%d", i), "", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("evict-%d should be retained, HTTP %d", i, rec.Code)
		}
	}
}

func TestTraceErrorRetainedUnderPressure(t *testing.T) {
	s := newTestServer(t, Config{TraceKeep: 2})
	rec := doTraced(t, s, "POST", "/v1/query", `{"tau":5}`, "broken-query")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad query: HTTP %d", rec.Code)
	}
	for i := 0; i < 5; i++ {
		doTraced(t, s, "POST", "/v1/query", queryBody("pin-vo", 0.7, 0), "")
	}
	rec = doTraced(t, s, "GET", "/v1/debug/traces/broken-query", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("errored trace evicted by healthy traffic: HTTP %d", rec.Code)
	}
	var tr obs.Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Outcome != obs.OutcomeError || tr.Status != http.StatusBadRequest {
		t.Fatalf("trace = %+v", tr)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	defer slog.SetDefault(old)

	s := newTestServer(t, Config{SlowQuery: time.Nanosecond})
	rec := doTraced(t, s, "POST", "/v1/query", queryBody("pin-vo", indexTau, 0), "so-slow")
	if rec.Code != http.StatusOK {
		t.Fatalf("query: HTTP %d", rec.Code)
	}
	out := buf.String()
	for _, want := range []string{"slow query", "trace_id=so-slow", "algorithm=pin-vo",
		"phase_prune_ms=", "phase_validate_ms="} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query log misses %q:\n%s", want, out)
		}
	}

	// The retained trace carries the slow flag, so min_ms/outcome
	// filters and the kept ring see it.
	var tr obs.Trace
	rec = doTraced(t, s, "GET", "/v1/debug/traces/so-slow", "", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Slow {
		t.Fatal("trace not flagged slow")
	}
}

func TestTracingDisabled(t *testing.T) {
	s := newTestServer(t, Config{TraceKeep: -1, SlowQuery: -1})
	rec := doTraced(t, s, "POST", "/v1/query", queryBody("pin-vo", 0.7, 0), "ghost")
	if rec.Code != http.StatusOK {
		t.Fatalf("query: HTTP %d", rec.Code)
	}
	// Trace IDs still flow end to end; only retention is off.
	if got := rec.Header().Get("X-Request-ID"); got != "ghost" {
		t.Fatalf("echoed id = %q", got)
	}
	for _, path := range []string{"/v1/debug/traces", "/v1/debug/traces/ghost"} {
		if rec := doTraced(t, s, "GET", path, "", ""); rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s with tracing disabled: HTTP %d", path, rec.Code)
		}
	}
}

func TestMutationTraceAnnotations(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := doTraced(t, s, "POST", "/v1/candidates", `{"x":1,"y":2}`, "mutate-1")
	if rec.Code != http.StatusCreated {
		t.Fatalf("mutation: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var tr obs.Trace
	rec = doTraced(t, s, "GET", "/v1/debug/traces/mutate-1", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace get: HTTP %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Route != "POST /v1/candidates" || tr.Outcome != obs.OutcomeOK {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Epoch == 0 {
		t.Fatal("mutation trace must carry the post-apply epoch")
	}
}

func TestStatusLatencyPercentiles(t *testing.T) {
	s := newTestServer(t, Config{})
	doTraced(t, s, "POST", "/v1/query", queryBody("pin-vo", 0.7, 0), "")
	doTraced(t, s, "POST", "/v1/candidates", `{"x":3,"y":4}`, "")

	var status struct {
		Latency map[string]struct {
			Count int64   `json:"count"`
			P50   float64 `json:"p50_ms"`
			P95   float64 `json:"p95_ms"`
			P99   float64 `json:"p99_ms"`
		} `json:"latency"`
		TraceEntries int `json:"trace_entries"`
	}
	rec := doTraced(t, s, "GET", "/v1/status", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: HTTP %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"query", "mutation"} {
		l, ok := status.Latency[k]
		if !ok || l.Count < 1 {
			t.Fatalf("latency[%s] = %+v", k, status.Latency)
		}
		if l.P50 <= 0 || l.P95 < l.P50 || l.P99 < l.P95 {
			t.Fatalf("latency[%s] percentiles not monotone: %+v", k, l)
		}
	}
	if status.TraceEntries < 2 {
		t.Fatalf("trace_entries = %d, want >= 2", status.TraceEntries)
	}
}
