package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/server"
)

// BenchServed is one served-query row in the snapshot: the same solve
// measured through the HTTP layer (JSON decode, validation, snapshot,
// solve, encode), so the serving overhead is visible next to the raw
// algorithm wall times.
type BenchServed struct {
	Algorithm string `json:"algorithm"`
	// Cached marks a result-cache hit (no solve at all); WarmPlan a
	// real solve replaying a cached solve plan. Rows with neither flag
	// build every derived structure per solve.
	Cached   bool `json:"cached"`
	WarmPlan bool `json:"warm_plan,omitempty"`
	// Telemetry marks rows served with request tracing and the trace
	// store enabled; comparing them against the matching untraced rows
	// bounds the telemetry overhead.
	Telemetry bool    `json:"telemetry,omitempty"`
	WallMs    float64 `json:"wall_ms"` // min over iterations
}

// benchServed times POST /v1/query end-to-end against in-process
// servers over the bench population: one with the influence indexes
// disabled (the live-solve baseline) and one with them on. Uncached
// rows bypass the result cache with no_cache; warm-plan rows
// additionally run one warm-up query so the index is resident; the
// result-cached row times a repeat hit.
func benchServed(objs []*object.Object, cands []geo.Point, tau float64, iters int) ([]BenchServed, error) {
	// Telemetry is off (no trace retention, no slow-query log) on the
	// baseline servers and on for the traced one, so the snapshot holds
	// matched warm-plan pairs quantifying the tracing overhead.
	cold, err := server.New(server.Config{Tau: tau, MaxTimeout: 5 * time.Minute,
		PlanCacheSize: -1, TraceKeep: -1, SlowQuery: -1}, objs, cands)
	if err != nil {
		return nil, err
	}
	warm, err := server.New(server.Config{Tau: tau, MaxTimeout: 5 * time.Minute,
		TraceKeep: -1, SlowQuery: -1}, objs, cands)
	if err != nil {
		return nil, err
	}
	traced, err := server.New(server.Config{Tau: tau, MaxTimeout: 5 * time.Minute,
		SlowQuery: -1}, objs, cands)
	if err != nil {
		return nil, err
	}

	cases := []struct {
		algo      string
		srv       *server.Server
		cached    bool
		warmPlan  bool
		telemetry bool
	}{
		{"pin-vo", cold, false, false, false},
		{"pin-par", cold, false, false, false},
		{"pin-vo", warm, false, true, false},
		{"pin-par", warm, false, true, false},
		{"pin-vo", traced, false, true, true},
		{"pin-par", traced, false, true, true},
		{"pin-vo", warm, true, false, false},
	}
	out := make([]BenchServed, 0, len(cases))
	for _, c := range cases {
		body := fmt.Sprintf(`{"algorithm":%q,"tau":%g,"no_cache":%v}`, c.algo, tau, !c.cached)
		serve := func() (int, time.Duration) {
			req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(body))
			rec := httptest.NewRecorder()
			start := time.Now()
			c.srv.ServeHTTP(rec, req)
			return rec.Code, time.Since(start)
		}
		if c.cached || c.warmPlan {
			if code, _ := serve(); code != http.StatusOK {
				return nil, fmt.Errorf("experiments: served bench warm-up %s: HTTP %d", c.algo, code)
			}
		}
		row := BenchServed{Algorithm: c.algo, Cached: c.cached, WarmPlan: c.warmPlan, Telemetry: c.telemetry}
		for it := 0; it < iters; it++ {
			code, dur := serve()
			if code != http.StatusOK {
				return nil, fmt.Errorf("experiments: served bench %s: HTTP %d", c.algo, code)
			}
			if ms := float64(dur) / float64(time.Millisecond); it == 0 || ms < row.WallMs {
				row.WallMs = ms
			}
		}
		out = append(out, row)
	}
	return out, nil
}
