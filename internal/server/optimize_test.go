package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pinocchio/internal/geo"
)

// TestOptimizeEndpoint drives the full served path: the returned best
// point's influence must reproduce exactly when the same location is
// registered as a candidate and queried through the engine view.
func TestOptimizeEndpoint(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newTestServer(t, Config{Shards: shards})
			var resp OptimizeResponse
			rec := do(t, s, "POST", "/v1/optimize", `{"tau":0.7}`, &resp)
			if rec.Code != http.StatusOK {
				t.Fatalf("optimize: %d %s", rec.Code, rec.Body.String())
			}
			if !resp.Resolved || resp.Gap != 0 {
				t.Fatalf("small instance should resolve: %+v", resp)
			}
			if resp.BestInfluence <= 0 || resp.BestInfluence > resp.SweepMax {
				t.Fatalf("influence %d outside (0, sweep_max %d]", resp.BestInfluence, resp.SweepMax)
			}
			if resp.Cost == nil || resp.Cost.SweptRects != int64(resp.Objects) {
				t.Fatalf("ledger missing or wrong: %+v", resp.Cost)
			}
			if resp.Cost.ShardRectSets != int64(shards) {
				t.Fatalf("shard rect sets %d, want %d", resp.Cost.ShardRectSets, shards)
			}

			// Registering the best point as a candidate must yield the
			// same influence through the incremental engine (engine PF/τ
			// are the defaults the request used too).
			var mut mutationResponse
			rec = do(t, s, "POST", "/v1/candidates",
				fmt.Sprintf(`{"x":%g,"y":%g}`, resp.Best.X, resp.Best.Y), &mut)
			if rec.Code != http.StatusCreated {
				t.Fatalf("add candidate: %d %s", rec.Code, rec.Body.String())
			}
			var infResp struct {
				Candidate CandidateJSON `json:"candidate"`
			}
			rec = do(t, s, "GET", fmt.Sprintf("/v1/influence/%d", mut.ID), "", &infResp)
			if rec.Code != http.StatusOK {
				t.Fatalf("influence: %d %s", rec.Code, rec.Body.String())
			}
			if infResp.Candidate.Influence != resp.BestInfluence {
				t.Fatalf("engine influence %d at best point, optimize said %d",
					infResp.Candidate.Influence, resp.BestInfluence)
			}
		})
	}
}

// TestOptimizeCache: with no optimize cache, every run solves against
// the current snapshot, so a repeat at one epoch returns the same
// response, ledger included, the run after an object add sees one more
// object at the next epoch, and /v1/status counts every 200 answer as
// one run.
func TestOptimizeCache(t *testing.T) {
	s := newTestServer(t, Config{})
	runs := 0
	place := func() OptimizeResponse {
		t.Helper()
		var resp OptimizeResponse
		if rec := do(t, s, "POST", "/v1/optimize", `{"tau":0.7}`, &resp); rec.Code != http.StatusOK {
			t.Fatalf("optimize: %d %s", rec.Code, rec.Body.String())
		}
		runs++
		resp.ElapsedMs, resp.TraceID = 0, ""
		return resp
	}

	first, second := place(), place()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("optimize repeat at one epoch differs\nfirst:  %+v\nrepeat: %+v", first, second)
	}
	rec := do(t, s, "POST", "/v1/objects", `{"id":900,"positions":[{"x":1,"y":1}]}`, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("add object: %d %s", rec.Code, rec.Body.String())
	}
	if third := place(); third.Epoch != first.Epoch+1 || third.Objects != first.Objects+1 {
		t.Errorf("optimize after the add: epoch %d with %d objects, want %d with %d",
			third.Epoch, third.Objects, first.Epoch+1, first.Objects+1)
	}

	var st struct {
		Work struct {
			Optimize struct {
				Runs int `json:"runs"`
			} `json:"optimize"`
		} `json:"work"`
	}
	do(t, s, "GET", "/v1/status", "", &st)
	if st.Work.Optimize.Runs != runs {
		t.Errorf("status work: %d optimize runs, want %d (one per 200 answer)",
			st.Work.Optimize.Runs, runs)
	}
}

func TestOptimizeValidationHTTP(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		body string
		code int
	}{
		{`{"tau":0}`, http.StatusBadRequest},
		{`{"tau":1.2}`, http.StatusBadRequest},
		{`{"tau":0.7,"pf":"nope"}`, http.StatusBadRequest},
		{`{"tau":0.7,"top_r":-1}`, http.StatusBadRequest},
		{`{"tau":0.7,"bounds":{"min_x":5,"min_y":5,"max_x":1,"max_y":1}}`, http.StatusBadRequest},
		{`{"tau":0.7,"unknown_field":1}`, http.StatusBadRequest},
		{`{"tau":0.7,"no_cache":true}`, http.StatusBadRequest},
		{`{"tau":0.7,"timeout_ms":-1}`, http.StatusBadRequest},
		{`{"tau":0.6,"timeout_ms":10000000000000}`, http.StatusOK},
	}
	for _, c := range cases {
		if rec := do(t, s, "POST", "/v1/optimize", c.body, nil); rec.Code != c.code {
			t.Errorf("%s: got %d want %d (%s)", c.body, rec.Code, c.code, rec.Body.String())
		}
	}
	// Bounds confine the answer.
	var resp OptimizeResponse
	rec := do(t, s, "POST", "/v1/optimize",
		`{"tau":0.7,"bounds":{"min_x":0,"min_y":0,"max_x":4,"max_y":4}}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("bounded optimize: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Best.X < 0 || resp.Best.X > 4 || resp.Best.Y < 0 || resp.Best.Y > 4 {
		t.Fatalf("best point %+v escapes bounds", resp.Best)
	}
}

// TestBestExplain covers the /v1/best?explain=true satellite: the
// response gains the same Cost ledger shape /v1/query carries.
func TestBestExplain(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp struct {
		Best    CandidateJSON `json:"best"`
		Explain *ExplainJSON  `json:"explain"`
	}
	rec := do(t, s, "GET", "/v1/best", "", &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("best: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Explain != nil {
		t.Fatal("explain block present without ?explain=true")
	}
	rec = do(t, s, "GET", "/v1/best?explain=true", "", &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("best explain: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Explain == nil {
		t.Fatal("no explain block")
	}
	if resp.Explain.PairsTotal == 0 || len(resp.Explain.Verdicts) == 0 {
		t.Fatalf("empty ledger: %+v", resp.Explain)
	}
	if rec = do(t, s, "GET", "/v1/best?explain=banana", "", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad explain value: %d", rec.Code)
	}
}

// TestRejectNonFinite covers the NaN/±Inf satellite: every mutation
// and ingest path must 400 on non-finite coordinates BEFORE anything
// reaches the WAL or engine — the epoch must not move.
func TestRejectNonFinite(t *testing.T) {
	s := newTestServer(t, Config{})
	before := s.Epoch()
	cases := []struct {
		method, path, body string
	}{
		{"POST", "/v1/objects", `{"id":901,"positions":[{"x":1e999,"y":0}]}`},
		{"PUT", "/v1/objects/0", `{"positions":[{"x":0,"y":-1e999}]}`},
		{"POST", "/v1/objects/0/positions", `{"x":1e999,"y":2}`},
		{"POST", "/v1/objects/0/positions", `{"positions":[{"x":1,"y":1},{"x":1e999,"y":2}]}`},
		{"POST", "/v1/candidates", `{"x":1e999,"y":0}`},
		{"POST", "/v1/ingest", `{"appends":[{"id":0,"positions":[{"x":1e999,"y":0}]}]}`},
	}
	for _, c := range cases {
		rec := do(t, s, c.method, c.path, c.body, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s: got %d want 400 (%s)", c.method, c.path, rec.Code, rec.Body.String())
		}
	}
	if after := s.Epoch(); after != before {
		t.Fatalf("epoch moved %d -> %d on rejected mutations", before, after)
	}
}

// TestFinitePointsHelper exercises the validator directly with values
// JSON decoding can never produce (it rejects 1e999 and has no NaN
// literal) — the helper is the defense for non-HTTP entry points and
// any future wire format that can carry the full float64 range.
func TestFinitePointsHelper(t *testing.T) {
	bad := [][]geo.Point{
		{{X: math.NaN(), Y: 0}},
		{{X: 0, Y: math.NaN()}},
		{{X: math.Inf(1), Y: 0}},
		{{X: 0, Y: math.Inf(-1)}},
		{{X: 1, Y: 1}, {X: math.NaN(), Y: 2}},
	}
	for i, pts := range bad {
		rec := httptest.NewRecorder()
		if finitePoints(rec, pts) {
			t.Errorf("case %d: accepted non-finite %v", i, pts)
		}
		if rec.Code != http.StatusBadRequest {
			t.Errorf("case %d: wrote %d, want 400", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	if !finitePoints(rec, []geo.Point{{X: 1, Y: 2}, {X: -3, Y: 4}}) {
		t.Error("rejected finite points")
	}
}
