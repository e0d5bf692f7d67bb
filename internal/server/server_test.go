package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pinocchio/internal/core"
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

// testPopulation builds a deterministic instance small enough for
// table tests but non-trivial for the solvers.
func testPopulation(t *testing.T, nObj, nCand int) ([]*object.Object, []geo.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	objs := make([]*object.Object, nObj)
	for i := range objs {
		pts := make([]geo.Point, 5+rng.Intn(10))
		for j := range pts {
			pts[j] = geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8}
		}
		o, err := object.New(i, pts)
		if err != nil {
			t.Fatalf("object.New: %v", err)
		}
		objs[i] = o
	}
	cands := make([]geo.Point, nCand)
	for i := range cands {
		cands[i] = geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8}
	}
	return objs, cands
}

// newTestServer builds a Server over the test population.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	objs, cands := testPopulation(t, 40, 25)
	s, err := New(cfg, objs, cands)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// do issues one request against the handler and decodes the JSON body.
func do(t *testing.T, s *Server, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, "GET", "/healthz", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
}

func TestQueryValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		code int
		want string // substring of the error message
	}{
		{"bad pf", `{"tau":0.5,"pf":"frobnicate"}`, 400, "unknown family"},
		{"bad algorithm", `{"tau":0.5,"algorithm":"dijkstra"}`, 400, "unknown algorithm"},
		{"tau zero", `{"tau":0}`, 400, "tau"},
		{"tau one", `{"tau":1}`, 400, "tau"},
		{"tau above", `{"tau":1.5}`, 400, "tau"},
		{"tau negative", `{"tau":-0.2}`, 400, "tau"},
		{"negative k", `{"tau":0.5,"k":-3}`, 400, "k"},
		{"bad rho", `{"tau":0.5,"rho":7}`, 400, "rho"},
		{"malformed json", `{"tau":`, 400, "decoding"},
		{"unknown field", `{"tau":0.5,"taus":0.7}`, 400, "decoding"},
		{"topk vo-star", `{"tau":0.5,"algorithm":"pin-vo*","k":5}`, 400, "pin-vo*"},
		{"no_cache", `{"tau":0.5,"no_cache":true}`, 400, "no_cache"},
		{"negative timeout", `{"tau":0.5,"timeout_ms":-1}`, 400, "timeout_ms"},
		{"timeout past cap", `{"tau":0.5,"algorithm":"na","timeout_ms":10000000000000}`, 200, ""},
		{"ok", `{"tau":0.5}`, 200, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, "POST", "/v1/query", tc.body, nil)
			if rec.Code != tc.code {
				t.Fatalf("code %d, want %d (body %s)", rec.Code, tc.code, rec.Body.String())
			}
			if tc.want != "" && !strings.Contains(rec.Body.String(), tc.want) {
				t.Fatalf("body %q missing %q", rec.Body.String(), tc.want)
			}
		})
	}
}

func TestQueryMatchesDirectSolve(t *testing.T) {
	s := newTestServer(t, Config{})
	objs, cands := testPopulation(t, 40, 25)

	for _, algo := range []string{"na", "pin", "pin-vo", "pin-vo*", "pin-par"} {
		t.Run(algo, func(t *testing.T) {
			var resp QueryResponse
			body := fmt.Sprintf(`{"algorithm":%q,"tau":0.6}`, algo)
			rec := do(t, s, "POST", "/v1/query", body, &resp)
			if rec.Code != http.StatusOK {
				t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
			}
			pf, _ := probfn.ByName("powerlaw", 0.9, 1.0)
			ref, err := core.NA(&core.Problem{Objects: objs, Candidates: cands, PF: pf, Tau: 0.6})
			if err != nil {
				t.Fatalf("NA: %v", err)
			}
			if resp.Best.Influence != ref.BestInfluence {
				t.Fatalf("best influence %d, want %d", resp.Best.Influence, ref.BestInfluence)
			}
		})
	}
}

func TestQueryTopK(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, algo := range []string{"pin", "pin-vo"} {
		var resp QueryResponse
		body := fmt.Sprintf(`{"algorithm":%q,"tau":0.6,"k":5}`, algo)
		rec := do(t, s, "POST", "/v1/query", body, &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", algo, rec.Code, rec.Body.String())
		}
		if len(resp.TopK) != 5 {
			t.Fatalf("%s: got %d top-k entries, want 5", algo, len(resp.TopK))
		}
		for i := 1; i < len(resp.TopK); i++ {
			if resp.TopK[i].Influence > resp.TopK[i-1].Influence {
				t.Fatalf("%s: top-k not sorted: %v", algo, resp.TopK)
			}
		}
		if resp.Best != resp.TopK[0] {
			t.Fatalf("%s: best %+v != topk[0] %+v", algo, resp.Best, resp.TopK[0])
		}
	}
}

func TestQueryDeadline(t *testing.T) {
	s := newTestServer(t, Config{})
	// timeout_ms of 0 would fall back to the server default, so use a
	// microscopic server-side cap instead: every solve passes at least
	// one cancellation boundary on this population.
	s.cfg.MaxTimeout = 1 // 1ns
	rec := do(t, s, "POST", "/v1/query", `{"algorithm":"na","tau":0.6}`, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: code %d, want 503 (body %s)", rec.Code, rec.Body.String())
	}
}

func TestQueryShedding(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1})
	s.inflight <- struct{}{} // occupy the only slot
	rec := do(t, s, "POST", "/v1/query", `{"tau":0.5}`, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed: code %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatalf("shed response missing Retry-After")
	}
	<-s.inflight
	if rec := do(t, s, "POST", "/v1/query", `{"tau":0.5}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("after release: code %d, want 200", rec.Code)
	}
}

func TestOversizedBody(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 64})
	big := `{"tau":0.5,"pf":"` + strings.Repeat("x", 200) + `"}`
	rec := do(t, s, "POST", "/v1/query", big, nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: code %d, want 413", rec.Code)
	}
}

// TestCacheAndEpochInvalidation: with no result cache, every query
// solves against the current snapshot, so a repeat at one epoch returns
// the same answer, a mutation moves the epoch and the next answer sees
// it, and /v1/status counts every 200 answer as one solve.
func TestCacheAndEpochInvalidation(t *testing.T) {
	s := newTestServer(t, Config{})
	queries := []string{
		`{"algorithm":"pin","tau":0.7}`,                    // the engine's τ: engine vectors
		`{"algorithm":"pin-vo","tau":0.65}`,                // an influence index
		`{"algorithm":"pin-vo","tau":0.65,"explain":true}`, // a live solve
	}
	solved := 0
	query := func(body string) QueryResponse {
		t.Helper()
		var resp QueryResponse
		if rec := do(t, s, "POST", "/v1/query", body, &resp); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", body, rec.Code, rec.Body.String())
		}
		solved++
		return resp
	}

	before := make([]QueryResponse, len(queries))
	for i, q := range queries {
		before[i] = query(q)
		if again := query(q); !reflect.DeepEqual(answerOf(again), answerOf(before[i])) {
			t.Errorf("%s: repeat at one epoch differs\nfirst:  %+v\nrepeat: %+v", q, before[i], again)
		}
	}

	// One new object with a position on every query's best candidate
	// raises each best influence by exactly one: PF(0) = ρ = 0.9 meets
	// every τ asked here, and no candidate gains more than the object.
	pos := make([]string, len(before))
	for i, b := range before {
		pos[i] = fmt.Sprintf(`{"x":%g,"y":%g}`, b.Best.X, b.Best.Y)
	}
	body := fmt.Sprintf(`{"id":900,"positions":[%s]}`, strings.Join(pos, ","))
	if rec := do(t, s, "POST", "/v1/objects", body, nil); rec.Code != http.StatusCreated {
		t.Fatalf("add object: %d %s", rec.Code, rec.Body.String())
	}
	for i, q := range queries {
		after := query(q)
		if after.Epoch != before[i].Epoch+1 || after.Objects != before[i].Objects+1 {
			t.Errorf("%s: epoch %d with %d objects after the add, want %d with %d",
				q, after.Epoch, after.Objects, before[i].Epoch+1, before[i].Objects+1)
		}
		if after.Best.Influence != before[i].Best.Influence+1 {
			t.Errorf("%s: best influence %d after the add, want %d",
				q, after.Best.Influence, before[i].Best.Influence+1)
		}
	}

	var st struct {
		Work struct {
			QueriesSolved int `json:"queries_solved"`
		} `json:"work"`
	}
	do(t, s, "GET", "/v1/status", "", &st)
	if st.Work.QueriesSolved != solved {
		t.Errorf("status work: %d queries solved, want %d (one per 200 answer)",
			st.Work.QueriesSolved, solved)
	}
}

func TestMutationEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})

	t.Run("unknown ids are 404", func(t *testing.T) {
		for _, c := range []struct{ method, path string }{
			{"GET", "/v1/influence/9999"},
			{"DELETE", "/v1/objects/9999"},
			{"DELETE", "/v1/candidates/9999"},
		} {
			if rec := do(t, s, c.method, c.path, "", nil); rec.Code != http.StatusNotFound {
				t.Fatalf("%s %s: code %d, want 404", c.method, c.path, rec.Code)
			}
		}
		rec := do(t, s, "POST", "/v1/objects/9999/positions", `{"x":1,"y":2}`, nil)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("add position to unknown object: code %d, want 404", rec.Code)
		}
	})

	t.Run("malformed ids are 400", func(t *testing.T) {
		if rec := do(t, s, "GET", "/v1/influence/banana", "", nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("bad id: code %d, want 400", rec.Code)
		}
	})

	t.Run("object lifecycle", func(t *testing.T) {
		body := `{"id":1000,"positions":[{"x":1,"y":1},{"x":2,"y":2}]}`
		if rec := do(t, s, "POST", "/v1/objects", body, nil); rec.Code != http.StatusCreated {
			t.Fatalf("add object: %d %s", rec.Code, rec.Body.String())
		}
		if rec := do(t, s, "POST", "/v1/objects", body, nil); rec.Code != http.StatusConflict {
			t.Fatalf("duplicate object: code %d, want 409", rec.Code)
		}
		if rec := do(t, s, "POST", "/v1/objects/1000/positions", `{"x":3,"y":3}`, nil); rec.Code != http.StatusOK {
			t.Fatalf("add position: %d %s", rec.Code, rec.Body.String())
		}
		if rec := do(t, s, "PUT", "/v1/objects/1000", `{"positions":[{"x":5,"y":5}]}`, nil); rec.Code != http.StatusOK {
			t.Fatalf("update object: %d %s", rec.Code, rec.Body.String())
		}
		if rec := do(t, s, "DELETE", "/v1/objects/1000", "", nil); rec.Code != http.StatusOK {
			t.Fatalf("remove object: %d %s", rec.Code, rec.Body.String())
		}
		if rec := do(t, s, "DELETE", "/v1/objects/1000", "", nil); rec.Code != http.StatusNotFound {
			t.Fatalf("double remove: code %d, want 404", rec.Code)
		}
	})

	t.Run("empty positions are 400", func(t *testing.T) {
		if rec := do(t, s, "POST", "/v1/objects", `{"id":1001,"positions":[]}`, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("empty positions: code %d, want 400", rec.Code)
		}
		if rec := do(t, s, "POST", "/v1/objects/0/positions", `{}`, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("empty position batch: code %d, want 400", rec.Code)
		}
	})

	t.Run("candidate lifecycle", func(t *testing.T) {
		var mr mutationResponse
		if rec := do(t, s, "POST", "/v1/candidates", `{"x":4,"y":4}`, &mr); rec.Code != http.StatusCreated {
			t.Fatalf("add candidate: %d %s", rec.Code, rec.Body.String())
		}
		if rec := do(t, s, "GET", fmt.Sprintf("/v1/influence/%d", mr.ID), "", nil); rec.Code != http.StatusOK {
			t.Fatalf("influence of new candidate: %d %s", rec.Code, rec.Body.String())
		}
		if rec := do(t, s, "DELETE", fmt.Sprintf("/v1/candidates/%d", mr.ID), "", nil); rec.Code != http.StatusOK {
			t.Fatalf("remove candidate: %d %s", rec.Code, rec.Body.String())
		}
	})
}

// TestInfluenceMatchesStaticSolve cross-checks the engine-maintained
// influence against a static PIN solve at the engine's PF/τ.
func TestInfluenceMatchesStaticSolve(t *testing.T) {
	s := newTestServer(t, Config{})
	objs, cands := testPopulation(t, 40, 25)

	ref, err := core.Pinocchio(&core.Problem{
		Objects: objs, Candidates: cands, PF: probfn.DefaultPowerLaw(), Tau: 0.7,
	})
	if err != nil {
		t.Fatalf("Pinocchio: %v", err)
	}
	for idx, want := range ref.Influences {
		var out struct {
			Candidate CandidateJSON `json:"candidate"`
		}
		rec := do(t, s, "GET", fmt.Sprintf("/v1/influence/%d", idx), "", &out)
		if rec.Code != http.StatusOK {
			t.Fatalf("influence/%d: %d", idx, rec.Code)
		}
		if out.Candidate.Influence != want {
			t.Fatalf("candidate %d: engine influence %d, static %d", idx, out.Candidate.Influence, want)
		}
	}
}

func TestStatusAndBest(t *testing.T) {
	s := newTestServer(t, Config{DatasetName: "unit-test"})
	var st struct {
		Dataset    string `json:"dataset"`
		Objects    int    `json:"objects"`
		Candidates int    `json:"candidates"`
	}
	do(t, s, "GET", "/v1/status", "", &st)
	if st.Dataset != "unit-test" || st.Objects != 40 || st.Candidates != 25 {
		t.Fatalf("status %+v", st)
	}
	if rec := do(t, s, "GET", "/v1/best", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("best: %d", rec.Code)
	}
}

func TestQueryOnEmptyServer(t *testing.T) {
	s, err := New(Config{}, nil, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if rec := do(t, s, "POST", "/v1/query", `{"tau":0.5}`, nil); rec.Code != http.StatusConflict {
		t.Fatalf("empty server query: code %d, want 409", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/best", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("empty server best: code %d, want 404", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, "GET", "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
}
