package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

// sumAccounted mirrors core.Cost.AccountedPairs on the wire shape.
func sumAccounted(e *ExplainJSON) int64 {
	return e.PrunedIA + e.PrunedNIBBox + e.PrunedNIBArc +
		e.ValidatedLive + e.SkippedByBounds
}

// TestServedBoundaryProbe places one check-in and one candidate at,
// and one ulp either side of, the distance where the default PF equals
// τ, for nine τ (the engine's own among them): 27 cases. pin, pin-vo,
// pin-par and pin-vo*, sent plain (answered from an index or the
// engine vectors), with "explain": true (a live solve) and to a server
// with the index cache off (a live solve), must each answer what na
// answers.
func TestServedBoundaryProbe(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	objs := []*object.Object{object.MustNew(0, []geo.Point{{X: 0, Y: 0}})}
	for _, tau := range []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.45, engineTau} {
		d := pf.Inverse(tau)
		for _, dist := range []float64{math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1))} {
			cands := []geo.Point{{X: dist, Y: 0}}
			s, err := New(Config{}, objs, cands)
			if err != nil {
				t.Fatal(err)
			}
			live, err := New(Config{PlanCacheSize: -1}, objs, cands)
			if err != nil {
				t.Fatal(err)
			}
			best := func(srv *Server, body string) CandidateJSON {
				t.Helper()
				var r QueryResponse
				if rec := do(t, srv, "POST", "/v1/query", body, &r); rec.Code != http.StatusOK {
					t.Fatalf("tau %v dist %v %s: %d %s", tau, dist, body, rec.Code, rec.Body.String())
				}
				return r.Best
			}
			want := best(s, queryBody("na", tau, 0))
			for _, alg := range []string{"pin", "pin-vo", "pin-par", "pin-vo*"} {
				body := queryBody(alg, tau, 0)
				modes := []struct {
					name string
					srv  *Server
					body string
				}{
					{"plain", s, body},
					{"explain", s, body[:len(body)-1] + `,"explain":true}`},
					{"live server", live, body},
				}
				for _, m := range modes {
					if got := best(m.srv, m.body); got != want {
						t.Errorf("tau %v dist %v %s %s: best %+v, na %+v", tau, dist, alg, m.name, got, want)
					}
				}
			}
		}
	}
}

// TestQueryExplain checks the explain block for every algorithm: the
// per-rule counts partition the pair total, the verdict table covers
// every candidate, and the answer matches the explain-off solve — both
// the one served here (from the influence index for pin, pin-vo and
// pin-par) and a live server's, whose Stats explain reproduces, since
// explain runs the solver live.
func TestQueryExplain(t *testing.T) {
	s := newTestServer(t, Config{})
	live := newTestServer(t, Config{PlanCacheSize: -1})
	const nCand = 25

	for _, algo := range []string{"na", "pin", "pin-vo", "pin-vo*", "pin-par"} {
		t.Run(algo, func(t *testing.T) {
			var served, plain, explained QueryResponse
			body := fmt.Sprintf(`{"tau":0.5,"algorithm":%q}`, algo)
			do(t, s, "POST", "/v1/query", body, &served)
			do(t, live, "POST", "/v1/query", body, &plain)
			ebody := fmt.Sprintf(`{"tau":0.5,"algorithm":%q,"explain":true}`, algo)
			do(t, s, "POST", "/v1/query", ebody, &explained)

			if plain.Explain != nil || served.Explain != nil {
				t.Fatalf("explain-off response carries an explain block")
			}
			e := explained.Explain
			if e == nil {
				t.Fatalf("no explain block in response")
			}
			if explained.Best != plain.Best || explained.Stats != plain.Stats {
				t.Errorf("explain changed the answer:\noff: %+v %v\non:  %+v %v",
					plain.Best, plain.Stats, explained.Best, explained.Stats)
			}
			if served.Best != plain.Best {
				t.Errorf("served answer %+v, live %+v", served.Best, plain.Best)
			}
			if e.PairsTotal != explained.Stats.PairsTotal {
				t.Errorf("explain pairs %d != stats pairs %d", e.PairsTotal, explained.Stats.PairsTotal)
			}
			if got := sumAccounted(e); got != e.PairsTotal {
				t.Errorf("accounted %d of %d pairs", got, e.PairsTotal)
			}
			if len(e.Verdicts) != nCand {
				t.Errorf("%d verdict rows, want %d", len(e.Verdicts), nCand)
			}
			rows := 0
			for _, n := range e.VerdictCounts {
				rows += n
			}
			if rows != nCand {
				t.Errorf("verdict counts sum to %d, want %d (%v)", rows, nCand, e.VerdictCounts)
			}
		})
	}
}

// TestQueryExplainTopK covers the top-t path: k winners, full verdict
// coverage.
func TestQueryExplainTopK(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp QueryResponse
	do(t, s, "POST", "/v1/query", `{"tau":0.5,"algorithm":"pin-vo","k":4,"explain":true}`, &resp)
	e := resp.Explain
	if e == nil {
		t.Fatalf("no explain block in top-k response")
	}
	if got := sumAccounted(e); got != e.PairsTotal {
		t.Errorf("accounted %d of %d pairs", got, e.PairsTotal)
	}
	if got := e.VerdictCounts["winner"]; got != len(resp.TopK) {
		t.Errorf("%d winner verdicts, want %d", got, len(resp.TopK))
	}
}

// TestQueryExplainPlanSource: with the index cache on, explain still
// runs the named solver live — every time, and unaffected by an index
// the plain query built in between.
func TestQueryExplainPlanSource(t *testing.T) {
	s := newTestServer(t, Config{PlanCacheSize: 8})
	const body = `{"tau":0.5,"algorithm":"pin-vo","explain":true}`

	var first, second QueryResponse
	do(t, s, "POST", "/v1/query", body, &first)
	do(t, s, "POST", "/v1/query", `{"tau":0.5,"algorithm":"pin-vo"}`, nil)
	do(t, s, "POST", "/v1/query", body, &second)

	for name, r := range map[string]*QueryResponse{"first": &first, "second": &second} {
		if r.Explain.PlanSource != "none" {
			t.Errorf("%s: plan source %q, want \"none\" (live solve)", name, r.Explain.PlanSource)
		}
		if r.Explain.RTreeNodeVisits == 0 {
			t.Errorf("%s: live solve reports no node visits", name)
		}
	}
	if !reflect.DeepEqual(first.Explain, second.Explain) || first.Stats != second.Stats {
		t.Errorf("repeated live explain differs:\nfirst:  %+v\nsecond: %+v", first.Explain, second.Explain)
	}
}

// benchServer builds a Server for the explain benchmarks: index cache
// on, so plain queries are index lookups.
func benchServer(b *testing.B) *Server {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	objs := make([]*object.Object, 40)
	for i := range objs {
		pts := make([]geo.Point, 5+rng.Intn(10))
		for j := range pts {
			pts[j] = geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8}
		}
		o, err := object.New(i, pts)
		if err != nil {
			b.Fatalf("object.New: %v", err)
		}
		objs[i] = o
	}
	cands := make([]geo.Point, 25)
	for i := range cands {
		cands[i] = geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8}
	}
	s, err := New(Config{PlanCacheSize: 8, TraceKeep: -1, SlowQuery: -1}, objs, cands)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	return s
}

// benchServed drives the full handler path with the given body.
func benchServed(b *testing.B, s *Server, body string) {
	b.Helper()
	payload := []byte(body)
	// One warm-up request populates the index cache.
	req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		b.Fatalf("warm-up: %d %s", rec.Code, rec.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("query: %d", rec.Code)
		}
	}
}

// BenchmarkServedQueryNoExplain is the allocation guard for the warm
// served-query path with accounting disabled (an index lookup): compare
// its allocs/op against BenchmarkServedQueryExplain, which runs the
// solver live with full accounting.
func BenchmarkServedQueryNoExplain(b *testing.B) {
	benchServed(b, benchServer(b), `{"tau":0.5,"algorithm":"pin-vo"}`)
}

// BenchmarkServedQueryExplain is the same path with full accounting
// and the verdict table, for comparison.
func BenchmarkServedQueryExplain(b *testing.B) {
	benchServed(b, benchServer(b), `{"tau":0.5,"algorithm":"pin-vo","explain":true}`)
}
