package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentQueriesAndMutations drives the reader/writer wrapper
// from many goroutines at once — queries, influence reads, and engine
// mutations all through ServeHTTP — so `go test -race` checks the
// single-writer/many-reader claim (snapshot reads outside the lock,
// lazy snapshot rebuild).
func TestConcurrentQueriesAndMutations(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 64})

	const (
		goroutines = 8
		iters      = 25
	)
	var wg sync.WaitGroup

	// Query readers, alternating algorithms.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			algos := []string{"pin", "pin-vo", "pin-par"}
			for i := 0; i < iters; i++ {
				body := fmt.Sprintf(`{"algorithm":%q,"tau":0.6}`, algos[(g+i)%len(algos)])
				rec := do(t, s, "POST", "/v1/query", body, nil)
				switch rec.Code {
				case http.StatusOK, http.StatusTooManyRequests:
				default:
					t.Errorf("query: unexpected code %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}

	// Influence and status readers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters*4; i++ {
				do(t, s, "GET", fmt.Sprintf("/v1/influence/%d", i%25), "", nil)
				do(t, s, "GET", "/v1/status", "", nil)
				do(t, s, "GET", "/v1/best", "", nil)
			}
		}(g)
	}

	// Writers: object churn and candidate churn on disjoint id ranges
	// so each goroutine's lifecycle assertions stay deterministic.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := 5000 + g*1000
			for i := 0; i < iters; i++ {
				id := base + i
				body := fmt.Sprintf(`{"id":%d,"positions":[{"x":%d,"y":1},{"x":2,"y":2}]}`, id, i%8)
				if rec := do(t, s, "POST", "/v1/objects", body, nil); rec.Code != http.StatusCreated {
					t.Errorf("add object %d: %d %s", id, rec.Code, rec.Body.String())
					return
				}
				do(t, s, "POST", fmt.Sprintf("/v1/objects/%d/positions", id), `{"x":3,"y":3}`, nil)
				if rec := do(t, s, "DELETE", fmt.Sprintf("/v1/objects/%d", id), "", nil); rec.Code != http.StatusOK {
					t.Errorf("remove object %d: %d %s", id, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var mu sync.Mutex
		var live []int
		for i := 0; i < iters; i++ {
			var mr mutationResponse
			if rec := do(t, s, "POST", "/v1/candidates", `{"x":6,"y":6}`, &mr); rec.Code == http.StatusCreated {
				mu.Lock()
				live = append(live, mr.ID)
				mu.Unlock()
			}
			if i%3 == 2 {
				mu.Lock()
				id := live[0]
				live = live[1:]
				mu.Unlock()
				do(t, s, "DELETE", fmt.Sprintf("/v1/candidates/%d", id), "", nil)
			}
		}
	}()

	wg.Wait()

	// The wrapper must come out consistent: a final query agrees with
	// the engine's own incremental view of the default PF/τ.
	var resp QueryResponse
	rec := do(t, s, "POST", "/v1/query", `{"tau":0.7}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("final query: %d %s", rec.Code, rec.Body.String())
	}
	var best struct {
		Best CandidateJSON `json:"best"`
	}
	if rec := do(t, s, "GET", "/v1/best", "", &best); rec.Code != http.StatusOK {
		t.Fatalf("final best: %d", rec.Code)
	}
	if best.Best.Influence != resp.Best.Influence {
		t.Fatalf("engine best influence %d != solved best influence %d",
			best.Best.Influence, resp.Best.Influence)
	}
}

// TestServeStressNo500 is the snapshot/index race detector: on a
// sharded server, concurrent queries of every algorithm (top-1 and
// top-k, several PFs and τ values — the engine's own among them — with
// and without explain), position appends, ingest batches and two
// standing subscriptions (one at the engine's τ) all go through
// ServeHTTP at once. No request may fail with a 500, and once the
// writers stop, index- and engine-served answers equal the live solve.
func TestServeStressNo500(t *testing.T) {
	objs, cands := testPopulation(t, 60, 25)
	s, err := New(Config{Shards: 3, MaxInflight: 64}, objs, cands)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{"tau":0.6,"k":3}`, fmt.Sprintf(`{"tau":%g,"k":3}`, engineTau)} {
		if rec := do(t, s, "POST", "/v1/subscribe", body, nil); rec.Code != http.StatusCreated {
			t.Fatalf("subscribe: %d %s", rec.Code, rec.Body.String())
		}
	}
	check := func(what string, rec *httptest.ResponseRecorder) {
		if rec.Code >= 500 {
			t.Errorf("%s: HTTP %d: %s", what, rec.Code, rec.Body.String())
		}
	}

	const iters = 40
	var wg sync.WaitGroup
	algos := []string{"na", "pin", "pin-vo", "pin-vo*", "pin-par"}
	pfs := []string{``, `"pf":"linear","rho":0.9,"lambda":6,`, `"pf":"powerlaw","rho":0.5,"lambda":1.25,`}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				alg := algos[(g+i)%len(algos)]
				k := 0
				if i%3 == 0 && alg != "pin-vo*" {
					k = 3
				}
				pf, tau := pfs[(g+2*i)%len(pfs)], 0.2+0.1*float64((g+i)%7)
				if i%4 == 3 {
					pf, tau = ``, engineTau // served from the engine vectors
				}
				body := fmt.Sprintf(`{"algorithm":%q,%s"tau":%g,"k":%d,"explain":%v}`,
					alg, pf, tau, k, i%5 == 0)
				check("query "+body, do(t, s, "POST", "/v1/query", body, nil))
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := (g*iters + i) % len(objs)
				check("append", do(t, s, "POST", fmt.Sprintf("/v1/objects/%d/positions", id),
					fmt.Sprintf(`{"x":%d,"y":%d}`, i%8, (i+g)%8), nil))
				check("ingest", do(t, s, "POST", "/v1/ingest", fmt.Sprintf(
					`{"appends":[{"id":%d,"positions":[{"x":1,"y":%d}]},{"id":%d,"positions":[{"x":%d,"y":2}]}]}`,
					(id+1)%len(objs), i%8, (id+7)%len(objs), (i+3)%8), nil))
			}
		}(g)
	}
	wg.Wait()
	s.DrainSubscriptions()

	for _, body := range []string{
		`{"algorithm":"pin-vo","tau":0.45,"k":4}`,
		`{"algorithm":"pin","pf":"linear","rho":0.9,"lambda":6,"tau":0.3}`,
		queryBody("pin-par", engineTau, 4),
	} {
		var served, live QueryResponse
		do(t, s, "POST", "/v1/query", body, &served)
		do(t, s, "POST", "/v1/query", body[:len(body)-1]+`,"explain":true}`, &live)
		if served.Best != live.Best || !reflect.DeepEqual(served.TopK, live.TopK) {
			t.Errorf("%s: served answer %+v %+v, live %+v %+v", body, served.Best, served.TopK, live.Best, live.TopK)
		}
	}

	// The indexed queries above gathered across all three shards, so the
	// scatter counters must have moved: every merge is a scattered solve.
	var st struct {
		Shards struct {
			ScatterSolves int64 `json:"scatter_solves"`
			ScatterMerges int64 `json:"scatter_merges"`
		} `json:"shards"`
	}
	do(t, s, "GET", "/v1/status", "", &st)
	if st.Shards.ScatterMerges <= 0 || st.Shards.ScatterSolves < st.Shards.ScatterMerges {
		t.Errorf("scatter_solves = %d, scatter_merges = %d: want merges > 0 and solves >= merges",
			st.Shards.ScatterSolves, st.Shards.ScatterMerges)
	}
}
