package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pinocchio/internal/obs"
	"pinocchio/internal/probfn"
	"pinocchio/internal/store"
	"pinocchio/internal/wal"
)

// shardedPair builds two servers over the same population: a 1-shard
// baseline and an n-shard subject.
func shardedPair(t *testing.T, n int) (base, sharded *Server) {
	t.Helper()
	objs, cands := testPopulation(t, 80, 30)
	var err error
	if base, err = New(Config{Shards: 1}, objs, cands); err != nil {
		t.Fatalf("New(1 shard): %v", err)
	}
	if sharded, err = New(Config{Shards: n}, objs, cands); err != nil {
		t.Fatalf("New(%d shards): %v", n, err)
	}
	return base, sharded
}

// TestShardedQueryParity is the served scatter-gather guarantee: for
// every algorithm the n-shard server's /v1/query response is
// byte-identical (influences, best, Stats, merged EXPLAIN ledger) to
// the 1-shard server's, on the live path (explain) and on the index
// path, where the per-shard index builds sum to the 1-shard build.
func TestShardedQueryParity(t *testing.T) {
	for _, n := range []int{2, 4, 7} {
		base, sharded := shardedPair(t, n)
		cases := []struct {
			alg string
			k   int
		}{
			{"na", 0}, {"pin", 0}, {"pin-par", 0}, {"pin-vo", 0}, {"pin-vo*", 0},
			{"pin", 4}, {"pin-vo", 5},
		}
		for _, tc := range cases {
			name := fmt.Sprintf("n=%d/%s/k=%d", n, tc.alg, tc.k)
			body := fmt.Sprintf(`{"algorithm":%q,"tau":0.7,"k":%d,"no_cache":true,"explain":true}`, tc.alg, tc.k)
			var want, got QueryResponse
			if rec := do(t, base, "POST", "/v1/query", body, &want); rec.Code != http.StatusOK {
				t.Fatalf("%s: baseline query: %d %s", name, rec.Code, rec.Body.String())
			}
			if rec := do(t, sharded, "POST", "/v1/query", body, &got); rec.Code != http.StatusOK {
				t.Fatalf("%s: sharded query: %d %s", name, rec.Code, rec.Body.String())
			}
			stripVolatile(&want)
			stripVolatile(&got)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: sharded response diverged\nbase:    %+v\nsharded: %+v", name, want, got)
			}
		}
		// The index path: a first query builds every shard's index, a
		// second looks them up; both match the 1-shard server, Stats
		// included.
		body := `{"algorithm":"pin","tau":0.7,"no_cache":true}`
		for pass := 0; pass < 2; pass++ {
			var want, got QueryResponse
			do(t, base, "POST", "/v1/query", body, &want)
			do(t, sharded, "POST", "/v1/query", body, &got)
			stripVolatile(&want)
			stripVolatile(&got)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("n=%d pass %d: indexed scattered response diverged\nbase:    %+v\nsharded: %+v", n, pass, want, got)
			}
		}
	}
}

// TestShardedMutationParity applies the same mutation stream to both
// servers and re-checks query parity: object adds, position appends,
// cross-shard ingest batches, candidate add/remove, object removal.
func TestShardedMutationParity(t *testing.T) {
	base, sharded := shardedPair(t, 4)
	mutations := []struct {
		method, path, body string
	}{
		{"POST", "/v1/objects", `{"id":200,"positions":[{"x":1,"y":1},{"x":2,"y":2}]}`},
		{"POST", "/v1/objects", `{"id":201,"positions":[{"x":6,"y":6},{"x":7,"y":5}]}`},
		{"POST", "/v1/objects", `{"id":202,"positions":[{"x":3,"y":4}]}`},
		{"POST", "/v1/objects/200/positions", `{"positions":[{"x":2.5,"y":2.5}]}`},
		{"POST", "/v1/ingest", `{"appends":[{"id":200,"positions":[{"x":3,"y":3}]},{"id":201,"positions":[{"x":5.5,"y":5.5}]},{"id":202,"positions":[{"x":3.5,"y":4.5}]}]}`},
		{"POST", "/v1/candidates", `{"x":4.2,"y":4.2}`},
		{"PUT", "/v1/objects/5", `{"positions":[{"x":0.5,"y":0.5},{"x":1.5,"y":1.5}]}`},
		{"DELETE", "/v1/objects/7", ""},
		{"DELETE", "/v1/candidates/3", ""},
	}
	for i, m := range mutations {
		if rec := do(t, base, m.method, m.path, m.body, nil); rec.Code >= 300 {
			t.Fatalf("mutation %d on baseline: %d %s", i, rec.Code, rec.Body.String())
		}
		if rec := do(t, sharded, m.method, m.path, m.body, nil); rec.Code >= 300 {
			t.Fatalf("mutation %d on sharded: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	for _, alg := range []string{"na", "pin", "pin-par", "pin-vo"} {
		body := fmt.Sprintf(`{"algorithm":%q,"tau":0.7,"no_cache":true}`, alg)
		var want, got QueryResponse
		do(t, base, "POST", "/v1/query", body, &want)
		do(t, sharded, "POST", "/v1/query", body, &got)
		stripVolatile(&want)
		stripVolatile(&got)
		// Global epochs legitimately differ: candidate mutations bump
		// every shard's epoch, multi-shard ingests bump one per involved
		// shard.
		want.Epoch, got.Epoch = 0, 0
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: post-mutation sharded response diverged\nbase:    %+v\nsharded: %+v", alg, want, got)
		}
	}

	// /v1/best and /v1/influence go through the merged incremental
	// relations, not a solve; they must agree with the baseline too.
	var wantBest, gotBest struct {
		Best      CandidateJSON `json:"best"`
		Epoch     int64         `json:"epoch"`
		Objects   int           `json:"objects"`
		Algorithm string        `json:"algorithm"`
	}
	do(t, base, "GET", "/v1/best", "", &wantBest)
	do(t, sharded, "GET", "/v1/best", "", &gotBest)
	if wantBest.Best != gotBest.Best || wantBest.Objects != gotBest.Objects {
		t.Errorf("merged best diverged: base %+v, sharded %+v", wantBest, gotBest)
	}
	var wantInf, gotInf struct {
		Influence int `json:"influence"`
	}
	do(t, base, "GET", "/v1/influence/0", "", &wantInf)
	do(t, sharded, "GET", "/v1/influence/0", "", &gotInf)
	if wantInf != gotInf {
		t.Errorf("merged influence diverged: base %+v, sharded %+v", wantInf, gotInf)
	}
}

// TestShardedEpochAccounting pins the epoch algebra: an object op
// advances the global epoch by 1, a candidate op by the shard count,
// and the per-shard epochs in /v1/status always sum to the global.
func TestShardedEpochAccounting(t *testing.T) {
	const n = 4
	_, s := shardedPair(t, n)
	readStatus := func() (epoch int64, shardEpochs []int64, scatterSolves float64) {
		t.Helper()
		var st struct {
			Epoch  int64 `json:"epoch"`
			Shards struct {
				Count         int     `json:"count"`
				Epochs        []int64 `json:"epochs"`
				ScatterSolves float64 `json:"scatter_solves"`
			} `json:"shards"`
		}
		do(t, s, "GET", "/v1/status", "", &st)
		if st.Shards.Count != n {
			t.Fatalf("status shard count = %d, want %d", st.Shards.Count, n)
		}
		return st.Epoch, st.Shards.Epochs, st.Shards.ScatterSolves
	}
	sum := func(es []int64) (t int64) {
		for _, e := range es {
			t += e
		}
		return t
	}

	epoch0, es, _ := readStatus()
	if epoch0 != 0 || sum(es) != 0 {
		t.Fatalf("fresh server epoch %d, shard epochs %v", epoch0, es)
	}
	do(t, s, "POST", "/v1/objects", `{"id":300,"positions":[{"x":1,"y":1}]}`, nil)
	epoch1, es1, _ := readStatus()
	if epoch1 != 1 || sum(es1) != 1 {
		t.Fatalf("after object add: epoch %d, shard epochs %v", epoch1, es1)
	}
	do(t, s, "POST", "/v1/candidates", `{"x":2,"y":2}`, nil)
	epoch2, es2, _ := readStatus()
	if epoch2 != 1+n || sum(es2) != 1+n {
		t.Fatalf("after candidate add: epoch %d (want %d), shard epochs %v", epoch2, 1+n, es2)
	}
	for _, e := range es2 {
		if e < 1 {
			t.Fatalf("candidate add skipped a shard: epochs %v", es2)
		}
	}

	// A scattered query bumps the scatter counters.
	do(t, s, "POST", "/v1/query", `{"algorithm":"pin","tau":0.7,"no_cache":true}`, nil)
	_, _, solves := readStatus()
	if solves < 1 {
		t.Fatalf("scatter_solves = %v after a scattered query", solves)
	}
}

// TestNegativeWorkersRejected is the satellite-1 regression: a
// negative workers value used to be silently treated as "pick
// GOMAXPROCS"; it must be a 400.
func TestNegativeWorkersRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, "POST", "/v1/query", `{"algorithm":"pin-par","tau":0.7,"workers":-2}`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("workers=-2: code %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
	if body := rec.Body.String(); !containsAll(body, "workers", "-2") {
		t.Fatalf("error body %q does not name the bad field", body)
	}
	// Zero stays the documented "pick for me" default.
	if rec := do(t, s, "POST", "/v1/query", `{"algorithm":"pin-par","tau":0.7,"workers":0}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("workers=0: code %d, want 200", rec.Code)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestMaxInflightDerivation is the satellite-3 regression: the
// admission cap must scale with the shard count, not just the
// GOMAXPROCS captured at construction, and /v1/status must explain
// the derivation.
func TestMaxInflightDerivation(t *testing.T) {
	shards := 2 * runtime.GOMAXPROCS(0) // force shards to dominate the max
	s := newTestServer(t, Config{Shards: shards})
	want := 2 * shards
	if got := s.cfg.MaxInflight; got != want {
		t.Fatalf("MaxInflight = %d, want %d (2 x max(gomaxprocs=%d, shards=%d))",
			got, want, runtime.GOMAXPROCS(0), shards)
	}
	// An explicit cap still wins.
	s2 := newTestServer(t, Config{Shards: shards, MaxInflight: 3})
	if got := s2.cfg.MaxInflight; got != 3 {
		t.Fatalf("explicit MaxInflight overridden: %d", got)
	}
	var st struct {
		Admission struct {
			MaxInflight int    `json:"max_inflight"`
			DerivedFrom string `json:"derived_from"`
			Shards      int    `json:"shards"`
			ShedTotal   int64  `json:"shed_total"`
		} `json:"admission"`
	}
	do(t, s, "GET", "/v1/status", "", &st)
	if st.Admission.MaxInflight != want || st.Admission.Shards != shards || st.Admission.DerivedFrom == "" {
		t.Fatalf("admission block = %+v", st.Admission)
	}
}

// shardedDurableServer opens (or reopens) an n-shard durable server
// in dir, recovering whatever the per-shard streams hold.
func shardedDurableServer(t *testing.T, dir string, n int) (*Server, []*store.Store) {
	t.Helper()
	stores, err := store.OpenSharded(dir, n, store.Options{Fsync: wal.PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	results, err := store.RecoverSharded(stores, probfn.DefaultPowerLaw(), 0.7, "test-tag")
	if err != nil {
		t.Fatal(err)
	}
	// Live solves (no index cache): the recovery checks compare Stats,
	// which the index path sets to each request's own build work.
	srv, err := NewFromRecovery(Config{Stores: stores, CheckpointEvery: -1, PlanCacheSize: -1}, results)
	if err != nil {
		t.Fatal(err)
	}
	return srv, stores
}

// TestShardedDurableRecovery drives mutations through an n-shard
// durable server, restarts it from the per-shard streams (with and
// without checkpoints), and checks the recovered state answers
// identically.
func TestShardedDurableRecovery(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	srv, stores := shardedDurableServer(t, dir, n)

	doJSON(t, srv, "POST", "/v1/candidates", `{"x":1,"y":1}`)
	doJSON(t, srv, "POST", "/v1/candidates", `{"x":5,"y":5}`)
	for id := 0; id < 12; id++ {
		doJSON(t, srv, "POST", "/v1/objects",
			fmt.Sprintf(`{"id":%d,"positions":[{"x":%d,"y":1},{"x":%d,"y":5}]}`, id, id%7, id%5))
	}
	doJSON(t, srv, "POST", "/v1/ingest",
		`{"appends":[{"id":0,"positions":[{"x":1,"y":1}]},{"id":1,"positions":[{"x":5,"y":5}]},{"id":2,"positions":[{"x":3,"y":3}]}]}`)
	doJSON(t, srv, "DELETE", "/v1/objects/3", "")

	before := doJSON(t, srv, "POST", "/v1/query", `{"algorithm":"pin","tau":0.7,"no_cache":true}`)
	bestBefore := doJSON(t, srv, "GET", "/v1/best", "")
	statusBefore := doJSON(t, srv, "GET", "/v1/status", "")
	if statusBefore["durable"] != true {
		t.Fatalf("status not durable: %v", statusBefore["durable"])
	}

	// Restart 1: pure log replay.
	for _, st := range stores {
		st.Close()
	}
	srv2, stores2 := shardedDurableServer(t, dir, n)
	after := doJSON(t, srv2, "POST", "/v1/query", `{"algorithm":"pin","tau":0.7,"no_cache":true}`)
	bestAfter := doJSON(t, srv2, "GET", "/v1/best", "")
	for _, key := range []string{"best", "objects", "candidates", "epoch", "stats"} {
		if fmt.Sprint(before[key]) != fmt.Sprint(after[key]) {
			t.Errorf("replay: query %s diverged: %v vs %v", key, before[key], after[key])
		}
	}
	if fmt.Sprint(bestBefore["best"]) != fmt.Sprint(bestAfter["best"]) {
		t.Errorf("replay: best diverged: %v vs %v", bestBefore["best"], bestAfter["best"])
	}

	// Restart 2: from per-shard checkpoints plus tail replay.
	if _, err := srv2.CheckpointNow(); err != nil {
		t.Fatalf("CheckpointNow: %v", err)
	}
	doJSON(t, srv2, "POST", "/v1/objects/4/positions", `{"positions":[{"x":4.5,"y":4.5}]}`)
	want := doJSON(t, srv2, "POST", "/v1/query", `{"algorithm":"pin","tau":0.7,"no_cache":true}`)
	for _, st := range stores2 {
		st.Close()
	}
	srv3, stores3 := shardedDurableServer(t, dir, n)
	defer func() {
		for _, st := range stores3 {
			st.Close()
		}
	}()
	got := doJSON(t, srv3, "POST", "/v1/query", `{"algorithm":"pin","tau":0.7,"no_cache":true}`)
	for _, key := range []string{"best", "objects", "candidates", "epoch", "stats"} {
		if fmt.Sprint(want[key]) != fmt.Sprint(got[key]) {
			t.Errorf("checkpoint restart: query %s diverged: %v vs %v", key, want[key], got[key])
		}
	}

	// A shard-count change on an existing directory must be refused.
	if _, err := store.OpenSharded(dir, n+1, store.Options{Fsync: wal.PolicyOff}); err == nil {
		t.Fatal("OpenSharded with a different shard count succeeded")
	}
}

// TestShardedStatusJSONShape decodes the full status body on a
// sharded server so a field rename breaks loudly.
func TestShardedStatusJSONShape(t *testing.T) {
	_, s := shardedPair(t, 2)
	rec := do(t, s, "GET", "/v1/status", "", nil)
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"shards", "admission", "epoch", "objects", "candidates"} {
		if _, ok := body[key]; !ok {
			t.Errorf("status missing %q: %s", key, rec.Body.String())
		}
	}
}

// TestShardedObjectsGauge pins /metrics' pinocchio_dynamic_objects to
// the population /v1/status counts on a 2-shard server: each shard
// engine sets the gauge to its own count as it applies an op, so the
// server must put the total back after boot and after every mutation,
// also when writers on both shards interleave.
func TestShardedObjectsGauge(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	objs, cands := testPopulation(t, 40, 25)
	s, err := New(Config{Shards: 2}, objs, cands)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	check := func(step string, want int) {
		t.Helper()
		var status struct {
			Objects int `json:"objects"`
		}
		do(t, s, "GET", "/v1/status", "", &status)
		if status.Objects != want {
			t.Fatalf("%s: status objects %d, want %d", step, status.Objects, want)
		}
		body := do(t, s, "GET", "/metrics", "", nil).Body.String()
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, "pinocchio_dynamic_objects "); ok {
				if got, err := strconv.ParseFloat(v, 64); err != nil || got != float64(want) {
					t.Fatalf("%s: /metrics %q, want pinocchio_dynamic_objects %d", step, line, want)
				}
				return
			}
		}
		t.Fatalf("%s: /metrics has no pinocchio_dynamic_objects line", step)
	}
	check("boot", 40)
	if rec := do(t, s, "POST", "/v1/objects", `{"id":100,"positions":[{"x":1,"y":1}]}`, nil); rec.Code != http.StatusCreated {
		t.Fatalf("add object: %d %s", rec.Code, rec.Body.String())
	}
	check("add object", 41)
	if rec := do(t, s, "DELETE", "/v1/objects/3", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("remove object: %d %s", rec.Code, rec.Body.String())
	}
	check("remove object", 40)
	// Objects 0..5 live on both shards, so this batch takes the
	// cross-shard ingest path; the single append after it stays on one.
	var appends []string
	for id := 0; id < 6; id++ {
		if id != 3 {
			appends = append(appends, fmt.Sprintf(`{"id":%d,"positions":[{"x":2,"y":2}]}`, id))
		}
	}
	for _, body := range []string{
		`{"appends":[` + strings.Join(appends, ",") + `]}`,
		`{"appends":[{"id":7,"positions":[{"x":3,"y":3}]}]}`,
	} {
		if rec := do(t, s, "POST", "/v1/ingest", body, nil); rec.Code != http.StatusOK {
			t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
		}
		check("ingest", 40)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				id := 200 + 10*w + i
				for _, req := range [][2]string{
					{"/v1/objects", fmt.Sprintf(`{"id":%d,"positions":[{"x":1,"y":1}]}`, id)},
					{"/v1/ingest", fmt.Sprintf(`{"appends":[{"id":%d,"positions":[{"x":2,"y":2}]}]}`, id)},
				} {
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("POST", req[0], strings.NewReader(req[1])))
					if rec.Code >= 300 {
						t.Errorf("POST %s: %d %s", req[0], rec.Code, rec.Body.String())
					}
				}
			}
		}(w)
	}
	wg.Wait()
	check("concurrent writers", 60)
}
