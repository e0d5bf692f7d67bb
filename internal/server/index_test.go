package server

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"pinocchio/internal/core"
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

// TestPlanCacheZeroDisabled is the regression test for the max <= 0
// edge of the index LRU: a zero-capacity cache builds for its caller
// and keeps nothing (never "insert then immediately evict"), and a
// server with the cache disabled answers live and holds no index.
func TestPlanCacheZeroDisabled(t *testing.T) {
	p := &core.Problem{
		Objects:    []*object.Object{object.MustNew(0, []geo.Point{{X: 1, Y: 1}})},
		Candidates: []geo.Point{{X: 1, Y: 1.5}},
		PF:         probfn.DefaultPowerLaw(),
	}
	for _, max := range []int{0, -1} {
		c := newIndexCache(max)
		key := indexKey{snap: &shardSnap{}, pf: "p"}
		builds := 0
		build := func(lo, hi float64) (*core.Index, error) {
			builds++
			return core.BuildIndex(p, lo, hi, nil)
		}
		for i := 0; i < 2; i++ {
			if _, _, err := c.get(context.Background(), key, 0.5, build); err != nil {
				t.Fatal(err)
			}
		}
		if n, bytes := c.stats(); n != 0 || bytes != 0 {
			t.Errorf("max=%d: %d entries (%d bytes) after gets, want none", max, n, bytes)
		}
		if builds != 2 {
			t.Errorf("max=%d: %d builds for 2 gets, want 2 (nothing kept)", max, builds)
		}
	}

	s := newTestServer(t, Config{PlanCacheSize: -1})
	do(t, s, "POST", "/v1/query", queryBody("pin", 0.7, 0), nil)
	if n, _ := s.indexes.stats(); n != 0 {
		t.Errorf("disabled server holds %d indexes", n)
	}
}

// indexTau is a τ off the test servers' engine τ (0.7): at the
// engine's own PF/τ, queries read the engines' vectors, so tests of the
// influence index and of its build spans query here.
const indexTau = 0.69

// queryBody builds a /v1/query body.
func queryBody(alg string, tau float64, k int) string {
	return fmt.Sprintf(`{"algorithm":%q,"tau":%g,"k":%d}`, alg, tau, k)
}

// stripVolatile zeroes the fields legitimately allowed to differ
// between two solves of the same query: wall time and the per-request
// trace ID.
func stripVolatile(r *QueryResponse) {
	r.ElapsedMs = 0
	r.TraceID = ""
}

// answerOf strips r down to its answer: everything but wall time, trace
// ID and Stats, which on an index-served query describe the request's
// own work (a build's counters, or PairsTotal alone on a lookup).
func answerOf(r QueryResponse) QueryResponse {
	stripVolatile(&r)
	r.Stats = core.Stats{}
	return r
}

// checkLiveStats asserts the index server's live path (explain) reports
// the same Stats as a live server for body — the solver-work parity the
// index path no longer carries.
func checkLiveStats(t *testing.T, name string, indexed, live *Server, body string) {
	t.Helper()
	var got, want QueryResponse
	do(t, indexed, "POST", "/v1/query", body[:len(body)-1]+`,"explain":true}`, &got)
	do(t, live, "POST", "/v1/query", body, &want)
	if got.Stats != want.Stats {
		t.Errorf("%s: live-path stats differ\nindexed server: %+v\nlive server:    %+v", name, got.Stats, want.Stats)
	}
}

// TestPlanParityServed is the served-path parity guarantee: for every
// algorithm, an index-serving server returns answers byte-identical
// (best, top-k) to a server with the index cache disabled, a repeat
// (index lookup) matches the first response, a lookup's Stats hold
// PairsTotal alone, and the live paths of both servers agree on Stats.
func TestPlanParityServed(t *testing.T) {
	warm := newTestServer(t, Config{})                  // index cache on (default 32)
	cold := newTestServer(t, Config{PlanCacheSize: -1}) // always solves live

	cases := []struct {
		alg string
		k   int
	}{
		{"na", 0}, {"pin", 0}, {"pin-vo", 0}, {"pin-vo*", 0}, {"pin-par", 0},
		{"pin-vo", 5}, {"pin", 4},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/k=%d", tc.alg, tc.k)
		body := queryBody(tc.alg, 0.7, tc.k)

		var first, second, base QueryResponse
		if rec := do(t, warm, "POST", "/v1/query", body, &first); rec.Code != http.StatusOK {
			t.Fatalf("%s: warm server first query: %d %s", name, rec.Code, rec.Body.String())
		}
		if rec := do(t, warm, "POST", "/v1/query", body, &second); rec.Code != http.StatusOK {
			t.Fatalf("%s: warm server second query: %d %s", name, rec.Code, rec.Body.String())
		}
		if rec := do(t, cold, "POST", "/v1/query", body, &base); rec.Code != http.StatusOK {
			t.Fatalf("%s: cold server query: %d %s", name, rec.Code, rec.Body.String())
		}
		if !reflect.DeepEqual(answerOf(first), answerOf(second)) {
			t.Errorf("%s: first and repeated responses differ\nfirst:  %+v\nrepeat: %+v", name, first, second)
		}
		if !reflect.DeepEqual(answerOf(first), answerOf(base)) {
			t.Errorf("%s: indexed and live responses differ\nindexed: %+v\nlive:    %+v", name, first, base)
		}
		if warm.indexServes(tc.alg, false) {
			if want := (core.Stats{PairsTotal: base.Stats.PairsTotal}); second.Stats != want {
				t.Errorf("%s: lookup stats %+v, want %+v", name, second.Stats, want)
			}
		} else if first.Stats != base.Stats || second.Stats != base.Stats {
			t.Errorf("%s: live stats differ: %+v, %+v, want %+v", name, first.Stats, second.Stats, base.Stats)
		}
		checkLiveStats(t, name, warm, cold, body)
	}
}

// TestPlanCacheKeying: distinct PFs get distinct indexes while a new τ
// widens its PF's index in place, and each returns the same answer as
// a live solve of the same parameters.
func TestPlanCacheKeying(t *testing.T) {
	s := newTestServer(t, Config{})
	cold := newTestServer(t, Config{PlanCacheSize: -1})

	params := []struct {
		body    string
		entries int
	}{
		{fmt.Sprintf(`{"algorithm":"pin-vo","tau":%g}`, indexTau), 1},
		{`{"algorithm":"pin-vo","tau":0.5}`, 1},
		{`{"algorithm":"pin-vo","pf":"linear","rho":0.9,"lambda":6,"tau":0.5}`, 2},
		{`{"algorithm":"pin-vo","pf":"powerlaw","rho":0.5,"lambda":1.25,"tau":0.5}`, 3},
		{fmt.Sprintf(`{"algorithm":"pin-vo","tau":%g}`, indexTau), 3},
	}
	for i, pc := range params {
		var got, want QueryResponse
		// Twice on the indexed server: the second run is a lookup.
		do(t, s, "POST", "/v1/query", pc.body, &got)
		do(t, s, "POST", "/v1/query", pc.body, &got)
		do(t, cold, "POST", "/v1/query", pc.body, &want)
		if !reflect.DeepEqual(answerOf(got), answerOf(want)) {
			t.Errorf("params[%d]: indexed answer diverged\ngot:  %+v\nwant: %+v", i, got, want)
		}
		if wantSt := (core.Stats{PairsTotal: want.Stats.PairsTotal}); got.Stats != wantSt {
			t.Errorf("params[%d]: lookup stats %+v, want %+v", i, got.Stats, wantSt)
		}
		if n, _ := s.indexes.stats(); n != pc.entries {
			t.Errorf("params[%d]: index entries = %d, want %d (one per PF)", i, n, pc.entries)
		}
		checkLiveStats(t, fmt.Sprintf("params[%d]", i), s, cold, pc.body)
	}
}

// TestPlanCacheEpochInvalidation: a mutation moves the epoch, so the
// next query must not reuse the stale index — its answer has to reflect
// the mutation.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	s := newTestServer(t, Config{})
	body := queryBody("pin", indexTau, 0)

	var before QueryResponse
	do(t, s, "POST", "/v1/query", body, &before)
	do(t, s, "POST", "/v1/query", body, &before) // warm the index

	// Add a far-away cluster of new objects: influence counts stay the
	// same but the population (and therefore the solve) must change.
	var bestView struct {
		Best CandidateJSON `json:"best"`
	}
	do(t, s, "GET", "/v1/best", "", &bestView)
	cand := bestView.Best
	for i := 0; i < 30; i++ {
		b := fmt.Sprintf(`{"id":%d,"positions":[{"x":%g,"y":%g},{"x":%g,"y":%g}]}`,
			1000+i, cand.X+20, cand.Y+20, cand.X+20.001, cand.Y+20.001)
		if rec := do(t, s, "POST", "/v1/objects", b, nil); rec.Code != http.StatusCreated {
			t.Fatalf("add object: %d %s", rec.Code, rec.Body.String())
		}
	}
	var after QueryResponse
	do(t, s, "POST", "/v1/query", body, &after)
	if after.Epoch == before.Epoch {
		t.Fatalf("epoch did not move after mutations")
	}
	if after.Objects != before.Objects+30 {
		t.Errorf("object count %d, want %d — stale snapshot?", after.Objects, before.Objects+30)
	}
	// The far-away cluster is outside every candidate's reach, so
	// influence counts must be unchanged — but the solve must have run
	// against the new population (PairsTotal scales with objects).
	if after.Stats.PairsTotal <= before.Stats.PairsTotal {
		t.Errorf("PairsTotal %d not above pre-mutation %d — stale index read?",
			after.Stats.PairsTotal, before.Stats.PairsTotal)
	}

	// Cross-check the post-mutation answer against a live server seeded
	// the same way.
	cold := newTestServer(t, Config{PlanCacheSize: -1})
	for i := 0; i < 30; i++ {
		b := fmt.Sprintf(`{"id":%d,"positions":[{"x":%g,"y":%g},{"x":%g,"y":%g}]}`,
			1000+i, cand.X+20, cand.Y+20, cand.X+20.001, cand.Y+20.001)
		do(t, cold, "POST", "/v1/objects", b, nil)
	}
	var want QueryResponse
	do(t, cold, "POST", "/v1/query", body, &want)
	if !reflect.DeepEqual(answerOf(after), answerOf(want)) {
		t.Errorf("post-mutation indexed answer diverged\ngot:  %+v\nwant: %+v", after, want)
	}
	if after.Stats.PairsTotal != want.Stats.PairsTotal || after.Stats.Validated == 0 {
		t.Errorf("post-mutation query did not rebuild: stats %+v", after.Stats)
	}
	checkLiveStats(t, "post-mutation", s, cold, body)
}
