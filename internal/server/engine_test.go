package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"pinocchio/internal/core"
	"pinocchio/internal/geo"
	"pinocchio/internal/subscribe"
)

// engineTau is the test servers' engine τ (Config.Tau's default): a
// /v1/query or subscription re-solve at this τ and the default PF reads
// the shard snapshots' engine vectors.
const engineTau = 0.7

// applyBoth sends one mutation to every server and fails on an error.
func applyBoth(t *testing.T, servers []*Server, method, path, body string) {
	t.Helper()
	for _, s := range servers {
		if rec := do(t, s, method, path, body, nil); rec.Code >= 300 {
			t.Fatalf("%s %s %s: %d %s", method, path, body, rec.Code, rec.Body.String())
		}
	}
}

// TestEnginePathParity: at the engine's own PF/τ, /v1/query (pin,
// pin-vo, pin-par, top-k) and SolveTopK answer from the shard
// snapshots' engine vectors. Over a random ingest stream with some
// object and candidate churn, on 1 and 3 shards, every such answer must
// equal a live server's (PlanCacheSize: -1) and NA's at the same epoch,
// report a lookup's Stats, and build no index.
func TestEnginePathParity(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			objs, cands := testPopulation(t, 40, 25)
			s, err := New(Config{Shards: shards}, objs, cands)
			if err != nil {
				t.Fatal(err)
			}
			live, err := New(Config{Shards: shards, PlanCacheSize: -1}, objs, cands)
			if err != nil {
				t.Fatal(err)
			}
			servers := []*Server{s, live}
			rng := rand.New(rand.NewSource(int64(shards)))
			point := func() string {
				return fmt.Sprintf(`{"x":%g,"y":%g}`, rng.Float64()*8, rng.Float64()*8)
			}
			queries := []struct {
				alg string
				k   int
			}{{"pin", 0}, {"pin-vo", 0}, {"pin-par", 0}, {"pin", 4}, {"pin-vo", 5}, {"pin-par", 3}}

			for step := 0; step < 40; step++ {
				switch step % 10 {
				case 4:
					applyBoth(t, servers, "PUT", fmt.Sprintf("/v1/objects/%d", rng.Intn(len(objs))),
						fmt.Sprintf(`{"positions":[%s,%s]}`, point(), point()))
				case 9:
					applyBoth(t, servers, "POST", "/v1/candidates", point())
				default:
					var appends []string
					for _, id := range rng.Perm(len(objs))[:1+rng.Intn(4)] {
						appends = append(appends, fmt.Sprintf(`{"id":%d,"positions":[%s]}`, id, point()))
					}
					applyBoth(t, servers, "POST", "/v1/ingest", `{"appends":[`+strings.Join(appends, ",")+`]}`)
				}

				sn := s.snapshotNow()
				na, err := core.NA(&core.Problem{Objects: sn.objects, Candidates: sn.candPts, PF: s.cfg.PF, Tau: engineTau})
				if err != nil {
					t.Fatal(err)
				}
				ranked := core.Rank(na.Influences)
				matchesNA := func(rank int, id, inf int) bool {
					return id == sn.candIDs[ranked[rank].Index] && inf == ranked[rank].Influence
				}

				for _, q := range queries {
					body := queryBody(q.alg, engineTau, q.k)
					var got, want QueryResponse
					if rec := do(t, s, "POST", "/v1/query", body, &got); rec.Code != http.StatusOK {
						t.Fatalf("step %d %s: %d %s", step, body, rec.Code, rec.Body.String())
					}
					do(t, live, "POST", "/v1/query", body, &want)
					if got.Epoch != sn.epoch || want.Epoch != sn.epoch {
						t.Fatalf("step %d %s: epochs %d (engine) and %d (live), snapshot %d", step, body, got.Epoch, want.Epoch, sn.epoch)
					}
					if !reflect.DeepEqual(answerOf(got), answerOf(want)) {
						t.Errorf("step %d %s: engine answer diverged from live\ngot:  %+v\nwant: %+v", step, body, got, want)
					}
					if st := (core.Stats{PairsTotal: want.Stats.PairsTotal}); got.Stats != st {
						t.Errorf("step %d %s: engine-served stats %+v, want %+v", step, body, got.Stats, st)
					}
					if !matchesNA(0, got.Best.ID, got.Best.Influence) {
						t.Errorf("step %d %s: best %+v, NA's is id %d influence %d",
							step, body, got.Best, sn.candIDs[na.BestIndex], na.BestInfluence)
					}
					for i, c := range got.TopK {
						if !matchesNA(i, c.ID, c.Influence) {
							t.Errorf("step %d %s: rank %d is %+v, NA's is id %d influence %d",
								step, body, i, c, sn.candIDs[ranked[i].Index], ranked[i].Influence)
						}
					}
				}

				for _, alg := range []string{"pin", "pin-par"} {
					q := &subscribe.Query{Tau: engineTau, Algorithm: alg}
					got, err := s.SolveTopK(q)
					if err != nil {
						t.Fatal(err)
					}
					want, err := live.SolveTopK(q)
					if err != nil {
						t.Fatal(err)
					}
					if got.Epoch != sn.epoch || want.Epoch != sn.epoch {
						t.Fatalf("step %d SolveTopK %s: epochs %d (engine) and %d (live), snapshot %d", step, alg, got.Epoch, want.Epoch, sn.epoch)
					}
					if !reflect.DeepEqual(got.Ranked, want.Ranked) {
						t.Errorf("step %d SolveTopK %s: engine vector diverged from live\ngot:  %v\nwant: %v", step, alg, got.Ranked, want.Ranked)
					}
					for i, c := range got.Ranked {
						if !matchesNA(i, c.ID, c.Influence) {
							t.Errorf("step %d SolveTopK %s: rank %d is %+v, NA's is id %d influence %d",
								step, alg, i, c, sn.candIDs[ranked[i].Index], ranked[i].Influence)
						}
					}
				}
			}
			if n, _ := s.indexes.stats(); n != 0 {
				t.Errorf("engine-PF/τ traffic left %d influence indexes; it should build none", n)
			}
		})
	}
}

// TestEngineViewsAgree: /v1/best, /v1/influence/{id} and a /v1/query
// pin at the engine's τ read one snapshot's engine vectors, so after
// every write they agree with each other at one reported epoch, on 1
// and 3 shards.
func TestEngineViewsAgree(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			objs, cands := testPopulation(t, 40, 25)
			s, err := New(Config{Shards: shards}, objs, cands)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(10 + shards)))
			for step := 0; step < 12; step++ {
				id := rng.Intn(len(objs))
				do(t, s, "POST", fmt.Sprintf("/v1/objects/%d/positions", id),
					fmt.Sprintf(`{"x":%g,"y":%g}`, rng.Float64()*8, rng.Float64()*8), nil)

				var q QueryResponse
				do(t, s, "POST", "/v1/query", queryBody("pin", engineTau, len(cands)), &q)
				var best struct {
					Best  CandidateJSON `json:"best"`
					Epoch int64         `json:"epoch"`
				}
				do(t, s, "GET", "/v1/best", "", &best)
				if best.Epoch != q.Epoch || best.Best != q.Best {
					t.Errorf("step %d: /v1/best %+v at epoch %d, /v1/query best %+v at epoch %d",
						step, best.Best, best.Epoch, q.Best, q.Epoch)
				}
				for _, c := range q.TopK {
					var inf struct {
						Candidate CandidateJSON `json:"candidate"`
						Objects   int           `json:"objects"`
						Epoch     int64         `json:"epoch"`
					}
					do(t, s, "GET", fmt.Sprintf("/v1/influence/%d", c.ID), "", &inf)
					if inf.Epoch != q.Epoch || inf.Candidate != c || inf.Objects != q.Objects {
						t.Errorf("step %d: /v1/influence/%d %+v (%d objects) at epoch %d, /v1/query %+v (%d objects) at epoch %d",
							step, c.ID, inf.Candidate, inf.Objects, inf.Epoch, c, q.Objects, q.Epoch)
					}
				}
			}
			if rec := do(t, s, "GET", "/v1/influence/999", "", nil); rec.Code != http.StatusNotFound {
				t.Errorf("unknown candidate: HTTP %d, want 404", rec.Code)
			}
		})
	}
}

// TestEngineViewsEpochUnderWrites checks that /v1/best and
// /v1/influence stamp the epoch of the view they report while a writer
// runs: one object toggles in and out next to candidate 0, so from
// epoch 1 on every even epoch has candidate 0 influenced and on top,
// every odd one not.
func TestEngineViewsEpochUnderWrites(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := New(Config{Shards: shards}, nil, []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 10}})
			if err != nil {
				t.Fatal(err)
			}
			// A fixed object on candidate 1 (epoch 1) makes it the top-1 at
			// odd epochs; the toggled object, present at even ones, ties
			// candidate 0 with it, and the id tie-break puts candidate 0 on
			// top.
			do(t, s, "POST", "/v1/objects", `{"id":1,"positions":[{"x":10,"y":10}]}`, nil)
			const toggles = 200
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < toggles; i++ {
					if rec := do(t, s, "POST", "/v1/objects", `{"id":2,"positions":[{"x":0,"y":0}]}`, nil); rec.Code != http.StatusCreated {
						t.Errorf("add toggle object: %d %s", rec.Code, rec.Body.String())
						return
					}
					if rec := do(t, s, "DELETE", "/v1/objects/2", "", nil); rec.Code != http.StatusOK {
						t.Errorf("remove toggle object: %d %s", rec.Code, rec.Body.String())
						return
					}
				}
			}()
			// A failing read below ends the test early; wait for the
			// writer either way.
			defer func() { <-done }()
			for reads := 0; ; reads++ {
				select {
				case <-done:
					if reads == 0 {
						t.Fatal("no reads overlapped the writer")
					}
					return
				default:
				}
				var best struct {
					Best  CandidateJSON `json:"best"`
					Epoch int64         `json:"epoch"`
				}
				do(t, s, "GET", "/v1/best", "", &best)
				if on := best.Epoch%2 == 0; on != (best.Best.ID == 0) {
					t.Fatalf("/v1/best reports candidate %d at epoch %d", best.Best.ID, best.Epoch)
				}
				var inf struct {
					Candidate CandidateJSON `json:"candidate"`
					Epoch     int64         `json:"epoch"`
				}
				do(t, s, "GET", "/v1/influence/0", "", &inf)
				if on := inf.Epoch%2 == 0; on != (inf.Candidate.Influence == 1) {
					t.Fatalf("/v1/influence/0 reports influence %d at epoch %d", inf.Candidate.Influence, inf.Epoch)
				}
			}
		})
	}
}
