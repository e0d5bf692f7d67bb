package load

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Route mirrors the daemon's object-to-shard routing (a splitmix64
// finalizer over the id, reduced mod n). The checker needs it only to
// enumerate the per-shard interleavings a snapshot may legitimately
// combine; Run verifies it against the daemon's per-shard object
// counts before trusting it.
func Route(id, n int) int {
	if n <= 1 {
		return 0
	}
	z := uint64(int64(id))
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// subRecord is one applied per-shard mutation: it moved the global
// epoch (the sum of the shard epochs) to epoch.
type subRecord struct {
	epoch   int64
	shard   int
	appends []Append
	// span is the number of epochs the record covers: 1, except for a
	// multi-shard ingest batch recorded whole because routing is unknown.
	span int64
}

// history is the mutation log a write workload produced, from which
// the population at any epoch is rebuilt. Records come from write
// acknowledgements: every applied sub-record bumps the global epoch by
// exactly one, so the acknowledged epochs identify the order in which
// each shard applied them.
type history struct {
	seed    [][]Point
	base    int64 // epoch before the first record
	recs    []subRecord
	shards  int
	routeOK bool // Route matches the daemon, so shard chains are known
	// firstGap is the first epoch no acknowledged record accounts for
	// (a write that failed ambiguously may still have applied); answers
	// at or past it cannot be checked. inside holds epochs strictly
	// inside a multi-epoch record, whose population is unknown.
	firstGap int64
	inside   map[int64]bool
}

func (h *history) sort() {
	sort.Slice(h.recs, func(i, j int) bool { return h.recs[i].epoch < h.recs[j].epoch })
	h.firstGap = -1
	h.inside = map[int64]bool{}
	want := h.base
	for i := range h.recs {
		r := &h.recs[i]
		if r.span < 0 {
			r.span = r.epoch - want
		}
		if r.epoch != want+r.span {
			h.firstGap = want + 1
			return
		}
		for e := want + 1; e < r.epoch; e++ {
			h.inside[e] = true
		}
		want = r.epoch
	}
}

// checkable reports whether the population at epoch e is known.
func (h *history) checkable(e int64) bool {
	return e >= h.base && (h.firstGap < 0 || e < h.firstGap) && !h.inside[e]
}

// evaluator computes exact influence vectors of history states for one
// PF/τ, caching each object's influence row per position count.
type evaluator struct {
	o     *Oracle
	cands []Point
	full  [][]Point // every object's positions: seed, then appends in applied order
	seedN []int
	rows  map[[2]int][]int32
	base  []int
}

func newEvaluator(o *Oracle, cands []Point, h *history) *evaluator {
	ev := &evaluator{o: o, cands: cands, rows: map[[2]int][]int32{}}
	ev.full = make([][]Point, len(h.seed))
	ev.seedN = make([]int, len(h.seed))
	for i, p := range h.seed {
		ev.full[i] = append([]Point(nil), p...)
		ev.seedN[i] = len(p)
	}
	for _, r := range h.recs {
		for _, a := range r.appends {
			ev.full[a.ID] = append(ev.full[a.ID], a.Positions...)
		}
	}
	ev.base = o.Influences(cands, h.seed)
	return ev
}

func (ev *evaluator) row(id, n int) []int32 {
	k := [2]int{id, n}
	r, ok := ev.rows[k]
	if !ok {
		r = ev.o.Row(ev.cands, ev.full[id][:n])
		ev.rows[k] = r
	}
	return r
}

// vector returns the influence vector when object id holds npos[id]
// positions (objects absent from npos hold their seed positions).
func (ev *evaluator) vector(npos map[int]int) []int {
	v := append([]int(nil), ev.base...)
	for id, n := range npos {
		if n == ev.seedN[id] {
			continue
		}
		for _, j := range ev.row(id, ev.seedN[id]) {
			v[j]--
		}
		for _, j := range ev.row(id, n) {
			v[j]++
		}
	}
	return v
}

// states returns the position counts of every population a snapshot
// reporting epoch e may have seen: first the natural one (every record
// up to e), then — when shard routing is known — the interleavings
// that take up to three records more from one shard's chain and as many
// fewer from another's. A snapshot assembles shards one after another,
// so it can combine an older state of one shard with a newer state of
// another; the sum of the shard epochs is all the daemon reports.
func (h *history) states(e int64, evSeedN []int) []map[int]int {
	count := func(take []int) map[int]int {
		npos := map[int]int{}
		seen := make([]int, h.shards)
		for _, r := range h.recs {
			if seen[r.shard] >= take[r.shard] {
				continue
			}
			seen[r.shard]++
			for _, a := range r.appends {
				if _, ok := npos[a.ID]; !ok {
					npos[a.ID] = evSeedN[a.ID]
				}
				npos[a.ID] += len(a.Positions)
			}
		}
		return npos
	}
	natural := make([]int, h.shards)
	chain := make([]int, h.shards)
	for _, r := range h.recs {
		chain[r.shard]++
		if r.epoch <= e {
			natural[r.shard]++
		}
	}
	out := []map[int]int{count(natural)}
	if !h.routeOK || h.shards != 2 {
		return out
	}
	for d := -3; d <= 3; d++ {
		a, b := natural[0]+d, natural[1]-d
		if d == 0 || a < 0 || b < 0 || a > chain[0] || b > chain[1] {
			continue
		}
		out = append(out, count([]int{a, b}))
	}
	return out
}

// checkTop verifies a reported ranking against an exact vector: every
// reported influence must be the candidate's exact influence, and the
// reported influences must be the k largest, in order.
func checkTop(v []int, got []Ranked, k int) error {
	want := rank(v, nil)
	if len(got) != min(k, len(want)) {
		return fmt.Errorf("got %d ranked candidates, want %d", len(got), min(k, len(want)))
	}
	for i, g := range got {
		if g.ID < 0 || g.ID >= len(v) {
			return fmt.Errorf("rank %d: unknown candidate %d", i, g.ID)
		}
		if v[g.ID] != g.Influence {
			return fmt.Errorf("rank %d: candidate %d reported influence %d, exact %d", i, g.ID, g.Influence, v[g.ID])
		}
		if g.Influence != want[i].Influence {
			return fmt.Errorf("rank %d: influence %d, exact rank-%d influence %d", i, g.Influence, i, want[i].Influence)
		}
	}
	return nil
}

// checkSubset verifies a standing query's delivered top-k: the exact
// ranking of its candidate subset (influence descending, id ascending)
// must match id for id.
func checkSubset(v []int, ids []int, k int, got []Ranked) error {
	want := rank(v, ids)
	want = want[:min(k, len(want))]
	if len(got) != len(want) {
		return fmt.Errorf("got %d ranked candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("rank %d: got %+v, exact %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkPaperSweep checks a seeded share of the answered queries
// against a full exact solve of the (static) population under the
// query's PF and τ — an exact solve at paper scale costs about as much
// as the daemon's, so checking all would double the run — and every
// optimize answer against the exact influence at its point.
func checkPaperSweep(samples []*sample, ds *Dataset, cands []Point, seed int64, share float64, fail func(string, ...any)) map[string]any {
	start := time.Now()
	pick := rand.New(rand.NewSource(seed))
	queries, optims := 0, 0
	var gaps []float64
	for _, s := range samples {
		if !s.ok() {
			continue
		}
		switch {
		case s.query != nil:
			if pick.Float64() >= share {
				continue
			}
			q := s.op.Query
			o, err := NewOracle(PF{q.PF, q.Rho, q.Lambda}, q.Tau)
			if err != nil {
				fail("query %+v: %v", *q, err)
				continue
			}
			v := o.Influences(cands, ds.Objects)
			got, k := []Ranked{s.query.Best}, 1
			if q.K > 1 {
				got, k = s.query.TopK, q.K
				if len(got) == 0 || got[0] != s.query.Best {
					fail("query %+v: best %+v is not the first of top_k", *q, s.query.Best)
				}
			}
			if err := checkTop(v, got, k); err != nil {
				fail("query %+v: %v", *q, err)
			}
			queries++
		case s.optim != nil:
			r := s.optim
			o, err := NewOracle(DefaultPF, s.op.Optimize.Tau)
			if err != nil {
				fail("optimize: %v", err)
				continue
			}
			if exact := o.At(r.Best, ds.Objects); exact != r.BestInfluence {
				fail("optimize %+v: best_influence %d, exact influence at %+v is %d", *s.op.Optimize.Bounds, r.BestInfluence, r.Best, exact)
			}
			if r.BestInfluence > r.UpperBound {
				fail("optimize %+v: best_influence %d above upper_bound %d", *s.op.Optimize.Bounds, r.BestInfluence, r.UpperBound)
			}
			if r.BestInfluence > 0 {
				gaps = append(gaps, float64(r.UpperBound-r.BestInfluence)/float64(r.BestInfluence))
			}
			optims++
		}
	}
	return map[string]any{
		"checked":           fmt.Sprintf("a seeded %.3g of the queries, every optimize answer", share),
		"queries_checked":   queries,
		"optimize_checked":  optims,
		"optimize_gap_frac": Mean(gaps),
		"check_seconds":     time.Since(start).Seconds(),
	}
}

// checkWrites checks a write workload: every answered query (or every
// delivered event) against an exact solve of the population at the
// answer's epoch, and the final engine state against a fresh solve.
func checkWrites(c *Client, spec Spec, h *history, samples []*sample, events []event,
	subs []SubQuery, subIDs []string, cands []Point, final map[string]any, fail func(string, ...any)) (map[string]any, error) {
	start := time.Now()
	o, err := NewOracle(DefaultPF, DefaultTau)
	if err != nil {
		return nil, err
	}
	ev := newEvaluator(o, cands, h)
	memo := map[int64][][]int{}
	vectors := func(e int64) [][]int {
		if vs, ok := memo[e]; ok {
			return vs
		}
		var vs [][]int
		for _, st := range h.states(e, ev.seedN) {
			vs = append(vs, ev.vector(st))
		}
		memo[e] = vs
		return vs
	}
	checked, skipped, interleaved := 0, 0, 0
	verify := func(e int64, what string, try func(v []int) error) {
		if !h.checkable(e) {
			skipped++
			return
		}
		var first error
		for i, v := range vectors(e) {
			err := try(v)
			if err == nil {
				if i > 0 {
					interleaved++
				}
				checked++
				return
			}
			if first == nil {
				first = err
			}
		}
		fail("%s at epoch %d: %v", what, e, first)
	}
	for _, s := range samples {
		if !s.ok() || s.query == nil {
			continue
		}
		q, r := s.op.Query, s.query
		verify(r.Epoch, fmt.Sprintf("query %s k=%d", q.Algorithm, q.K), func(v []int) error {
			if q.K > 1 {
				if len(r.TopK) == 0 || r.TopK[0] != r.Best {
					return fmt.Errorf("best %+v is not the first of top_k", r.Best)
				}
				return checkTop(v, r.TopK, q.K)
			}
			return checkTop(v, []Ranked{r.Best}, 1)
		})
	}
	nevents := 0
	checkEvents := func(q SubQuery, evs []event) {
		for _, e := range evs {
			nevents++
			verify(e.Epoch, fmt.Sprintf("event v%d k=%d", e.Version, q.K), func(v []int) error {
				return checkSubset(v, q.Candidates, q.K, e.TopK)
			})
		}
	}
	if len(subs) > 0 {
		checkEvents(subs[0], events)
		for i := 1; i < len(subs); i++ {
			var r struct {
				Events []event `json:"events"`
			}
			if err := c.Do(context.Background(), "GET", "/v1/subscriptions/"+subIDs[i]+"/poll?after=0&timeout_ms=0", nil, &r); err != nil {
				return nil, fmt.Errorf("polling subscription %s: %w", subIDs[i], err)
			}
			checkEvents(subs[i], r.Events)
		}
	}

	// Final state: the engine's incrementally maintained influences must
	// equal a fresh solve of everything acknowledged.
	finalEpoch := int64(Num(final, "epoch"))
	last := h.base
	if n := len(h.recs); n > 0 {
		last = h.recs[n-1].epoch
	}
	if h.firstGap >= 0 || last != finalEpoch {
		fail("final epoch %d, acknowledged writes reach %d (first gap %d)", finalEpoch, last, h.firstGap)
	} else {
		npos := map[int]int{}
		for _, r := range h.recs {
			for _, a := range r.appends {
				if _, ok := npos[a.ID]; !ok {
					npos[a.ID] = ev.seedN[a.ID]
				}
				npos[a.ID] += len(a.Positions)
			}
		}
		want := ev.vector(npos)
		for id := range cands {
			var r struct {
				Candidate Ranked `json:"candidate"`
			}
			if err := c.Do(context.Background(), "GET", fmt.Sprintf("/v1/influence/%d", id), nil, &r); err != nil {
				return nil, err
			}
			if r.Candidate.Influence != want[id] {
				fail("final state: candidate %d influence %d, fresh solve %d", id, r.Candidate.Influence, want[id])
			}
		}
	}
	what := "all answered queries"
	if spec.Name == Monitor {
		what = "every delivered event (followed stream, plus each other subscription's retained events)"
	}
	return map[string]any{
		"checked":             what + ", and the final engine state",
		"answers_checked":     checked,
		"answers_unknowable":  skipped,
		"interleaved_matches": interleaved,
		"events_seen":         nevents,
		"routing_verified":    h.routeOK,
		"check_seconds":       time.Since(start).Seconds(),
	}, nil
}

// notifyLatencies times each delivered event (after the registration
// answer) from the scheduled send of the latest ingest batch it
// includes — the batch whose epoch range holds the event's epoch.
func notifyLatencies(samples []*sample, events []event) []float64 {
	type batch struct {
		epoch int64
		sched time.Duration
	}
	var bs []batch
	for _, s := range samples {
		if s.ok() && s.write != nil {
			bs = append(bs, batch{s.write.Epoch, s.sched})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].epoch < bs[j].epoch })
	var out []float64
	for _, e := range events {
		i := sort.Search(len(bs), func(i int) bool { return bs[i].epoch >= e.Epoch })
		if e.Version <= 1 || i == len(bs) {
			continue
		}
		out = append(out, float64(e.at-bs[i].sched)/float64(time.Millisecond))
	}
	return out
}
