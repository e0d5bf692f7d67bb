package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pinocchio/internal/core"
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
	"pinocchio/internal/subscribe"
)

// subTau is the standing-query threshold used throughout these tests.
const subTau = 0.7

// newFlipServer builds a server with two candidates — c0 at (0,0),
// c1 at (10,10) — and one object (id 1) far from both, so every
// influence starts at zero and the top-1 is c0 by the id tie-break.
// Ingesting a position for object 1 at (10,10) flips the winner to c1:
// the power law at distance zero is ρ=0.9 ≥ τ=0.7.
func newFlipServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg, nil, []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 10}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := do(t, s, "POST", "/v1/objects", `{"id":1,"positions":[{"x":100,"y":100}]}`, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("seed object: %d %s", rec.Code, rec.Body.String())
	}
	return s
}

// registerSub registers a standing query over HTTP and returns the
// response plus the live subscription handle.
func registerSub(t *testing.T, s *Server, body string) (subscribeResponse, *subscribe.Subscription) {
	t.Helper()
	var resp subscribeResponse
	rec := do(t, s, "POST", "/v1/subscribe", body, &resp)
	if rec.Code != http.StatusCreated {
		t.Fatalf("subscribe: %d %s", rec.Code, rec.Body.String())
	}
	sub, ok := s.subs.Get(resp.Subscription)
	if !ok {
		t.Fatalf("subscription %q not live", resp.Subscription)
	}
	return resp, sub
}

func ids(cands []subscribe.Candidate) []int {
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.ID
	}
	return out
}

func TestSubscribeRegistrationAnswer(t *testing.T) {
	s := newFlipServer(t, Config{})
	resp, _ := registerSub(t, s, fmt.Sprintf(`{"tau":%g}`, subTau))
	if resp.Result == nil || resp.Result.Version != 1 {
		t.Fatalf("registration result = %+v", resp.Result)
	}
	if got := ids(resp.Result.TopK); len(got) != 1 || got[0] != 0 {
		t.Fatalf("initial winner %v, want [0]", got)
	}
	if resp.Result.TraceID == "" {
		t.Fatal("registration event missing trace id")
	}
	if resp.Query.KVal() != 1 || resp.Query.Algorithm != "pin" || resp.Query.PF != "powerlaw" {
		t.Fatalf("defaults not resolved: %+v", resp.Query)
	}
}

func TestSubscribeValidation(t *testing.T) {
	s := newFlipServer(t, Config{})
	for name, body := range map[string]string{
		"bad tau":       `{"tau":1.5}`,
		"bad algorithm": `{"tau":0.7,"algorithm":"pin-vo"}`,
		"bad pf":        `{"tau":0.7,"pf":"frobnicate"}`,
		"unknown field": `{"tau":0.7,"taus":1}`,
		"zero rho":      `{"tau":0.7,"rho":0}`,
		"zero k":        `{"tau":0.7,"k":0}`,
	} {
		t.Run(name, func(t *testing.T) {
			if rec := do(t, s, "POST", "/v1/subscribe", body, nil); rec.Code != http.StatusBadRequest {
				t.Fatalf("code %d, want 400 (%s)", rec.Code, rec.Body.String())
			}
		})
	}
}

func TestSubscribeDisabled(t *testing.T) {
	s := newFlipServer(t, Config{MaxSubs: -1})
	if rec := do(t, s, "POST", "/v1/subscribe", `{"tau":0.7}`, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("disabled subscribe: %d", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/subscriptions/sub-1/events", "", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("disabled events: %d", rec.Code)
	}
}

func TestSubscribeLimit(t *testing.T) {
	s := newFlipServer(t, Config{MaxSubs: 1})
	resp, _ := registerSub(t, s, `{"tau":0.7}`)
	if rec := do(t, s, "POST", "/v1/subscribe", `{"tau":0.7}`, nil); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit subscribe: %d", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/v1/subscriptions/"+resp.Subscription, "", nil); rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/subscribe", `{"tau":0.7}`, nil); rec.Code != http.StatusCreated {
		t.Fatalf("subscribe after cancel: %d", rec.Code)
	}
}

func TestIngestValidation(t *testing.T) {
	s := newFlipServer(t, Config{})
	before := s.Epoch()
	cases := map[string]struct {
		body string
		code int
	}{
		"empty batch":    {`{"appends":[]}`, http.StatusBadRequest},
		"no positions":   {`{"appends":[{"id":1,"positions":[]}]}`, http.StatusBadRequest},
		"unknown object": {`{"appends":[{"id":1,"positions":[{"x":1,"y":1}]},{"id":99,"positions":[{"x":2,"y":2}]}]}`, http.StatusNotFound},
		"malformed":      {`{"appends":`, http.StatusBadRequest},
		"unknown field":  {`{"appendz":[]}`, http.StatusBadRequest},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if rec := do(t, s, "POST", "/v1/ingest", tc.body, nil); rec.Code != tc.code {
				t.Fatalf("code %d, want %d (%s)", rec.Code, tc.code, rec.Body.String())
			}
		})
	}
	// A rejected batch is all-or-nothing: no epoch bump, no partial state.
	if got := s.Epoch(); got != before {
		t.Fatalf("epoch moved to %d on rejected batches, want %d", got, before)
	}
	var resp ingestResponse
	do(t, s, "POST", "/v1/ingest",
		`{"appends":[{"id":1,"positions":[{"x":1,"y":1},{"x":2,"y":2}]}]}`, &resp)
	if resp.Objects != 1 || resp.Positions != 2 || resp.Epoch != before+1 {
		t.Fatalf("ingest ack = %+v (epoch before %d)", resp, before)
	}
}

func TestIngestFlipsSubscriptionAndNoOpStaysQuiet(t *testing.T) {
	s := newFlipServer(t, Config{})
	_, sub := registerSub(t, s, fmt.Sprintf(`{"tau":%g}`, subTau))

	// Far append: object 1 stays out of both NIBs — the re-solve finds
	// the same top-1 and no event is published.
	do(t, s, "POST", "/v1/ingest", `{"appends":[{"id":1,"positions":[{"x":300,"y":300}]}]}`, nil)
	s.DrainSubscriptions()
	if got := sub.Version(); got != 1 {
		t.Fatalf("no-op batch bumped version to %d", got)
	}

	// Position at c1 flips the top-1: ρ(0)=0.9 ≥ τ.
	var ack ingestResponse
	do(t, s, "POST", "/v1/ingest", `{"appends":[{"id":1,"positions":[{"x":10,"y":10}]}]}`, &ack)
	s.DrainSubscriptions()
	evs, _ := sub.Since(1)
	if len(evs) != 1 {
		t.Fatalf("flip delivered %d events, want 1", len(evs))
	}
	ev := evs[0]
	if got := ids(ev.TopK); len(got) != 1 || got[0] != 1 {
		t.Fatalf("flip winner %v, want [1]", got)
	}
	if ev.TopK[0].Influence != 1 {
		t.Fatalf("flip influence %d, want 1", ev.TopK[0].Influence)
	}
	if ev.Epoch != ack.Epoch {
		t.Fatalf("event epoch %d, want ingest epoch %d", ev.Epoch, ack.Epoch)
	}
	if ev.TraceID == "" {
		t.Fatal("change event missing trace id")
	}
}

// TestIngestFlipRetainsNotifyTrace checks notify-trace retention: a
// flipping ingest leaves a kind=notify trace at /v1/debug/traces, and
// with tracing disabled the flip still publishes while the endpoint
// answers 404.
func TestIngestFlipRetainsNotifyTrace(t *testing.T) {
	for _, keep := range []int{0, -1} {
		s := newFlipServer(t, Config{TraceKeep: keep})
		_, sub := registerSub(t, s, fmt.Sprintf(`{"tau":%g}`, subTau))
		do(t, s, "POST", "/v1/ingest", `{"appends":[{"id":1,"positions":[{"x":10,"y":10}]}]}`, nil)
		s.DrainSubscriptions()
		if evs, _ := sub.Since(1); len(evs) != 1 {
			t.Fatalf("TraceKeep %d: flip delivered %d events, want 1", keep, len(evs))
		}
		var listing struct {
			Traces []struct {
				Kind string `json:"kind"`
			} `json:"traces"`
		}
		rec := do(t, s, "GET", "/v1/debug/traces?kind=notify", "", &listing)
		if keep < 0 {
			if rec.Code != http.StatusNotFound {
				t.Fatalf("tracing disabled: trace list %d, want 404", rec.Code)
			}
			continue
		}
		if rec.Code != http.StatusOK || len(listing.Traces) == 0 {
			t.Fatalf("trace list %d with %d notify traces, want 200 and at least one: %s",
				rec.Code, len(listing.Traces), rec.Body.String())
		}
		for _, tr := range listing.Traces {
			if tr.Kind != "notify" {
				t.Fatalf("kind=notify listing holds a %q trace", tr.Kind)
			}
		}
	}
}

// TestSubscriptionParityUnderStream is the acceptance-criteria parity
// test: random position batches stream through /v1/ingest against
// several concurrent subscriptions, and after every batch each
// subscription's delivered answer must equal a fresh solve at that
// epoch — and when no event was delivered, the fresh solve must equal
// the previously delivered answer (no missed top-k change).
func TestSubscriptionParityUnderStream(t *testing.T) {
	// A 200×200 arena with per-object position clusters: the NIB radius
	// under (powerlaw ρ=0.9 λ=1, τ=0.7) spans tens of units, so a span
	// much wider than that leaves most batches irrelevant to the current
	// top-k — the quiet batches must publish nothing.
	rng := rand.New(rand.NewSource(11))
	const nObj, nCand, span = 40, 25, 200.0
	at := map[int]geo.Point{}
	objs := make([]*object.Object, nObj)
	for i := range objs {
		home := geo.Point{X: rng.Float64() * span, Y: rng.Float64() * span}
		pts := make([]geo.Point, 5+rng.Intn(5))
		for j := range pts {
			pts[j] = geo.Point{
				X: home.X + (rng.Float64()-0.5)*3,
				Y: home.Y + (rng.Float64()-0.5)*3,
			}
		}
		o, err := object.New(i, pts)
		if err != nil {
			t.Fatalf("object.New: %v", err)
		}
		objs[i] = o
		at[i] = pts[len(pts)-1]
	}
	cands := make([]geo.Point, nCand)
	for i := range cands {
		cands[i] = geo.Point{X: rng.Float64() * span, Y: rng.Float64() * span}
	}
	s, err := New(Config{}, objs, cands)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	type tracked struct {
		sub     *subscribe.Subscription
		k       int
		filter  map[int]bool
		lastVer uint64
		lastIDs []int
	}
	var subs []*tracked
	for _, spec := range []struct {
		body   string
		k      int
		filter []int
	}{
		{fmt.Sprintf(`{"tau":%g,"k":1}`, subTau), 1, nil},
		{fmt.Sprintf(`{"tau":%g,"k":3}`, subTau), 3, nil},
		{fmt.Sprintf(`{"tau":%g,"k":5,"algorithm":"na"}`, subTau), 5, nil},
		{fmt.Sprintf(`{"tau":%g,"k":2,"candidates":[0,2,4,6,8,10]}`, subTau), 2, []int{0, 2, 4, 6, 8, 10}},
	} {
		resp, sub := registerSub(t, s, spec.body)
		tr := &tracked{sub: sub, k: spec.k}
		if len(spec.filter) > 0 {
			tr.filter = map[int]bool{}
			for _, id := range spec.filter {
				tr.filter[id] = true
			}
		}
		if resp.Result == nil {
			t.Fatalf("no registration result for %s", spec.body)
		}
		tr.lastVer = resp.Result.Version
		tr.lastIDs = ids(resp.Result.TopK)
		subs = append(subs, tr)
	}

	pf := probfn.DefaultPowerLaw()
	// reference computes the expected delivered ranking for one
	// subscription from a fresh full influence vector: filter, then
	// influence-descending / id-ascending prefix of length k.
	reference := func(sn *snapshot, inf []int, tr *tracked) []int {
		type row struct{ id, inf int }
		var rows []row
		for i, v := range inf {
			id := sn.candIDs[i]
			if tr.filter != nil && !tr.filter[id] {
				continue
			}
			rows = append(rows, row{id, v})
		}
		// candIDs ascend, so a stable sort on influence keeps the id
		// tie-break.
		for i := 1; i < len(rows); i++ {
			for j := i; j > 0 && rows[j].inf > rows[j-1].inf; j-- {
				rows[j], rows[j-1] = rows[j-1], rows[j]
			}
		}
		k := tr.k
		if k > len(rows) {
			k = len(rows)
		}
		out := make([]int, k)
		for i := range out {
			out[i] = rows[i].id
		}
		return out
	}

	step := func(id int) geo.Point {
		p := at[id]
		p.X += (rng.Float64() - 0.5) * 1.2
		p.Y += (rng.Float64() - 0.5) * 1.2
		at[id] = p
		return p
	}

	for batch := 0; batch < 120; batch++ {
		var appends []string
		for _, id := range rng.Perm(nObj)[:1+rng.Intn(4)] {
			var pts []string
			for n := 1 + rng.Intn(2); n > 0; n-- {
				p := step(id)
				pts = append(pts, fmt.Sprintf(`{"x":%g,"y":%g}`, p.X, p.Y))
			}
			appends = append(appends, fmt.Sprintf(`{"id":%d,"positions":[%s]}`, id, strings.Join(pts, ",")))
		}
		var ack ingestResponse
		rec := do(t, s, "POST", "/v1/ingest", `{"appends":[`+strings.Join(appends, ",")+`]}`, &ack)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", batch, rec.Code, rec.Body.String())
		}
		s.DrainSubscriptions()

		// Fresh reference solve at the post-batch epoch.
		sn := s.snapshotNow()
		if sn.epoch != ack.Epoch {
			t.Fatalf("batch %d: snapshot epoch %d, ingest epoch %d", batch, sn.epoch, ack.Epoch)
		}
		p := &core.Problem{Objects: sn.objects, Candidates: sn.candPts, PF: pf, Tau: subTau}
		res, err := core.Solve(core.AlgPinocchio, p)
		if err != nil {
			t.Fatalf("batch %d: reference solve: %v", batch, err)
		}

		// Cross-check the reference against a fresh PinocchioVOTopT
		// solve at the same epoch (the acceptance-criteria oracle).
		vo, _, err := core.PinocchioVOTopT(
			&core.Problem{Objects: sn.objects, Candidates: sn.candPts, PF: pf, Tau: subTau}, 5)
		if err != nil {
			t.Fatalf("batch %d: vo-topt solve: %v", batch, err)
		}

		for si, tr := range subs {
			want := reference(sn, res.Influences, tr)
			evs, _ := tr.sub.Since(tr.lastVer)
			if len(evs) > 0 {
				ev := evs[len(evs)-1]
				if ev.Epoch != sn.epoch {
					t.Fatalf("batch %d sub %d: event epoch %d, want %d", batch, si, ev.Epoch, sn.epoch)
				}
				got := ids(ev.TopK)
				if !equalInts(got, want) {
					t.Fatalf("batch %d sub %d: delivered %v, reference %v", batch, si, got, want)
				}
				// Delivered influences must match the fresh VO top-t
				// rank-for-rank (unfiltered subs only: VO ranks the full
				// candidate set).
				if tr.filter == nil {
					for i, c := range ev.TopK {
						if i < len(vo) && c.Influence != vo[i].Influence {
							t.Fatalf("batch %d sub %d rank %d: influence %d, vo-topt %d",
								batch, si, i, c.Influence, vo[i].Influence)
						}
					}
				}
				tr.lastVer = ev.Version
				tr.lastIDs = got
			} else if !equalInts(tr.lastIDs, want) {
				t.Fatalf("batch %d sub %d: missed change — delivered %v, reference now %v",
					batch, si, tr.lastIDs, want)
			}
		}
	}

	st := s.subs.Stats()
	t.Logf("checks: %d resolved / %d stale (events %d)", st.Resolved, st.Stale, st.Events)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	name string
	data subscribe.Event
}

// readSSE parses frames off the stream, skipping comments/heartbeats.
func readSSE(t *testing.T, sc *bufio.Scanner) sseEvent {
	t.Helper()
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "" && ev.name != "":
			return ev
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	t.Fatalf("stream ended mid-event: %v", sc.Err())
	return ev
}

func TestSSEStreamDeliversAndShutdownSaysGoodbye(t *testing.T) {
	s := newFlipServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, _ := registerSub(t, s, fmt.Sprintf(`{"tau":%g}`, subTau))
	res, err := http.Get(ts.URL + resp.Events)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(res.Body)

	first := readSSE(t, sc)
	if first.name != "result" || first.data.Version != 1 || ids(first.data.TopK)[0] != 0 {
		t.Fatalf("first frame = %+v", first)
	}

	do(t, s, "POST", "/v1/ingest", `{"appends":[{"id":1,"positions":[{"x":10,"y":10}]}]}`, nil)
	flip := readSSE(t, sc)
	if flip.name != "result" || flip.data.Version != 2 || ids(flip.data.TopK)[0] != 1 {
		t.Fatalf("flip frame = %+v", flip)
	}
	if flip.data.TraceID == "" {
		t.Fatal("flip frame missing trace id")
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	bye := readSSE(t, sc)
	if bye.name != "goodbye" || !bye.data.Terminal {
		t.Fatalf("terminal frame = %+v", bye)
	}
	if sc.Scan() {
		t.Fatalf("stream continued after goodbye: %q", sc.Text())
	}
}

func TestSSEResumeWithLastEventID(t *testing.T) {
	s := newFlipServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, sub := registerSub(t, s, fmt.Sprintf(`{"tau":%g}`, subTau))
	do(t, s, "POST", "/v1/ingest", `{"appends":[{"id":1,"positions":[{"x":10,"y":10}]}]}`, nil)
	s.DrainSubscriptions()
	if sub.Version() != 2 {
		t.Fatalf("version %d after flip, want 2", sub.Version())
	}

	req, _ := http.NewRequest("GET", ts.URL+resp.Events, nil)
	req.Header.Set("Last-Event-ID", "1")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer res.Body.Close()
	ev := readSSE(t, bufio.NewScanner(res.Body))
	if ev.data.Version != 2 || ids(ev.data.TopK)[0] != 1 {
		t.Fatalf("resumed frame = %+v, want version 2 winner 1", ev)
	}
}

// TestSSEResumeUnderConcurrentPublish hammers the resume path: a
// publisher goroutine keeps growing c1's influence (one new object per
// mutation, each a version bump) while the consumer deliberately drops
// its SSE connection after every single event and reconnects with
// Last-Event-ID. Versions must stay strictly increasing across every
// reconnect — a duplicate means the resume position leaked backwards,
// a decrease means the backlog ring served a stale frame — and the
// goodbye published after the final mutation must still arrive. Run
// with -race this also exercises publish/Since/Wait interleavings.
func TestSSEResumeUnderConcurrentPublish(t *testing.T) {
	s := newFlipServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, _ := registerSub(t, s, fmt.Sprintf(`{"tau":%g}`, subTau))

	const publishes = 24
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < publishes; i++ {
			// Alternate the new object between the two candidate sites so
			// the winner keeps flipping — events only publish on a top-k
			// ID change, and a monotonically growing single winner would
			// emit exactly one.
			x := 10
			if i%2 == 1 {
				x = 0
			}
			body := fmt.Sprintf(`{"id":%d,"positions":[{"x":%d,"y":%d}]}`, 100+i, x, x)
			res, err := http.Post(ts.URL+"/v1/objects", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
			res.Body.Close()
			if res.StatusCode != http.StatusCreated {
				t.Errorf("publish %d: HTTP %d", i, res.StatusCode)
				return
			}
			// Draining per publish keeps every flip a distinct version
			// (the worker never coalesces two into one re-solve), so the
			// consumer has a deterministic version sequence to resume
			// through while the ring may still overwrite its tail.
			s.DrainSubscriptions()
		}
	}()

	// The final published state is unique and identifiable — after the
	// last publish both candidates hold influence publishes/2 and the
	// tie-break elects candidate 0 — so the consumer resumes until it
	// reads exactly that event. Every earlier state has a strictly
	// smaller winner influence, and every reconnect below version of
	// that final event has pending frames, so no read ever blocks.
	lastVer := uint64(1) // the registration result
	lastInf := 0
	conns, events := 0, 0
	for lastInf < publishes/2 {
		if conns > publishes+5 {
			t.Fatalf("final state not reached after %d connections (last version %d, influence %d)",
				conns, lastVer, lastInf)
		}
		req, _ := http.NewRequest("GET", ts.URL+resp.Events, nil)
		req.Header.Set("Last-Event-ID", fmt.Sprint(lastVer))
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("reconnect %d: %v", conns, err)
		}
		conns++
		ev := readSSE(t, bufio.NewScanner(res.Body))
		res.Body.Close()
		if ev.name != "result" {
			t.Fatalf("conn %d frame %q, want result", conns, ev.name)
		}
		if ev.data.Version <= lastVer {
			t.Fatalf("conn %d resumed after %d but delivered version %d", conns, lastVer, ev.data.Version)
		}
		lastVer = ev.data.Version
		events++
		if got := ids(ev.data.TopK); got[0] != 0 && got[0] != 1 {
			t.Fatalf("conn %d winner %v, want candidate 0 or 1", conns, got)
		}
		// Both candidates' influence grows monotonically, so the winner's
		// influence across published states can never decrease; a drop
		// means a stale frame was served after resume.
		if inf := ev.data.TopK[0].Influence; inf < lastInf {
			t.Fatalf("conn %d influence went backwards: %d after %d", conns, inf, lastInf)
		} else {
			lastInf = inf
		}
	}
	<-done
	if conns < 3 {
		t.Fatalf("only %d connections; the resume path was barely exercised", conns)
	}
	t.Logf("resumed across %d connections, %d events for %d publishes", conns, events, publishes)
}

func TestPollTimeoutAndDelivery(t *testing.T) {
	s := newFlipServer(t, Config{})
	resp, _ := registerSub(t, s, fmt.Sprintf(`{"tau":%g}`, subTau))

	// Nothing past version 1 yet: a short poll times out with 204.
	rec := do(t, s, "GET", resp.Poll+"?after=1&timeout_ms=50", "", nil)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("idle poll: %d %s", rec.Code, rec.Body.String())
	}

	do(t, s, "POST", "/v1/ingest", `{"appends":[{"id":1,"positions":[{"x":10,"y":10}]}]}`, nil)
	s.DrainSubscriptions()
	var out struct {
		Events    []subscribe.Event `json:"events"`
		Coalesced bool              `json:"coalesced"`
	}
	rec = do(t, s, "GET", resp.Poll+"?after=1&timeout_ms=2000", "", &out)
	if rec.Code != http.StatusOK || len(out.Events) != 1 {
		t.Fatalf("poll after flip: %d %+v", rec.Code, out)
	}
	if got := ids(out.Events[0].TopK); got[0] != 1 {
		t.Fatalf("poll winner %v, want [1]", got)
	}

	// Version 0 replays the retained backlog immediately.
	rec = do(t, s, "GET", resp.Poll+"?timeout_ms=2000", "", &out)
	if rec.Code != http.StatusOK || len(out.Events) != 2 {
		t.Fatalf("backlog poll: %d %+v", rec.Code, out)
	}

	// Bad parameters are rejected.
	if rec := do(t, s, "GET", resp.Poll+"?after=x", "", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad after: %d", rec.Code)
	}
	if rec := do(t, s, "GET", resp.Poll+"?timeout_ms=-1", "", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad timeout: %d", rec.Code)
	}
}

func TestStructuralMutationDirtiesSubscriptions(t *testing.T) {
	s := newFlipServer(t, Config{})
	_, sub := registerSub(t, s, fmt.Sprintf(`{"tau":%g}`, subTau))

	// A new object sitting on c1 re-solves the subscription like any
	// other mutation and must flip the answer.
	do(t, s, "POST", "/v1/objects", `{"id":2,"positions":[{"x":10,"y":10}]}`, nil)
	s.DrainSubscriptions()
	evs, _ := sub.Since(1)
	if len(evs) != 1 || ids(evs[0].TopK)[0] != 1 {
		t.Fatalf("add-object flip events = %+v", evs)
	}

	// Removing that object must flip it back.
	do(t, s, "DELETE", "/v1/objects/2", "", nil)
	s.DrainSubscriptions()
	evs, _ = sub.Since(evs[0].Version)
	if len(evs) != 1 || ids(evs[0].TopK)[0] != 0 {
		t.Fatalf("remove-object flip events = %+v", evs)
	}
}

func TestDurableIngestReplayParity(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir, -1)

	doJSON(t, srv, "POST", "/v1/candidates", `{"x":0,"y":0}`)
	doJSON(t, srv, "POST", "/v1/candidates", `{"x":10,"y":10}`)
	doJSON(t, srv, "POST", "/v1/objects", `{"id":1,"positions":[{"x":100,"y":100}]}`)
	doJSON(t, srv, "POST", "/v1/objects", `{"id":2,"positions":[{"x":100,"y":100}]}`)
	ack := doJSON(t, srv, "POST", "/v1/ingest",
		`{"appends":[{"id":1,"positions":[{"x":10,"y":10}]},{"id":2,"positions":[{"x":0,"y":0}]},{"id":1,"positions":[{"x":10.1,"y":10.1}]}]}`)
	if ack["objects"].(float64) != 3 || ack["positions"].(float64) != 3 {
		t.Fatalf("ingest ack = %v", ack)
	}
	// A rejected batch (unknown object) stays in the WAL and must be
	// rejected identically on replay, keeping the epochs in lockstep.
	rec := do(t, srv, "POST", "/v1/ingest", `{"appends":[{"id":7,"positions":[{"x":1,"y":1}]}]}`, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown-object ingest: %d", rec.Code)
	}
	best1 := doJSON(t, srv, "GET", "/v1/best", "")
	epoch1 := srv.Epoch()
	st.Close()

	srv2, st2 := durableServer(t, dir, -1)
	defer st2.Close()
	best2 := doJSON(t, srv2, "GET", "/v1/best", "")
	if fmt.Sprint(best1["best"]) != fmt.Sprint(best2["best"]) {
		t.Fatalf("best diverged after replay: %v vs %v", best1["best"], best2["best"])
	}
	if got := srv2.Epoch(); got != epoch1 {
		t.Fatalf("epoch %d after replay, want %d", got, epoch1)
	}
}

func TestSubscriptionStatsInStatus(t *testing.T) {
	s := newFlipServer(t, Config{})
	registerSub(t, s, fmt.Sprintf(`{"tau":%g}`, subTau))
	var status map[string]any
	do(t, s, "GET", "/v1/status", "", &status)
	subsBlock, ok := status["subscriptions"].(map[string]any)
	if !ok {
		t.Fatalf("status missing subscriptions block: %v", status)
	}
	if subsBlock["active"].(float64) != 1 || subsBlock["events_total"].(float64) < 1 {
		t.Fatalf("subscriptions block = %v", subsBlock)
	}
}

// Guard against the SSE handler busy-looping on a terminated
// subscription that a consumer attaches to after cancellation.
func TestPollOnCancelledSubscription(t *testing.T) {
	s := newFlipServer(t, Config{})
	resp, sub := registerSub(t, s, fmt.Sprintf(`{"tau":%g}`, subTau))
	do(t, s, "DELETE", "/v1/subscriptions/"+resp.Subscription, "", nil)
	if !sub.Closed() {
		t.Fatal("cancel did not terminate the subscription")
	}
	// The manager dropped it: consumers get 404, never a hang.
	rec := do(t, s, "GET", resp.Poll+"?timeout_ms=5000", "", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("poll on cancelled sub: %d", rec.Code)
	}
	// Direct backlog read still shows the terminal event.
	evs, _ := sub.Since(1)
	if len(evs) != 1 || !evs[0].Terminal {
		t.Fatalf("terminal backlog = %+v", evs)
	}
}
