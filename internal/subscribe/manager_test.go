package subscribe

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// iptr and fptr build the explicit-value pointers Query now uses to
// distinguish "omitted" from "sent zero".
func iptr(v int) *int         { return &v }
func fptr(v float64) *float64 { return &v }

// fakeBackend serves canned solutions (a queue: popped in order, the
// last one sticks) and counts solves.
type fakeBackend struct {
	mu     sync.Mutex
	solves int
	queue  []*Solution
	err    error
}

func fbWith(sols ...*Solution) *fakeBackend {
	return &fakeBackend{queue: sols}
}

func (f *fakeBackend) SolveTopK(q *Query) (*Solution, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.solves++
	if f.err != nil {
		return nil, f.err
	}
	sol := f.queue[0]
	if len(f.queue) > 1 {
		f.queue = f.queue[1:]
	}
	// Copy so the manager can't alias test state.
	out := &Solution{Epoch: sol.Epoch, TraceID: sol.TraceID}
	out.Ranked = append([]Candidate(nil), sol.Ranked...)
	return out, nil
}

func (f *fakeBackend) set(sol *Solution) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queue = []*Solution{sol}
	f.err = nil
}

func (f *fakeBackend) solveCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.solves
}

func newTestManager(t *testing.T, fb *fakeBackend, cfg Config) *Manager {
	t.Helper()
	cfg.Backend = fb
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// Two far-apart candidates; influences come from the fake solutions.
var (
	candA = Candidate{ID: 0, X: 0, Y: 0}
	candB = Candidate{ID: 1, X: 10, Y: 10}
)

func ranked(a, b int) []Candidate {
	ca, cb := candA, candB
	ca.Influence, cb.Influence = a, b
	if a >= b { // id tie-break: A first on equal influence
		return []Candidate{ca, cb}
	}
	return []Candidate{cb, ca}
}

func TestQueryValidation(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 1, Ranked: ranked(0, 0)})
	m := newTestManager(t, fb, Config{})
	for name, q := range map[string]Query{
		"zero tau":       {},
		"tau too big":    {Tau: 1.5},
		"bad pf":         {Tau: 0.7, PF: "nope"},
		"negative k":     {Tau: 0.7, K: iptr(-2)},
		"zero k":         {Tau: 0.7, K: iptr(0)},
		"pin-vo":         {Tau: 0.7, Algorithm: "pin-vo"},
		"pin-vo*":        {Tau: 0.7, Algorithm: "pin-vo*"},
		"unknown alg":    {Tau: 0.7, Algorithm: "magic"},
		"negative rho":   {Tau: 0.7, Rho: fptr(-1)},
		"zero rho":       {Tau: 0.7, Rho: fptr(0)},
		"lambda nonsens": {Tau: 0.7, PF: "powerlaw", Rho: fptr(0.9), Lambda: fptr(-3)},
		"zero lambda":    {Tau: 0.7, PF: "powerlaw", Lambda: fptr(0)},
	} {
		if _, err := m.Register(q); err == nil {
			t.Errorf("%s: Register succeeded, want error", name)
		}
	}

	sub, err := m.Register(Query{Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Query.Algorithm != "pin" || sub.Query.KVal() != 1 || sub.Query.PF != "powerlaw" {
		t.Errorf("defaults not applied: %+v", sub.Query)
	}
}

func TestRegisterInitialEvent(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 3, TraceID: "t-init", Ranked: ranked(2, 1)})
	m := newTestManager(t, fb, Config{})
	sub, err := m.Register(Query{Tau: 0.7, K: iptr(2)})
	if err != nil {
		t.Fatal(err)
	}
	evs, coalesced := sub.Since(0)
	if coalesced || len(evs) != 1 {
		t.Fatalf("initial backlog: %d events (coalesced %v), want 1", len(evs), coalesced)
	}
	ev := evs[0]
	if ev.Version != 1 || ev.Epoch != 3 || ev.TraceID != "t-init" {
		t.Errorf("initial event %+v", ev)
	}
	if len(ev.TopK) != 2 || ev.TopK[0].ID != candA.ID || ev.TopK[1].ID != candB.ID {
		t.Errorf("initial top-k %+v", ev.TopK)
	}
	if got, ok := m.Get(sub.ID); !ok || got != sub {
		t.Error("Get did not return the registered subscription")
	}
}

func TestCandidateFilter(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 1, Ranked: ranked(5, 3)})
	m := newTestManager(t, fb, Config{})
	sub, err := m.Register(Query{Tau: 0.7, K: iptr(2), Candidates: []int{candB.ID}})
	if err != nil {
		t.Fatal(err)
	}
	evs, _ := sub.Since(0)
	if len(evs) != 1 || len(evs[0].TopK) != 1 || evs[0].TopK[0].ID != candB.ID {
		t.Fatalf("filtered top-k %+v, want just candidate %d", evs, candB.ID)
	}
}

// TestFreshBatchResolvesAndFlip drives the re-solve path: every note
// newer than the solved epoch re-solves, whatever the batch touched. A
// far batch that leaves the ranking as it was publishes nothing; a
// batch that lifts a candidate across the top-1 boundary publishes a
// versioned change event; an unchanged re-solve publishes nothing.
func TestFreshBatchResolvesAndFlip(t *testing.T) {
	// Equal influences: A wins the id tie-break.
	fb := fbWith(&Solution{Epoch: 1, TraceID: "t0", Ranked: ranked(0, 0)})
	m := newTestManager(t, fb, Config{})
	sub, err := m.Register(Query{Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	base := fb.solveCount()

	// A batch far from both candidates: the re-solve finds the same
	// ranking, so no event is published.
	fb.set(&Solution{Epoch: 2, TraceID: "t-far", Ranked: ranked(0, 0)})
	m.Notify(BatchNote{Epoch: 2, TraceID: "t-far"})
	m.Drain()
	if n := fb.solveCount(); n != base+1 {
		t.Fatalf("far batch triggered %d solves, want 1", n-base)
	}
	if v := sub.Version(); v != 1 {
		t.Fatalf("far batch published version %d", v)
	}
	if st := m.Stats(); st.Resolved != 1 || st.Stale != 0 || st.Errors != 0 {
		t.Fatalf("stats after far batch: %+v, want 1 resolved", st)
	}

	// A batch inside B's NIB lifts B above A: the re-solve sees B ahead
	// and a change event is published.
	fb.set(&Solution{Epoch: 3, TraceID: "t1", Ranked: ranked(0, 1)})
	m.Notify(BatchNote{Epoch: 3, TraceID: "t1"})
	m.Drain()
	if n := fb.solveCount(); n != base+2 {
		t.Fatalf("flip batch left %d solves, want 2", n-base)
	}
	evs, _ := sub.Since(1)
	if len(evs) != 1 {
		t.Fatalf("flip published %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Version != 2 || ev.Epoch != 3 || ev.TraceID != "t1" {
		t.Errorf("flip event %+v", ev)
	}
	if len(ev.TopK) != 1 || ev.TopK[0].ID != candB.ID || ev.TopK[0].Influence != 1 {
		t.Errorf("flip top-k %+v, want candidate %d influence 1", ev.TopK, candB.ID)
	}

	// A re-solve whose ranking is unchanged publishes nothing.
	fb.set(&Solution{Epoch: 4, Ranked: ranked(1, 2)})
	m.Notify(BatchNote{Epoch: 4})
	m.Drain()
	if v := sub.Version(); v != 2 {
		t.Fatalf("no-change re-solve moved version to %d", v)
	}
	if st := m.Stats(); st.Resolved != 3 {
		t.Fatalf("stats: %+v, want 3 resolved", st)
	}
}

// TestEveryCheckHasOneOutcome holds the accounting: with one note per
// Drain, every (note, live subscription) pair lands in exactly one of
// resolved, stale or error.
func TestEveryCheckHasOneOutcome(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 5, Ranked: ranked(0, 0)})
	m := newTestManager(t, fb, Config{})
	const nSubs = 3
	for i := 0; i < nSubs; i++ {
		if _, err := m.Register(Query{Tau: 0.7, K: iptr(1 + i%2)}); err != nil {
			t.Fatal(err)
		}
	}
	checks := 0
	note := func(epoch int64) {
		t.Helper()
		m.Notify(BatchNote{Epoch: epoch})
		m.Drain()
		checks += m.Stats().Active
	}
	note(3) // predates the registration solves: stale
	fb.set(&Solution{Epoch: 6, Ranked: ranked(0, 1)})
	note(6) // resolved
	fb.mu.Lock()
	fb.err = errors.New("boom")
	fb.mu.Unlock()
	note(7) // error
	fb.set(&Solution{Epoch: 8, Ranked: ranked(2, 1)})
	note(8) // resolved
	if !m.Cancel("sub-2") {
		t.Fatal("Cancel sub-2 failed")
	}
	fb.set(&Solution{Epoch: 9, Ranked: ranked(2, 3)})
	note(9) // resolved, one subscription fewer

	st := m.Stats()
	if got := st.Resolved + st.Stale + st.Errors; got != int64(checks) {
		t.Fatalf("resolved %d + stale %d + errors %d = %d, want %d checks",
			st.Resolved, st.Stale, st.Errors, got, checks)
	}
	if st.Stale != nSubs || st.Errors != nSubs || st.Resolved != 3*nSubs-1 {
		t.Fatalf("stats %+v, want %d stale, %d errors, %d resolved", st, nSubs, nSubs, 3*nSubs-1)
	}
}

func TestStaleNotesSkip(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 9, Ranked: ranked(0, 0)})
	m := newTestManager(t, fb, Config{})
	if _, err := m.Register(Query{Tau: 0.7}); err != nil {
		t.Fatal(err)
	}
	base := fb.solveCount()
	// The registration solve already covers epoch 9.
	m.Notify(BatchNote{Epoch: 5})
	m.Notify(BatchNote{Epoch: 9})
	m.Drain()
	if n := fb.solveCount(); n != base {
		t.Fatalf("stale notes triggered %d solves", n-base)
	}
	if st := m.Stats(); st.Stale == 0 {
		t.Fatalf("stats: %+v, want stale checks", st)
	}
}

func TestSolveErrorRetries(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 1, Ranked: ranked(0, 0)})
	m := newTestManager(t, fb, Config{})
	sub, err := m.Register(Query{Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	fb.mu.Lock()
	fb.err = errors.New("boom")
	fb.mu.Unlock()
	m.Notify(BatchNote{Epoch: 2})
	m.Drain()
	if st := m.Stats(); st.Errors != 1 {
		t.Fatalf("stats: %+v, want 1 error", st)
	}
	// Backend recovers; the next batch re-solves and publishes the
	// changed answer.
	fb.set(&Solution{Epoch: 3, Ranked: ranked(0, 2)})
	m.Notify(BatchNote{Epoch: 3})
	m.Drain()
	evs, _ := sub.Since(1)
	if len(evs) != 1 || evs[0].TopK[0].ID != candB.ID {
		t.Fatalf("post-error events %+v, want candidate %d on top", evs, candB.ID)
	}
}

func TestMaxSubsLimit(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 1, Ranked: ranked(0, 0)})
	m := newTestManager(t, fb, Config{MaxSubs: 2})
	for i := 0; i < 2; i++ {
		if _, err := m.Register(Query{Tau: 0.7}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Register(Query{Tau: 0.7}); !errors.Is(err, ErrLimit) {
		t.Fatalf("third Register: %v, want ErrLimit", err)
	}
	// Cancelling frees a slot.
	if !m.Cancel("sub-1") {
		t.Fatal("Cancel sub-1 failed")
	}
	if _, err := m.Register(Query{Tau: 0.7}); err != nil {
		t.Fatalf("Register after Cancel: %v", err)
	}
}

func TestCancelPublishesTerminal(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 1, Ranked: ranked(0, 0)})
	m := newTestManager(t, fb, Config{})
	sub, err := m.Register(Query{Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	wait := sub.Wait()
	if !m.Cancel(sub.ID) {
		t.Fatal("Cancel failed")
	}
	select {
	case <-wait:
	case <-time.After(time.Second):
		t.Fatal("terminal event did not wake waiter")
	}
	evs, _ := sub.Since(1)
	if len(evs) != 1 || !evs[0].Terminal {
		t.Fatalf("post-cancel backlog %+v, want one terminal event", evs)
	}
	if !sub.Closed() {
		t.Error("cancelled subscription not closed")
	}
	if m.Cancel(sub.ID) {
		t.Error("second Cancel reported live")
	}
}

func TestCloseTerminatesAll(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 1, Ranked: ranked(0, 0)})
	m := newTestManager(t, fb, Config{})
	sub, err := m.Register(Query{Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if !sub.Closed() {
		t.Error("Close did not terminate the subscription")
	}
	if _, err := m.Register(Query{Tau: 0.7}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close: %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

func TestBacklogCoalesces(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 1, Ranked: ranked(0, 0)})
	m := newTestManager(t, fb, Config{Buffer: 2})
	sub, err := m.Register(Query{Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// Alternate the winner so every re-solve publishes.
	for i := 0; i < 4; i++ {
		a, b := 0, i+1
		if i%2 == 1 {
			a, b = i+1, 0
		}
		fb.set(&Solution{Epoch: int64(2 + i), Ranked: ranked(a, b)})
		m.Notify(BatchNote{Epoch: int64(2 + i)})
		m.Drain()
	}
	if v := sub.Version(); v != 5 {
		t.Fatalf("version %d, want 5", v)
	}
	evs, coalesced := sub.Since(0)
	if !coalesced {
		t.Error("overflowing a 2-event ring must report coalescing")
	}
	if len(evs) != 2 || evs[0].Version != 4 || evs[1].Version != 5 {
		t.Fatalf("retained backlog %+v, want versions 4 and 5", evs)
	}
	// A consumer already at the ring head sees no gap.
	if evs, coalesced := sub.Since(4); coalesced || len(evs) != 1 {
		t.Fatalf("Since(4): %d events coalesced=%v", len(evs), coalesced)
	}
}

// TestRegisterRecheckRace covers the registration race: a batch whose
// note was drained before the subscription landed in the map must
// still reach it via the targeted recheck.
func TestRegisterRecheckRace(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 1, Ranked: ranked(0, 0)})
	m := newTestManager(t, fb, Config{})
	// A note at epoch 7 is processed with no subscriptions live.
	m.Notify(BatchNote{Epoch: 7})
	m.Drain()
	// The register solve claims epoch 1 < 7: the manager must schedule
	// a recheck, which re-solves and sees the changed answer.
	fb.mu.Lock()
	fb.queue = []*Solution{
		{Epoch: 1, Ranked: ranked(0, 0)}, // register: pre-batch snapshot
		{Epoch: 7, Ranked: ranked(0, 3)}, // targeted recheck
	}
	fb.mu.Unlock()
	sub, err := m.Register(Query{Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	m.Drain()
	evs, _ := sub.Since(1)
	if len(evs) != 1 || evs[0].TopK[0].ID != candB.ID {
		t.Fatalf("recheck events %+v, want candidate %d on top", evs, candB.ID)
	}
}

func TestWaitWakesOnPublish(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 1, Ranked: ranked(0, 0)})
	m := newTestManager(t, fb, Config{})
	sub, err := m.Register(Query{Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Event, 1)
	go func() {
		after := uint64(1)
		for {
			ch := sub.Wait()
			if evs, _ := sub.Since(after); len(evs) > 0 {
				got <- evs[len(evs)-1]
				return
			}
			<-ch
		}
	}()
	fb.set(&Solution{Epoch: 2, TraceID: "t-wake", Ranked: ranked(0, 1)})
	m.Notify(BatchNote{Epoch: 2})
	select {
	case ev := <-got:
		if ev.Version != 2 || ev.TraceID != "t-wake" {
			t.Errorf("woken with %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke")
	}
}

// TestConcurrentNotifyAndConsume hammers the manager under -race.
func TestConcurrentNotifyAndConsume(t *testing.T) {
	fb := fbWith(&Solution{Epoch: 1, Ranked: ranked(0, 0)})
	m := newTestManager(t, fb, Config{})
	subs := make([]*Subscription, 5)
	for i := range subs {
		s, err := m.Register(Query{Tau: 0.7, K: iptr(1 + i%2)})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				epoch := int64(2 + w*50 + i)
				fb.set(&Solution{Epoch: epoch, Ranked: ranked(i%3, (i+1)%3)})
				m.Notify(BatchNote{Epoch: epoch, TraceID: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, sub := range subs {
		readers.Add(1)
		go func(sub *Subscription) {
			defer readers.Done()
			var after uint64
			for {
				ch := sub.Wait()
				evs, _ := sub.Since(after)
				for _, ev := range evs {
					if ev.Version <= after {
						t.Errorf("version went backwards: %d after %d", ev.Version, after)
					}
					after = ev.Version
				}
				select {
				case <-stop:
					return
				case <-ch:
				}
			}
		}(sub)
	}
	wg.Wait()
	m.Drain()
	close(stop)
	// Publish once more so blocked readers wake and observe stop.
	fb.set(&Solution{Epoch: 1000, Ranked: ranked(9, 0)})
	m.Notify(BatchNote{Epoch: 1000})
	m.Drain()
	readers.Wait()
}
