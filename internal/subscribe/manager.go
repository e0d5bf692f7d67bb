package subscribe

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pinocchio/internal/obs"
	"pinocchio/internal/probfn"
)

// ErrLimit is returned when MaxSubs subscriptions are already live.
var ErrLimit = errors.New("subscribe: subscription limit reached")

// ErrClosed is returned by Register after Close.
var ErrClosed = errors.New("subscribe: manager closed")

// Backend solves a standing query against the serving layer's current
// snapshot. It must return the full ranked influence vector over all
// live candidates (influence descending, id ascending) — a candidate
// filter ranks any subset of it, which is why pin-vo's early exit is
// not allowed for subscriptions.
type Backend interface {
	SolveTopK(q *Query) (*Solution, error)
}

// Solution is one backend solve: the epoch it is exact at, the trace
// of the solving request, and the full ranked vector.
type Solution struct {
	Epoch   int64
	TraceID string
	Ranked  []Candidate
	// Trace is the solve's span tree (nil when the backend does not
	// trace); the pipeline adopts it under its "solve" stage so a
	// notify trace shows the re-solve's phase breakdown inline.
	Trace *obs.Span
}

// BatchNote tells the manager that a mutation was applied: the epoch
// it produced, plus the trace and WAL timing its notify pipeline
// reports. Every subscription solved below Epoch re-solves.
type BatchNote struct {
	Epoch   int64
	TraceID string
	// At is the enqueue time, the start of the notify-latency clock.
	At time.Time
	// WALDur is the wall time the batch spent in WAL appends (fsync
	// included) before it was applied; 0 when the server is not
	// durable. It becomes the "wal-append" stage of the pipeline trace.
	WALDur time.Duration
	// WALSeq is the WAL sequence the batch was logged at (first shard).
	WALSeq uint64

	// only targets a single subscription: the registration-race
	// recheck. Internal to the manager.
	only string
	// enqueuedAt marks entry into the manager's queue — the start of
	// the queue-wait stage (At, in contrast, starts at mutation apply).
	enqueuedAt time.Time
	// merged counts how many notes coalesced into this one.
	merged int
}

// subState is the manager-worker-owned solver state of a subscription.
type subState struct {
	filter map[int]bool // nil = all candidates
	// solvedEpoch is the epoch of the last backend solve; notes at or
	// below it are already reflected in the delivered answer.
	solvedEpoch int64
	lastIDs     []int
	lastTopK    []Candidate
}

// Config parameterizes a Manager.
type Config struct {
	// MaxSubs caps live subscriptions (default 256).
	MaxSubs int
	// Buffer is the per-subscription backlog ring size (default 16).
	Buffer int
	// Backend performs the solves; required.
	Backend Backend
	// Traces, when non-nil, retains one kind="notify" trace per
	// re-solved pipeline run (published, unchanged or errored), linked
	// to the triggering mutation's trace ID, with wal-append /
	// queue-wait / solve / publish stage spans.
	Traces *obs.TraceStore
	// SlowNotify marks notify traces at or above this ingest-to-publish
	// duration as slow (always-keep retention + slog warning); <= 0
	// disables the flag.
	SlowNotify time.Duration
	// NotifyLatency, when non-nil, receives every delivered change's
	// batch-apply-to-publish latency in seconds, unconditionally (not
	// gated on obs.Enabled) — the serving layer's SLO monitor and
	// /v1/status percentiles read it.
	NotifyLatency *obs.Histogram
}

// Stats is the manager's cumulative check and delivery accounting.
type Stats struct {
	Active     int    `json:"active"`
	Registered uint64 `json:"registered_total"`
	Events     int64  `json:"events_total"`
	// Checks: every (merged note, subscription) pair lands in exactly
	// one bucket — re-solved, stale (nothing newer than the solved
	// epoch) or a failed solve.
	Resolved int64 `json:"checks_resolved"`
	Stale    int64 `json:"checks_stale"`
	Errors   int64 `json:"solve_errors"`
}

// Manager owns every subscription and the single worker that folds
// mutation batches into them. All solves run on the worker goroutine,
// so per-subscription state needs no locking of its own.
type Manager struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond // signals outstanding drops
	subs map[string]*Subscription
	// pending is the unprocessed note queue; outstanding counts notes
	// enqueued but not yet fully processed (Drain waits on it).
	pending     []BatchNote
	outstanding int
	// lastNoteEpoch is the highest epoch ever enqueued, used to close
	// the register/notify race.
	lastNoteEpoch int64
	nextID        uint64
	closed        bool

	signal chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup

	events   atomic.Int64
	resolved atomic.Int64
	stale    atomic.Int64
	errors   atomic.Int64
}

// NewManager starts a manager and its worker.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("subscribe: manager needs a backend")
	}
	if cfg.MaxSubs <= 0 {
		cfg.MaxSubs = 256
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 16
	}
	m := &Manager{
		cfg:    cfg,
		subs:   map[string]*Subscription{},
		signal: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(1)
	go m.worker()
	return m, nil
}

// validate resolves the query's defaults and rejects what the solver
// cannot support. Presence is pointer-encoded: only a genuinely
// omitted field (nil) takes its default; an explicit value — including
// zero — is validated as sent, so the resolved query the subscription
// echoes back is always the one the client asked for.
func (q *Query) validate() error {
	if q.PF == "" {
		q.PF = DefaultPF
	}
	if q.Rho == nil {
		rho := DefaultRho
		q.Rho = &rho
	}
	if q.Lambda == nil {
		lambda := DefaultLambda
		q.Lambda = &lambda
	}
	// probfn.ByName rejects ρ outside (0,1] and non-positive shapes, so
	// an explicit zero fails here rather than silently becoming the
	// default.
	if _, err := probfn.ByName(q.PF, *q.Rho, *q.Lambda); err != nil {
		return err
	}
	if !(q.Tau > 0 && q.Tau < 1) {
		return fmt.Errorf("subscribe: tau %v outside (0,1)", q.Tau)
	}
	if q.K == nil {
		k := DefaultK
		q.K = &k
	}
	if *q.K < 1 {
		return fmt.Errorf("subscribe: k %d must be at least 1 (omit k for the default)", *q.K)
	}
	switch q.Algorithm {
	case "":
		q.Algorithm = DefaultAlgorithm
	case "pin", "na", "pin-par":
	default:
		return fmt.Errorf(
			"subscribe: algorithm %q cannot back a subscription (want pin, na or pin-par: a candidate filter ranks the full influence vector, and a live pin-vo stops before computing it)",
			q.Algorithm)
	}
	return nil
}

// Register validates q, solves it once, and returns the live
// subscription with its version-1 event already in the backlog.
func (m *Manager) Register(q Query) (*Subscription, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if len(m.subs) >= m.cfg.MaxSubs {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d live)", ErrLimit, m.cfg.MaxSubs)
	}
	m.nextID++
	id := fmt.Sprintf("sub-%d", m.nextID)
	m.mu.Unlock()

	sol, err := m.cfg.Backend.SolveTopK(&q)
	if err != nil {
		return nil, fmt.Errorf("subscribe: initial solve: %w", err)
	}
	sub := newSubscription(id, q, m.cfg.Buffer)
	if len(q.Candidates) > 0 {
		sub.state.filter = make(map[int]bool, len(q.Candidates))
		for _, c := range q.Candidates {
			sub.state.filter[c] = true
		}
	}
	install(sub, sol)
	sub.publish(sol.Epoch, sol.TraceID, sub.state.lastTopK)
	m.events.Add(1)
	recordEvent()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		sub.terminate()
		return nil, ErrClosed
	}
	m.subs[id] = sub
	recordActive(len(m.subs))
	// A batch may have been applied — and its note drained — between
	// the solve and this insertion; a targeted recheck closes the gap.
	if m.lastNoteEpoch > sol.Epoch {
		m.enqueueLocked(BatchNote{Epoch: m.lastNoteEpoch, At: time.Now(), only: id})
	}
	m.mu.Unlock()
	return sub, nil
}

// Get returns a live subscription.
func (m *Manager) Get(id string) (*Subscription, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[id]
	return s, ok
}

// Cancel terminates and removes a subscription; reports whether it was
// live.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	s, ok := m.subs[id]
	if ok {
		delete(m.subs, id)
		recordActive(len(m.subs))
	}
	m.mu.Unlock()
	if ok {
		s.terminate()
	}
	return ok
}

// Notify enqueues one applied mutation batch for the worker. Never
// blocks on solving; safe from any goroutine.
func (m *Manager) Notify(note BatchNote) {
	if note.At.IsZero() {
		note.At = time.Now()
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.enqueueLocked(note)
	m.mu.Unlock()
}

// enqueueLocked appends a note and wakes the worker. Caller holds mu.
func (m *Manager) enqueueLocked(note BatchNote) {
	note.enqueuedAt = time.Now()
	m.pending = append(m.pending, note)
	m.outstanding++
	if note.Epoch > m.lastNoteEpoch {
		m.lastNoteEpoch = note.Epoch
	}
	select {
	case m.signal <- struct{}{}:
	default:
	}
}

// Drain blocks until every note enqueued so far has been processed.
// Intended for tests and orderly shutdown sequencing.
func (m *Manager) Drain() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.outstanding > 0 && !m.closed {
		m.cond.Wait()
	}
}

// Close terminates every subscription with a goodbye event and stops
// the worker. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	subs := make([]*Subscription, 0, len(m.subs))
	for _, s := range m.subs {
		subs = append(subs, s)
	}
	m.subs = map[string]*Subscription{}
	m.pending = nil
	m.cond.Broadcast()
	m.mu.Unlock()

	close(m.done)
	m.wg.Wait()
	for _, s := range subs {
		s.terminate()
	}
	recordActive(0)
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	active := len(m.subs)
	registered := m.nextID
	m.mu.Unlock()
	return Stats{
		Active:     active,
		Registered: registered,
		Events:     m.events.Load(),
		Resolved:   m.resolved.Load(),
		Stale:      m.stale.Load(),
		Errors:     m.errors.Load(),
	}
}

// worker is the single solve loop: it drains the note queue, coalesces
// what piled up, and checks every subscription against it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case <-m.signal:
		}
		for {
			m.mu.Lock()
			notes := m.pending
			m.pending = nil
			subs := make([]*Subscription, 0, len(m.subs))
			for _, s := range m.subs {
				subs = append(subs, s)
			}
			m.mu.Unlock()
			if len(notes) == 0 {
				break
			}
			m.process(notes, subs)
			m.mu.Lock()
			m.outstanding -= len(notes)
			m.cond.Broadcast()
			m.mu.Unlock()
		}
	}
}

// process folds a drained run of notes into every subscription.
// Untargeted notes coalesce into one merged batch PER SUBSCRIPTION —
// at most one solve no matter how many batches piled up. The merge
// skips notes at or below the subscription's last solved epoch: a
// stale note must not force a re-solve on a subscription whose answer
// already reflects it. Targeted rechecks run individually.
func (m *Manager) process(notes []BatchNote, subs []*Subscription) {
	untargeted := notes[:0]
	for _, n := range notes {
		if n.only != "" {
			m.mu.Lock()
			target, ok := m.subs[n.only]
			m.mu.Unlock()
			if ok {
				m.check(target, &n)
			}
			continue
		}
		untargeted = append(untargeted, n)
	}
	if len(untargeted) == 0 {
		return
	}
	for _, sub := range subs {
		merged := mergeNotes(untargeted, sub.state.solvedEpoch)
		if merged == nil {
			m.stale.Add(1)
			recordCheck("stale")
			continue
		}
		m.check(sub, merged)
	}
}

// mergeNotes coalesces the notes strictly newer than after into one
// batch: max epoch (with its trace), earliest enqueue time, summed WAL
// time. Returns nil when every note is stale.
func mergeNotes(notes []BatchNote, after int64) *BatchNote {
	merged := BatchNote{Epoch: after}
	for _, n := range notes {
		if n.Epoch <= after {
			continue
		}
		merged.merged++
		if n.Epoch > merged.Epoch {
			merged.Epoch = n.Epoch
			merged.TraceID = n.TraceID
			merged.WALSeq = n.WALSeq
		}
		if merged.At.IsZero() || n.At.Before(merged.At) {
			merged.At = n.At
		}
		if merged.enqueuedAt.IsZero() || n.enqueuedAt.Before(merged.enqueuedAt) {
			merged.enqueuedAt = n.enqueuedAt
		}
		// WAL time sums: the coalesced pipeline run covers every batch's
		// append work.
		merged.WALDur += n.WALDur
	}
	if merged.merged == 0 {
		return nil
	}
	return &merged
}

// check runs one subscription against one (possibly merged) batch:
// stale skip, or re-solve + diff + publish. A re-solve produces a
// kind="notify" pipeline trace under the triggering mutation's trace
// ID, with one child span per stage, so GET
// /v1/debug/traces/{ingest-id} answers "why was this notify late"
// stage by stage.
func (m *Manager) check(sub *Subscription, note *BatchNote) {
	st := &sub.state
	if note.Epoch <= st.solvedEpoch {
		m.stale.Add(1)
		recordCheck("stale")
		return
	}
	var queueWait time.Duration
	if !note.enqueuedAt.IsZero() {
		queueWait = time.Since(note.enqueuedAt)
	}
	recordStage(StageQueueWait, queueWait)
	var root *obs.Span
	if m.cfg.Traces != nil {
		root = obs.NewSpan("notify")
		root.SetAttr("subscription", sub.ID)
		root.SetAttr("batches_coalesced", note.merged)
		if note.WALDur > 0 {
			root.Child("wal-append").Accumulate(note.WALDur)
		}
		root.Child("queue-wait").Accumulate(queueWait)
	}
	solveStart := time.Now()
	sol, err := m.cfg.Backend.SolveTopK(&sub.Query)
	solveDur := time.Since(solveStart)
	recordStage(StageSolve, solveDur)
	ss := root.Child("solve")
	ss.Accumulate(solveDur)
	if err != nil {
		// solvedEpoch stays put: the next fresh batch retries the solve.
		m.errors.Add(1)
		recordCheck("error")
		root.SetAttr("error", err.Error())
		m.finishPipeline(sub, note, root, 0, err, false)
		return
	}
	ss.Adopt(sol.Trace)
	m.resolved.Add(1)
	recordCheck("resolved")
	prev := st.lastIDs
	install(sub, sol)
	changed := !equalIDs(prev, st.lastIDs)
	if changed {
		// The event carries the triggering mutation's trace ID when it
		// has one, so a consumer can walk from the delivered event back
		// to the full ingest→notify tree.
		traceID := note.TraceID
		if traceID == "" {
			traceID = sol.TraceID
		}
		pubStart := time.Now()
		_, ok := sub.publish(sol.Epoch, traceID, st.lastTopK)
		pubDur := time.Since(pubStart)
		recordStage(StagePublish, pubDur)
		if ok {
			m.events.Add(1)
			recordEvent()
			lat := time.Since(note.At)
			recordNotifyLatency(lat)
			if m.cfg.NotifyLatency != nil {
				m.cfg.NotifyLatency.Observe(lat.Seconds())
			}
		}
		root.Child("publish").Accumulate(pubDur)
	}
	m.finishPipeline(sub, note, root, sol.Epoch, nil, changed)
}

// finishPipeline retains one finished notify-pipeline run as a trace
// of kind "notify" under the triggering mutation's trace ID (a fresh
// ID when the batch was untraced), marking runs over SlowNotify slow —
// which routes them into the store's always-keep ring — and logging
// them the way slow queries are logged.
func (m *Manager) finishPipeline(sub *Subscription, note *BatchNote, root *obs.Span, epoch int64, err error, changed bool) {
	if m.cfg.Traces == nil {
		return
	}
	dur := time.Since(note.At)
	root.SetAttr("changed", changed)
	id := note.TraceID
	if id == "" {
		id = obs.NewTraceID()
	}
	t := &obs.Trace{
		ID:         id,
		Kind:       obs.KindNotify,
		Route:      "notify",
		Start:      note.At,
		DurationMS: float64(dur) / float64(time.Millisecond),
		Outcome:    obs.OutcomeOK,
		Slow:       m.cfg.SlowNotify > 0 && dur >= m.cfg.SlowNotify,
		Algorithm:  sub.Query.Algorithm,
		Epoch:      epoch,
		WALSeq:     note.WALSeq,
		Root:       root,
	}
	if err != nil {
		t.Outcome = obs.OutcomeError
	}
	phases := obs.PhaseMillis(root) // before Add snapshots and drops Root
	m.cfg.Traces.Add(t)
	if !t.Slow {
		return
	}
	args := []any{
		"trace_id", t.ID,
		"subscription", sub.ID,
		"outcome", t.Outcome,
		"elapsed_ms", t.DurationMS,
		"changed", changed,
	}
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		args = append(args, "phase_"+name+"_ms", phases[name])
	}
	slog.Warn("slow notify", args...)
}

// install takes a fresh solution: apply the candidate filter, cut the
// delivered prefix, record the solved epoch.
func install(sub *Subscription, sol *Solution) {
	st := &sub.state
	ranked := sol.Ranked
	if st.filter != nil {
		ranked = make([]Candidate, 0, len(st.filter))
		for _, c := range sol.Ranked {
			if st.filter[c.ID] {
				ranked = append(ranked, c)
			}
		}
	}
	k := min(sub.Query.KVal(), len(ranked))
	st.lastTopK = append([]Candidate(nil), ranked[:k]...)
	st.lastIDs = make([]int, k)
	for i, c := range ranked[:k] {
		st.lastIDs[i] = c.ID
	}
	st.solvedEpoch = sol.Epoch
}

func equalIDs(a, b []int) bool {
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
