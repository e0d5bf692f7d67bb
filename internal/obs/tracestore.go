package obs

import (
	"sort"
	"sync"
	"time"
)

// Request outcomes recorded in a Trace. The serving layer maps HTTP
// statuses onto them: 2xx/3xx ok, 429 shed, 503 expired, anything
// else error.
const (
	OutcomeOK      = "ok"
	OutcomeError   = "error"
	OutcomeShed    = "shed"
	OutcomeExpired = "expired"
)

// Trace kinds classify what produced a trace. Request/response solves
// (queries and mutations alike) are "query"; the asynchronous
// subscription pipeline emits "notify"; /v1/optimize emits "optimize";
// daemon-internal work (checkpoints, WAL rotation, recovery replay)
// emits "background".
const (
	KindQuery      = "query"
	KindNotify     = "notify"
	KindOptimize   = "optimize"
	KindBackground = "background"
)

// Trace is the retained telemetry of one finished request: identity,
// timing, outcome, the solver's span tree, and the serving-layer
// annotations (epoch, index-cache outcome, WAL sequence) that join it
// to the rest of the system's state. Traces must not be mutated after
// TraceStore.Add — the store hands the same pointer to every reader.
type Trace struct {
	ID         string    `json:"id"`
	Kind       string    `json:"kind,omitempty"`
	Route      string    `json:"route"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Status     int       `json:"status"`
	Outcome    string    `json:"outcome"`
	Slow       bool      `json:"slow,omitempty"`
	Algorithm  string    `json:"algorithm,omitempty"`
	Epoch      int64     `json:"epoch,omitempty"`
	PlanCache  string    `json:"plan_cache,omitempty"` // "hit" or "miss"
	WALSeq     uint64    `json:"wal_seq,omitempty"`
	Spans      *SpanJSON `json:"spans,omitempty"`

	// Root is the live span tree while the request runs; Add snapshots
	// it into Spans and drops it.
	Root *Span `json:"-"`

	seq uint64 // store insertion order, the newest-first sort key
}

// StartSpan attaches a fresh root span to the trace and returns it.
// Nil-safe: with tracing off (t == nil) it returns a nil span, which
// keeps the whole instrumentation chain free.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	t.Root = NewSpan(name)
	return t.Root
}

// SetKind records which pipeline produced the trace (nil-safe).
func (t *Trace) SetKind(kind string) {
	if t != nil {
		t.Kind = kind
	}
}

// SetAlgorithm records which solver served the request (nil-safe).
func (t *Trace) SetAlgorithm(algo string) {
	if t != nil {
		t.Algorithm = algo
	}
}

// SetEpoch records the dataset epoch the request observed (nil-safe).
func (t *Trace) SetEpoch(epoch int64) {
	if t != nil {
		t.Epoch = epoch
	}
}

// SetPlanCache records the influence-index cache outcome (nil-safe).
func (t *Trace) SetPlanCache(outcome string) {
	if t != nil {
		t.PlanCache = outcome
	}
}

// SetWALSeq records the WAL sequence a mutation was logged at
// (nil-safe).
func (t *Trace) SetWALSeq(seq uint64) {
	if t != nil {
		t.WALSeq = seq
	}
}

// Summary returns a copy without the span tree — the shape trace
// listings return, so a list of hundreds of traces stays small.
func (t *Trace) Summary() *Trace {
	c := *t
	c.Spans = nil
	c.Root = nil
	return &c
}

// TraceFilter selects traces in TraceStore.List. Zero fields match
// everything; Limit <= 0 means no limit.
type TraceFilter struct {
	MinMS     float64
	Outcome   string
	Algorithm string
	Kind      string
	Limit     int
}

// TraceStore retains finished request traces with tail-based
// retention: a ring of the most recent capacity traces, plus an
// equally sized ring that only slow or non-ok traces enter. Healthy
// high-rate traffic therefore cannot evict the interesting tail — a
// slow or failed request stays visible until capacity *similar*
// requests arrive after it. All methods are nil-receiver safe, so a
// disabled store costs one pointer test.
type TraceStore struct {
	mu       sync.Mutex
	capacity int
	seq      uint64
	recent   []*Trace // ring of the last capacity traces
	recentAt int      // index of the oldest entry once full
	kept     []*Trace // ring of the last capacity slow/non-ok traces
	keptAt   int
}

// NewTraceStore builds a store retaining capacity recent traces plus
// capacity slow/errored ones. capacity <= 0 returns nil — tracing
// disabled.
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		return nil
	}
	return &TraceStore{capacity: capacity}
}

// ringPut appends t, overwriting the oldest entry once the ring is at
// capacity. Returns the ring and the next overwrite index.
func ringPut(ring []*Trace, at, capacity int, t *Trace) ([]*Trace, int) {
	if len(ring) < capacity {
		return append(ring, t), at
	}
	ring[at] = t
	return ring, (at + 1) % capacity
}

// Add captures one finished trace, snapshotting (and ending) its span
// tree. Slow and non-ok traces additionally enter the retained ring.
func (ts *TraceStore) Add(t *Trace) {
	if ts == nil || t == nil {
		return
	}
	if t.Root != nil {
		t.Root.End()
		snap := t.Root.Snapshot()
		t.Spans = &snap
		t.Root = nil
	}
	ts.mu.Lock()
	ts.seq++
	t.seq = ts.seq
	ts.recent, ts.recentAt = ringPut(ts.recent, ts.recentAt, ts.capacity, t)
	if t.Slow || t.Outcome != OutcomeOK {
		ts.kept, ts.keptAt = ringPut(ts.kept, ts.keptAt, ts.capacity, t)
	}
	ts.mu.Unlock()
}

// AddBackground retains one finished background operation (a
// checkpoint, WAL segment rotation, recovery replay, refine loop) as a
// trace of kind "background" under a fresh ID, so slow daemon-internal
// work is debuggable through /v1/debug/traces exactly like a slow
// query. slow > 0 marks traces at or above that duration as Slow,
// routing them into the always-keep ring. Returns the assigned trace
// ID ("" when the store is disabled).
func (ts *TraceStore) AddBackground(route string, start time.Time, root *Span, err error, slow time.Duration) string {
	if ts == nil {
		return ""
	}
	dur := time.Since(start)
	t := &Trace{
		ID:         NewTraceID(),
		Kind:       KindBackground,
		Route:      route,
		Start:      start,
		DurationMS: float64(dur) / float64(time.Millisecond),
		Outcome:    OutcomeOK,
		Slow:       slow > 0 && dur >= slow,
		Root:       root,
	}
	if err != nil {
		t.Outcome = OutcomeError
	}
	ts.Add(t)
	return t.ID
}

// Get returns the retained trace with the given ID. Client-supplied
// IDs can repeat; the newest wins.
func (ts *TraceStore) Get(id string) (*Trace, bool) {
	if ts == nil {
		return nil, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var best *Trace
	for _, ring := range [2][]*Trace{ts.recent, ts.kept} {
		for _, t := range ring {
			if t.ID == id && (best == nil || t.seq > best.seq) {
				best = t
			}
		}
	}
	return best, best != nil
}

// List returns the retained traces matching f, newest first.
func (ts *TraceStore) List(f TraceFilter) []*Trace {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	seen := make(map[uint64]bool, len(ts.recent)+len(ts.kept))
	out := make([]*Trace, 0, len(ts.recent)+len(ts.kept))
	for _, ring := range [2][]*Trace{ts.recent, ts.kept} {
		for _, t := range ring {
			switch {
			case seen[t.seq]:
			case t.DurationMS < f.MinMS:
			case f.Outcome != "" && t.Outcome != f.Outcome:
			case f.Algorithm != "" && t.Algorithm != f.Algorithm:
			case f.Kind != "" && t.Kind != f.Kind:
			default:
				seen[t.seq] = true
				out = append(out, t)
			}
		}
	}
	ts.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// Len returns how many distinct traces are currently retained.
func (ts *TraceStore) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	n := len(ts.recent)
	for _, t := range ts.kept {
		inRecent := false
		for _, r := range ts.recent {
			if r.seq == t.seq {
				inRecent = true
				break
			}
		}
		if !inRecent {
			n++
		}
	}
	return n
}
