package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed phase of a computation. Spans form a tree: a
// per-query root (NewSpan) with one child per phase, and deeper
// children for per-worker or nested phases. Durations come from the
// monotonic clock (time.Since).
//
// All methods are safe on a nil receiver and do nothing, so
// instrumented code never branches on whether tracing is on:
//
//	sp := p.Obs.Child("prune") // p.Obs may be nil
//	defer sp.End()
//
// A span's duration is either the wall time between creation and
// End, or — for phases whose work is interleaved with other phases
// inside one loop — the sum of StartTimer/StopTimer windows.
// Concurrent children (Child) and timer windows (StopTimer) are safe
// from multiple goroutines.
type Span struct {
	name  string
	start time.Time

	// durNS is the recorded duration in nanoseconds. It accumulates
	// via StopTimer/Accumulate windows; End finalizes it to wall time
	// when no window was recorded.
	durNS atomic.Int64
	// windows counts explicit accumulation windows; End leaves durNS
	// alone when at least one was recorded.
	windows atomic.Int64
	ended   atomic.Bool

	mu       sync.Mutex
	children []*Span
	attrs    map[string]any
}

// NewSpan starts a root span for one query or experiment run.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a sub-span. It returns nil when s is nil, so chains of
// instrumentation stay zero-cost without tracing.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := NewSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Adopt attaches an independently created span (and its subtree) as a
// child — the linking primitive for causal traces whose stages are
// produced by different components (an ingest's WAL append, a
// subscription re-solve) and joined after the fact. Nil-safe on both
// sides.
func (s *Span) Adopt(c *Span) {
	if s == nil || c == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End finalizes the span. When no StartTimer/StopTimer window was
// accumulated the duration becomes the wall time since creation;
// otherwise the accumulated total stands. End is idempotent.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	if s.windows.Load() == 0 {
		s.durNS.Store(int64(time.Since(s.start)))
	}
}

// EndExclusive ends the span with duration time.Since(start) minus
// the current duration of each excluded span — for a phase whose loop
// interleaves work attributed to other phases (e.g. a prune scan that
// calls validation inline). start should come from s.StartTimer().
func (s *Span) EndExclusive(start time.Time, exclude ...*Span) {
	if s == nil || start.IsZero() || s.ended.Swap(true) {
		return
	}
	d := time.Since(start)
	for _, e := range exclude {
		d -= e.Duration()
	}
	if d < 0 {
		d = 0
	}
	s.windows.Add(1)
	s.durNS.Store(int64(d))
}

// StartTimer opens an accumulation window. It returns the zero time
// when s is nil, which makes the matching StopTimer a no-op.
func (s *Span) StartTimer() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// StopTimer closes an accumulation window opened by StartTimer,
// adding its elapsed time to the span's duration.
func (s *Span) StopTimer(start time.Time) {
	if s == nil || start.IsZero() {
		return
	}
	s.windows.Add(1)
	s.durNS.Add(int64(time.Since(start)))
}

// A WindowSampler amortizes StartTimer/StopTimer over high-frequency
// loops: it times one window out of every 2^logEvery and, at Finish,
// accumulates the mean sampled window scaled by the total window
// count, so per-item instrumentation costs two clock reads per
// 2^logEvery items instead of two per item. Phase attribution becomes
// an estimate; for loops whose items do near-identical work (the
// position probes of a validation pass) the error stays far below
// scheduler noise, while the clock-read tax per-pair windows put on
// traced re-solves disappears. Scaling by the observed count rather
// than the fixed interval keeps the estimate sound for loops shorter
// than one interval — a single timed window never counts for more
// iterations than actually ran.
//
// A sampler is single-goroutine state — each parallel worker builds
// its own over its own span; only the span accumulation is shared.
type WindowSampler struct {
	sp       *Span
	mask     uint64
	count    uint64
	samples  uint64
	sum      time.Duration
	overhead time.Duration
	start    time.Time
	// first is when the first window opened: the scaled estimate is
	// capped at the time since, so it never exceeds the loop's own wall
	// time (a few slow sampled windows scaled up could otherwise).
	first time.Time
}

// timerOverheadNS caches the measured cost of an empty timer window —
// the clock-read tail of Start plus the call-to-clock-read head of
// Stop. Sampled windows are often tens of nanoseconds of real work,
// so leaving this in-window would bias the scaled estimate upward by
// a large fraction; Stop subtracts it per sample.
var timerOverheadNS atomic.Int64

func timerOverhead() time.Duration {
	if v := timerOverheadNS.Load(); v > 0 {
		return time.Duration(v)
	}
	min := time.Duration(1 << 62)
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if d := time.Since(t0); d < min {
			min = d
		}
	}
	if min < 1 {
		min = 1
	}
	timerOverheadNS.Store(int64(min))
	return min
}

// Sampler returns a WindowSampler over s timing one in every
// 2^logEvery windows. Nil-safe: a nil span yields a nil sampler whose
// methods do nothing, preserving the zero-cost untraced path.
func (s *Span) Sampler(logEvery uint) *WindowSampler {
	if s == nil {
		return nil
	}
	return &WindowSampler{sp: s, mask: 1<<logEvery - 1, overhead: timerOverhead()}
}

// Start opens the window when this iteration is the sampled one.
func (w *WindowSampler) Start() {
	if w != nil && w.count&w.mask == 0 {
		w.start = time.Now()
		if w.count == 0 {
			w.first = w.start
		}
	}
}

// Stop closes a window opened by Start, recording the sampled
// duration.
func (w *WindowSampler) Stop() {
	if w == nil {
		return
	}
	if w.count&w.mask == 0 {
		if d := time.Since(w.start) - w.overhead; d > 0 {
			w.sum += d
		}
		w.samples++
	}
	w.count++
}

// Finish accumulates the loop's estimated duration — mean sampled
// window × total windows, at most the wall time since the first window
// opened — into the span and resets the sampler for reuse. Call it
// once after the loop, before the span's End.
func (w *WindowSampler) Finish() {
	if w == nil || w.samples == 0 {
		return
	}
	est := w.sum * time.Duration(w.count) / time.Duration(w.samples)
	if ran := time.Since(w.first); est > ran {
		est = ran
	}
	w.sp.Accumulate(est)
	w.count, w.samples, w.sum = 0, 0, 0
}

// Accumulate adds d to the span's duration directly.
func (s *Span) Accumulate(d time.Duration) {
	if s == nil {
		return
	}
	s.windows.Add(1)
	s.durNS.Add(int64(d))
}

// SetAttr attaches a key/value annotation (work counters, parameters)
// serialized into the span's JSON.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the recorded duration: the accumulated total, the
// finalized wall time after End, or the live wall time for a span
// still open with no accumulation windows.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if d := s.durNS.Load(); d > 0 || s.ended.Load() || s.windows.Load() > 0 {
		return time.Duration(d)
	}
	return time.Since(s.start)
}

// Children returns a snapshot of the direct sub-spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attr returns one annotation (nil when absent or s is nil).
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs[key]
}

// SpanJSON is the serialized form of a span tree. The schema is
// documented in DESIGN.md §6: name, RFC3339Nano start, duration in
// both nanoseconds and milliseconds, flat attrs, recursive children.
type SpanJSON struct {
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationNS int64          `json:"duration_ns"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanJSON     `json:"children,omitempty"`
}

// Snapshot converts the span tree into its serializable form.
func (s *Span) Snapshot() SpanJSON {
	if s == nil {
		return SpanJSON{}
	}
	d := s.Duration()
	out := SpanJSON{
		Name:       s.name,
		Start:      s.start,
		DurationNS: int64(d),
		DurationMS: float64(d) / float64(time.Millisecond),
	}
	s.mu.Lock()
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			out.Attrs[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.Snapshot())
	}
	return out
}

// MarshalJSON serializes the span tree.
func (s *Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Snapshot())
}

// PhaseMillis flattens a span tree into per-phase milliseconds: the
// durations of all spans below the root, summed by name. Per-worker
// children therefore aggregate into their phase's CPU total (which
// can exceed the root's wall time).
func PhaseMillis(root *Span) map[string]float64 {
	if root == nil {
		return nil
	}
	out := make(map[string]float64)
	var walk func(s *Span)
	walk = func(s *Span) {
		for _, c := range s.Children() {
			out[c.Name()] += float64(c.Duration()) / float64(time.Millisecond)
			walk(c)
		}
	}
	walk(root)
	return out
}
