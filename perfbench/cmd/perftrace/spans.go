package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one recorded call at a layer boundary: name is
// "<module>.<func>", times are offsets from the start of the replay,
// Parent is the enclosing span's id (0 for an op's root) and Op the op
// the call served.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder keeps every span in memory until the run ends.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span under parent for op and returns a function that
// closes it and yields the span's id.
func (r *Recorder) Start(op, parent int, name string) func() int {
	start := time.Since(r.t0)
	return func() int {
		end := time.Since(r.t0)
		r.mu.Lock()
		defer r.mu.Unlock()
		id := len(r.spans) + 1
		r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
		return id
	}
}

// Root opens an op's root span, allocated up front so its children can
// name it as their parent. The returned end function closes it; calls
// after the first are no-ops.
func (r *Recorder) Root(op int, name string) (id int, end func()) {
	r.mu.Lock()
	id = len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Op: op, Name: name, Start: time.Since(r.t0)})
	r.mu.Unlock()
	var once sync.Once
	return id, func() {
		once.Do(func() {
			r.mu.Lock()
			r.spans[id-1].End = time.Since(r.t0)
			r.mu.Unlock()
		})
	}
}

// Call records fn as a span named name under parent.
func (r *Recorder) Call(op, parent int, name string, fn func()) {
	done := r.Start(op, parent, name)
	fn()
	done()
}

// selfTimes returns each span name's self times in milliseconds: the
// span's duration minus the part of it its children cover (children
// of one parent never overlap in this replay, so that part is the sum
// of their durations).
func (r *Recorder) selfTimes() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := map[int]time.Duration{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range r.spans {
		self := s.End - s.Start - child[s.ID]
		out[s.Name] = append(out[s.Name], float64(self)/float64(time.Millisecond))
	}
	return out
}

// opSums returns, per op, the summed durations of its spans with the
// given names.
func (r *Recorder) opSums(names ...string) map[int]float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int]float64{}
	for _, s := range r.spans {
		if want[s.Name] {
			out[s.Op] += float64(s.End-s.Start) / float64(time.Millisecond)
		}
	}
	return out
}

// write saves every span, ordered by start, as JSON.
func (r *Recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
