// Package subscribe turns the PRIME-LS daemon into a monitoring
// system: a client registers a standing top-k query once and is pushed
// a versioned event whenever streaming position updates change its
// answer, instead of polling /v1/query.
//
// The lifecycle (DESIGN.md §12): Register validates the query and
// solves it once. Every applied mutation reaches the manager as a
// BatchNote carrying its epoch; a single worker re-solves each
// subscription whose solved epoch the notes have passed (outcome
// resolved), skips the rest (stale), and counts failed solves (error).
// A re-solve that changes the delivered ranking publishes the next
// versioned Event into the subscription's backlog ring, waking every
// attached SSE stream and long-poll.
//
// Delivery is at-least-once, versioned and coalescing: versions are
// dense per subscription, the ring keeps the latest Buffer events (a
// slow consumer skips intermediate versions, never sees stale ones out
// of order), and a burst of batches may collapse into one event solved
// at the latest epoch.
package subscribe

import (
	"sync"
)

// Default query parameters, shared with /v1/query's request prefill
// so the two validators agree on every parameter: an omitted field
// selects the same default on both endpoints, and an explicit invalid
// value (rho 0, lambda 0, k 0) is rejected by both instead of being
// silently rewritten.
const (
	DefaultPF        = "powerlaw"
	DefaultRho       = 0.9
	DefaultLambda    = 1.0
	DefaultK         = 1
	DefaultAlgorithm = "pin"
)

// Query is a standing top-k request: the per-subscription solve
// parameters plus an optional candidate filter. Rho, Lambda and K are
// pointers so "omitted" (nil → default) is distinguishable from an
// explicit zero, which is invalid and rejected — a client never gets
// a silently different query than it sent.
type Query struct {
	// Candidates restricts the ranking to these candidate ids; empty
	// means all live candidates. Influence is independent per candidate,
	// so the filtered answer is the restriction of the full vector.
	Candidates []int `json:"candidates,omitempty"`
	// PF, Rho, Lambda name the probability family exactly as in
	// /v1/query. Empty PF selects the power law; nil Rho/Lambda select
	// ρ=0.9, λ=1.0. Explicit values outside the family's domain
	// (including zero) are rejected.
	PF     string   `json:"pf,omitempty"`
	Rho    *float64 `json:"rho,omitempty"`
	Lambda *float64 `json:"lambda,omitempty"`
	// Tau is the influence threshold, required in (0,1).
	Tau float64 `json:"tau"`
	// K is the tracked prefix length; nil selects 1, explicit values
	// below 1 (including zero) are rejected.
	K *int `json:"k,omitempty"`
	// Algorithm must compute a full influence vector, which a candidate
	// filter ranks: pin (default), na or pin-par. pin-vo is rejected:
	// run live (index cache off), it stops before computing the vector.
	Algorithm string `json:"algorithm,omitempty"`
}

// RhoVal returns the effective ρ (DefaultRho when unset).
func (q *Query) RhoVal() float64 {
	if q.Rho == nil {
		return DefaultRho
	}
	return *q.Rho
}

// LambdaVal returns the effective λ (DefaultLambda when unset).
func (q *Query) LambdaVal() float64 {
	if q.Lambda == nil {
		return DefaultLambda
	}
	return *q.Lambda
}

// KVal returns the effective k (DefaultK when unset).
func (q *Query) KVal() int {
	if q.K == nil {
		return DefaultK
	}
	return *q.K
}

// Candidate is one ranked row of a delivered result.
type Candidate struct {
	ID        int     `json:"id"`
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	Influence int     `json:"influence"`
}

// Event is one versioned delivery. Versions are dense per
// subscription; version 1 is the registration-time answer. Influences
// are exact as of Epoch.
type Event struct {
	SubID   string      `json:"subscription"`
	Version uint64      `json:"version"`
	Epoch   int64       `json:"epoch"`
	TraceID string      `json:"trace_id,omitempty"`
	TopK    []Candidate `json:"top_k"`
	// Terminal marks the goodbye event: the subscription was cancelled
	// or the server is shutting down; no further events will follow.
	Terminal bool `json:"terminal,omitempty"`
}

// Subscription is one registered standing query plus its delivery
// state. Consumers read the backlog with Since and block on Wait; the
// manager is the only writer.
type Subscription struct {
	ID    string
	Query Query

	mu sync.Mutex
	// ring holds the most recent events, oldest first, capped at buffer.
	// Versions inside are contiguous; a consumer that fell behind the
	// ring's head observes a coalesced gap.
	ring    []Event
	buffer  int
	version uint64
	closed  bool
	// change is the broadcast generation: closed (and replaced) on
	// every publish, closed for good when the subscription terminates.
	change chan struct{}

	// solver state, owned by the manager worker (never touched by
	// consumers): see manager.go.
	state subState
}

func newSubscription(id string, q Query, buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	return &Subscription{
		ID:     id,
		Query:  q,
		buffer: buffer,
		change: make(chan struct{}),
	}
}

// publish appends the next versioned event and wakes every waiter.
// Returns the published event. No-op after close.
func (s *Subscription) publish(epoch int64, traceID string, topK []Candidate) (Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Event{}, false
	}
	s.version++
	ev := Event{
		SubID:   s.ID,
		Version: s.version,
		Epoch:   epoch,
		TraceID: traceID,
		TopK:    topK,
	}
	s.push(ev)
	close(s.change)
	s.change = make(chan struct{})
	return ev, true
}

// terminate publishes the terminal event and closes the broadcast for
// good; idempotent.
func (s *Subscription) terminate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.version++
	s.push(Event{SubID: s.ID, Version: s.version, Terminal: true})
	close(s.change)
}

// push appends to the ring, evicting the oldest event when full.
// Caller holds mu.
func (s *Subscription) push(ev Event) {
	if len(s.ring) >= s.buffer {
		n := copy(s.ring, s.ring[1:])
		s.ring = s.ring[:n]
	}
	s.ring = append(s.ring, ev)
}

// Since returns the retained events with Version > after, oldest
// first, plus whether the backlog coalesced (events between after and
// the first returned one were evicted before this consumer saw them).
func (s *Subscription) Since(after uint64) (events []Event, coalesced bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ev := range s.ring {
		if ev.Version > after {
			events = append(events, ev)
		}
	}
	if len(events) > 0 && events[0].Version > after+1 {
		coalesced = true
	}
	return events, coalesced
}

// Wait returns a channel closed on the next publish (or termination).
// Grab the channel, drain Since, then block on it — the close-channel
// generation makes the publish race-free.
func (s *Subscription) Wait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.change
}

// Closed reports whether the subscription has terminated.
func (s *Subscription) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Version returns the latest published version.
func (s *Subscription) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}
