package dynamic

import (
	"math/rand"
	"sort"
	"testing"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

func TestNewTopKGuardValidation(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	cands := []GuardCandidate{{ID: 0}}
	if _, err := NewTopKGuard(nil, 0.7, 1, cands); err == nil {
		t.Error("nil PF should fail")
	}
	if _, err := NewTopKGuard(pf, 1.2, 1, cands); err == nil {
		t.Error("tau outside (0,1) should fail")
	}
	if _, err := NewTopKGuard(pf, 0.7, 0, cands); err == nil {
		t.Error("k < 1 should fail")
	}
	g, err := NewTopKGuard(pf, 0.7, 5, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.TopK()); got != 1 {
		t.Errorf("k clamps to candidate count: got prefix %d, want 1", got)
	}
	if !g.Certified() {
		t.Error("fresh guard should be certified")
	}
	g.Invalidate()
	if g.Certified() {
		t.Error("invalidated guard should not be certified")
	}
}

// rankReference builds the exact ranked id vector from the engine's
// live influences, the oracle every watch claim is checked against.
func rankReference(inf map[int]int) []int {
	ids := make([]int, 0, len(inf))
	for id := range inf {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if inf[ids[a]] != inf[ids[b]] {
			return inf[ids[a]] > inf[ids[b]]
		}
		return ids[a] < ids[b]
	})
	return ids
}

func watchIDs(top []GuardCandidate) []int {
	ids := make([]int, len(top))
	for i, c := range top {
		ids[i] = c.ID
	}
	return ids
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

// watch is one standing top-k view over an Engine, kept the way
// subscribe.Manager keeps a subscription: a TopKGuard absorbs each
// append batch it certifies, and any other batch re-ranks the engine's
// exact vector and arms a fresh guard.
type watch struct {
	k           int
	guard       *TopKGuard
	evaluations int64 // ranking recomputations (registration included)
	suppressed  int64 // batches certified unchanged without one
}

// engineVector is the engine's exact influence vector as guard input.
func engineVector(e *Engine) []GuardCandidate {
	ids, pts := e.SnapshotCandidates()
	inf := e.Influences()
	out := make([]GuardCandidate, len(ids))
	for i, id := range ids {
		out[i] = GuardCandidate{ID: id, Pt: pts[i], Influence: inf[id]}
	}
	return out
}

// rebuild re-ranks the engine's exact vector, arms a fresh guard and
// returns the new ranked prefix.
func (w *watch) rebuild(t *testing.T, e *Engine) []int {
	t.Helper()
	g, err := NewTopKGuard(e.pf, e.tau, w.k, engineVector(e))
	if err != nil {
		t.Fatal(err)
	}
	w.guard = g
	w.evaluations++
	return watchIDs(g.TopK())
}

// observe folds one applied batch (its post-append objects) into the
// watch and reports whether its ranking changed.
func (w *watch) observe(t *testing.T, e *Engine, touched []*object.Object) bool {
	t.Helper()
	if w.guard.Certified() && w.guard.Observe(touched) {
		w.suppressed++
		return false
	}
	prev := watchIDs(w.guard.TopK())
	return !equalIDs(prev, w.rebuild(t, e))
}

// TestWatchFilterSoundness is the safe-region filter property test:
// stream 1200+ random position appends in random cross-object batches
// into an Engine and, after every batch, compare each guarded watch's
// ranking against a fresh ranking of the engine's exact influences. A
// suppressed re-solve that hides a real top-k change — the filter's
// only possible unsoundness — would surface as a mismatch here.
func TestWatchFilterSoundness(t *testing.T) {
	const (
		nObjects    = 30
		nCandidates = 40
		nBatches    = 400 // x avg ~3.5 appends/batch > 1k appends
		coordSpan   = 120.0
		stepSpan    = 3.0 // random-walk step per append
	)
	e, err := New(probfn.DefaultPowerLaw(), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	pt := func() geo.Point {
		return geo.Point{X: rng.Float64() * coordSpan, Y: rng.Float64() * coordSpan}
	}
	for i := 0; i < nCandidates; i++ {
		e.AddCandidate(pt())
	}
	// Objects random-walk from their seed position — moving objects take
	// small steps, which is what gives a safe-region filter its value.
	at := make([]geo.Point, nObjects)
	for id := 0; id < nObjects; id++ {
		at[id] = pt()
		if err := e.AddObject(id, []geo.Point{at[id]}); err != nil {
			t.Fatal(err)
		}
	}
	step := func(id int) geo.Point {
		at[id] = geo.Point{
			X: at[id].X + (rng.Float64()-0.5)*2*stepSpan,
			Y: at[id].Y + (rng.Float64()-0.5)*2*stepSpan,
		}
		return at[id]
	}

	watches := map[string]*watch{"w1": {k: 1}, "w3": {k: 3}, "w5": {k: 5}}
	prev := map[string][]int{}
	for name, w := range watches {
		top := w.rebuild(t, e)
		ref := rankReference(e.Influences())
		want := ref[:min(w.k, len(ref))]
		if !equalIDs(top, want) {
			t.Fatalf("watch %s initial ranking %v, want %v", name, top, want)
		}
		prev[name] = want
	}

	appends := 0
	for b := 0; b < nBatches; b++ {
		n := 1 + rng.Intn(6)
		var touched []*object.Object
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			id := rng.Intn(nObjects)
			np := 1 + rng.Intn(2)
			for j := 0; j < np; j++ {
				if err := e.AddPosition(id, step(id)); err != nil {
					t.Fatal(err)
				}
			}
			appends += np
			seen[id] = true
		}
		for id := range seen {
			o, err := e.Object(id)
			if err != nil {
				t.Fatal(err)
			}
			touched = append(touched, o)
		}
		ref := rankReference(e.Influences())
		for name, w := range watches {
			changed := w.observe(t, e, touched)
			got := watchIDs(w.guard.TopK())
			want := ref[:min(w.k, len(ref))]
			if !equalIDs(got, want) {
				t.Fatalf("batch %d: watch %s ranking %v, want %v", b, name, got, want)
			}
			if wantChanged := !equalIDs(prev[name], want); wantChanged != changed {
				t.Fatalf("batch %d: watch %s change flag %v, want %v (prev %v now %v)",
					b, name, changed, wantChanged, prev[name], want)
			}
			prev[name] = want
		}
	}

	if appends < 1000 {
		t.Fatalf("stream too short: %d appends, want >= 1000", appends)
	}
	// The filter must have absorbed a measurable share of batches
	// without a ranking recomputation; otherwise it is dead weight.
	anySuppressed := false
	for name, w := range watches {
		t.Logf("watch %s: evaluations=%d suppressed=%d (of %d batches)",
			name, w.evaluations, w.suppressed, nBatches)
		if w.suppressed > 0 {
			anySuppressed = true
		}
		if w.evaluations+w.suppressed < nBatches {
			t.Errorf("watch %s: evaluations %d + suppressed %d < %d batches",
				name, w.evaluations, w.suppressed, nBatches)
		}
	}
	if !anySuppressed {
		t.Error("safe-region filter suppressed nothing across the whole stream")
	}
}
