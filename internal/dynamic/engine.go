// Package dynamic implements the incremental PRIME-LS engine the paper
// names as future work (§7): maintaining the influence of every
// candidate location while "candidate locations, objects as well as
// their positions keep on changing".
//
// The engine keeps, per moving object, the set of candidates it
// currently influences. Updates recompute only the affected
// object/candidate pairs, reusing the static solver's pruning
// geometry:
//
//   - adding a position can only create influence (the cumulative
//     probability is monotone in the position set), so only currently
//     non-influenced candidates inside the object's new non-influence
//     boundary are validated;
//   - object insertion/update prunes with the same IA/NIB rules as
//     Algorithm 2, touching one object's row instead of all r;
//   - candidate insertion classifies the new point against every
//     object's regions, validating only the remnant ones;
//   - removals are pure bookkeeping.
//
// Every verdict is the one NA reaches for the same pair: pruning uses
// the margin-checked radii (object.MarginTable) and validation the
// floating-point product NA computes, so the maintained influence
// equals a from-scratch NA solve bit for bit.
//
// Memory is O(Σ_O |influenced(O)|), the size of the current influence
// relation.
//
// Engine is not safe for concurrent use; see the Engine type's note.
package dynamic

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
	"pinocchio/internal/rtree"
)

// Errors reported by the engine.
var (
	ErrUnknownObject    = errors.New("dynamic: unknown object")
	ErrUnknownCandidate = errors.New("dynamic: unknown candidate")
	ErrDuplicateObject  = errors.New("dynamic: object id already present")
)

// Stats counts the incremental work performed since construction.
type Stats struct {
	Validations    int64 // exact cumulative-probability evaluations
	PositionProbes int64 // PF evaluations inside validations
	PrunedByIA     int64 // pairs settled by the influence-arcs rule
	PrunedByNIB    int64 // pairs settled outside the non-influence boundary
}

// objState is one tracked moving object and the candidates it
// currently influences.
type objState struct {
	obj        *object.Object
	influenced map[int]bool
	// owned marks the position slice's backing array as engine-grown:
	// spare capacity past len is unpublished, so AddPosition may fill
	// it in place. Caller-provided slices (AddObject, UpdateObject)
	// are never owned — appending into them could overwrite memory the
	// caller still uses.
	owned bool
}

// Engine maintains exact candidate influences under updates.
//
// An Engine is NOT safe for concurrent use: every method, including
// the read-only accessors, must be serialized by the caller, e.g. by a
// single-writer/many-reader layer like internal/server's, which
// snapshots the engine's state under a read lock and runs queries
// outside it.
type Engine struct {
	pf  probfn.Func
	tau float64
	// bar is the early-stop bar at tau (object.EarlyStopBar).
	bar float64

	candTree   *rtree.Tree
	candPoints map[int]geo.Point
	nextCandID int

	objects map[int]*objState
	radii   *object.MarginTable

	influence map[int]int
	stats     Stats

	// ids is a buffer computeInfluenced reuses: the candidates one
	// object influences, collected so its set can be made at its final
	// size.
	ids []int
}

// New returns an empty engine for the given probability function and
// threshold.
func New(pf probfn.Func, tau float64) (*Engine, error) {
	if pf == nil {
		return nil, errors.New("dynamic: nil probability function")
	}
	if !(tau > 0 && tau < 1) {
		return nil, fmt.Errorf("dynamic: tau %v outside (0,1)", tau)
	}
	return &Engine{
		pf:         pf,
		tau:        tau,
		bar:        object.EarlyStopBar(tau),
		candTree:   rtree.New(rtree.DefaultMaxEntries),
		candPoints: map[int]geo.Point{},
		objects:    map[int]*objState{},
		radii:      object.NewMarginTable(pf, tau, tau),
		influence:  map[int]int{},
	}, nil
}

// Stats returns the work counters accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// Objects returns the number of tracked moving objects.
func (e *Engine) Objects() int { return len(e.objects) }

// Candidates returns the number of live candidate locations.
func (e *Engine) Candidates() int { return len(e.candPoints) }

// validate decides Definition 2 for one pair as NA does: the product
// runs in position order with NA's float operations, stops early once
// it falls to the bar (which already decides 1 − Π ≥ τ), and otherwise
// decides the full product by 1 − Π ≥ τ.
func (e *Engine) validate(c geo.Point, o *object.Object) bool {
	e.stats.Validations++
	nonInf := 1.0
	for _, p := range o.Positions {
		e.stats.PositionProbes++
		nonInf *= 1 - e.pf.Prob(c.Dist(p))
		if nonInf <= e.bar {
			return true
		}
	}
	return 1-nonInf >= e.tau
}

// AddCandidate registers a new candidate location and computes its
// influence over the current objects. It returns the candidate's id.
func (e *Engine) AddCandidate(pt geo.Point) int {
	defer e.finishOp("add_candidate", time.Now(), e.stats)
	id := e.nextCandID
	e.nextCandID++
	e.candPoints[id] = pt
	e.candTree.Insert(rtree.Item{Point: pt, ID: id})

	inf := 0
	for _, os := range e.objects {
		regions := e.radii.Regions(os.obj)
		// The NIB box first, as AddObject's range query applies it: a
		// point an ulp past the box edge can still pass the NIB test,
		// and both orders must weigh the same pairs.
		if !regions.NIBBox().ContainsPoint(pt) {
			e.stats.PrunedByNIB++
			continue
		}
		switch regions.Classify(pt) {
		case object.Influenced:
			e.stats.PrunedByIA++
			os.influenced[id] = true
			inf++
		case object.NeedsValidation:
			if e.validate(pt, os.obj) {
				os.influenced[id] = true
				inf++
			}
		default:
			e.stats.PrunedByNIB++
		}
	}
	e.influence[id] = inf
	return id
}

// RemoveCandidate unregisters a candidate.
func (e *Engine) RemoveCandidate(id int) error {
	pt, ok := e.candPoints[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownCandidate, id)
	}
	defer e.finishOp("remove_candidate", time.Now(), e.stats)
	e.candTree.Delete(rtree.Item{Point: pt, ID: id})
	delete(e.candPoints, id)
	delete(e.influence, id)
	for _, os := range e.objects {
		delete(os.influenced, id)
	}
	return nil
}

// computeInfluenced prunes and validates one object against the
// current candidates, returning the set it influences. Each candidate
// it decides is counted once: by its verdict inside the NIB box, as
// PrunedByNIB outside it. Candidates kept through skipInfluenced are
// not decided again.
func (e *Engine) computeInfluenced(o *object.Object, skipInfluenced map[int]bool) map[int]bool {
	regions := e.radii.Regions(o)
	e.ids = e.ids[:0]
	touched := int64(0)
	e.candTree.SearchRect(regions.NIBBox(), func(it rtree.Item) bool {
		touched++
		if skipInfluenced != nil && skipInfluenced[it.ID] {
			// Already influenced and influence is monotone under the
			// update being processed: stays influenced.
			e.ids = append(e.ids, it.ID)
			return true
		}
		switch regions.Classify(it.Point) {
		case object.Influenced:
			e.stats.PrunedByIA++
			e.ids = append(e.ids, it.ID)
		case object.NeedsValidation:
			if e.validate(it.Point, o) {
				e.ids = append(e.ids, it.ID)
			}
		default:
			e.stats.PrunedByNIB++
		}
		return true
	})
	e.stats.PrunedByNIB += int64(len(e.candPoints)) - touched
	out := make(map[int]bool, len(e.ids))
	for _, id := range e.ids {
		out[id] = true
	}
	return out
}

// AddObject starts tracking a moving object.
func (e *Engine) AddObject(id int, positions []geo.Point) error {
	if _, ok := e.objects[id]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateObject, id)
	}
	o, err := object.New(id, positions)
	if err != nil {
		return err
	}
	defer e.finishOp("add_object", time.Now(), e.stats)
	influenced := e.computeInfluenced(o, nil)
	e.objects[id] = &objState{obj: o, influenced: influenced}
	for c := range influenced {
		e.influence[c]++
	}
	return nil
}

// RemoveObject stops tracking an object.
func (e *Engine) RemoveObject(id int) error {
	os, ok := e.objects[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	defer e.finishOp("remove_object", time.Now(), e.stats)
	for c := range os.influenced {
		e.influence[c]--
	}
	delete(e.objects, id)
	return nil
}

// growCap doubles the needed capacity (floor 8) so a position stream
// costs amortized O(1) copying per append instead of a full-history
// copy every time.
func growCap(need int) int {
	if need < 8 {
		return 8
	}
	return 2 * need
}

// AddPosition appends a newly observed position to an object.
// Influence is monotone under position addition, so only currently
// non-influenced candidates are re-validated.
//
// The position history grows amortized: once the engine owns the
// backing array it appends in place — the write lands one past every
// published slice's length, so snapshots taken earlier (which hold the
// previous *object.Object with the shorter Positions) never observe
// it. Growth reallocates with doubled capacity, leaving the old array
// untouched for any reader still holding it.
func (e *Engine) AddPosition(id int, p geo.Point) error {
	os, ok := e.objects[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	cur := os.obj.Positions
	var positions []geo.Point
	if os.owned && len(cur) < cap(cur) {
		positions = cur[:len(cur)+1]
		positions[len(cur)] = p
	} else {
		positions = make([]geo.Point, len(cur)+1, growCap(len(cur)+1))
		copy(positions, cur)
		positions[len(cur)] = p
		os.owned = true
	}
	o, err := object.Extended(os.obj, positions)
	if err != nil {
		return err
	}
	defer e.finishOp("add_position", time.Now(), e.stats)
	newInfluenced := e.computeInfluenced(o, os.influenced)
	for c := range newInfluenced {
		if !os.influenced[c] {
			e.influence[c]++
		}
	}
	os.obj = o
	os.influenced = newInfluenced
	return nil
}

// UpdateObject replaces an object's positions wholesale (the general
// "positions keep on changing" case, where influence may both appear
// and disappear).
func (e *Engine) UpdateObject(id int, positions []geo.Point) error {
	os, ok := e.objects[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	o, err := object.New(id, positions)
	if err != nil {
		return err
	}
	defer e.finishOp("update_object", time.Now(), e.stats)
	newInfluenced := e.computeInfluenced(o, nil)
	for c := range os.influenced {
		if !newInfluenced[c] {
			e.influence[c]--
		}
	}
	for c := range newInfluenced {
		if !os.influenced[c] {
			e.influence[c]++
		}
	}
	os.obj = o
	os.influenced = newInfluenced
	// The replacement history is a caller slice: never grow in place.
	os.owned = false
	return nil
}

// Influence returns the current influence of a candidate.
func (e *Engine) Influence(id int) (int, error) {
	v, ok := e.influence[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownCandidate, id)
	}
	return v, nil
}

// Best returns the most influential live candidate (smallest id on
// ties) and its influence. ok is false when no candidates are
// registered.
func (e *Engine) Best() (id, influence int, ok bool) {
	best := -1
	bestInf := -1
	for c, inf := range e.influence {
		if inf > bestInf || (inf == bestInf && c < best) {
			best, bestInf = c, inf
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestInf, true
}

// InfluenceVector returns the current influence of each candidate in
// ids, index-aligned; every id must be live.
func (e *Engine) InfluenceVector(ids []int) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = e.influence[id]
	}
	return out
}

// Influences returns a copy of the current influence map.
func (e *Engine) Influences() map[int]int {
	out := make(map[int]int, len(e.influence))
	for c, v := range e.influence {
		out[c] = v
	}
	return out
}

// SnapshotObjects returns the tracked objects sorted by id. The
// *object.Object values are immutable once inside the engine (updates
// swap in freshly built objects), so the returned pointers stay valid
// for readers even while later mutations are applied.
func (e *Engine) SnapshotObjects() []*object.Object {
	out := make([]*object.Object, 0, len(e.objects))
	for _, os := range e.objects {
		out = append(out, os.obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SnapshotCandidates returns the live candidate ids (ascending) and
// their points, index-aligned.
func (e *Engine) SnapshotCandidates() (ids []int, pts []geo.Point) {
	ids = make([]int, 0, len(e.candPoints))
	for id := range e.candPoints {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	pts = make([]geo.Point, len(ids))
	for i, id := range ids {
		pts[i] = e.candPoints[id]
	}
	return ids, pts
}

// Candidate returns the point of a live candidate.
func (e *Engine) Candidate(id int) (geo.Point, error) {
	pt, ok := e.candPoints[id]
	if !ok {
		return geo.Point{}, fmt.Errorf("%w: %d", ErrUnknownCandidate, id)
	}
	return pt, nil
}

// Object returns a tracked object.
func (e *Engine) Object(id int) (*object.Object, error) {
	os, ok := e.objects[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	return os.obj, nil
}
