package core

import (
	"pinocchio/internal/geo"
	"pinocchio/internal/grid"
	"pinocchio/internal/object"
	"pinocchio/internal/rtree"
)

// Ablation switches off individual design choices of PINOCCHIO so
// their contribution can be measured in isolation (the ablation
// benches of DESIGN.md).
type Ablation struct {
	// DisableIA drops the influence-arcs rule: IA-certain candidates
	// are validated like any remnant candidate.
	DisableIA bool
	// DisableNIB drops the non-influence-boundary rule: every
	// candidate not settled by IA is validated, and candidate
	// retrieval degenerates to a full scan.
	DisableNIB bool
	// DisableEarlyStop validates with the full cumulative product
	// instead of Lemma 4's early termination.
	DisableEarlyStop bool
	// LinearScan retrieves per-object candidates by scanning the
	// candidate slice instead of querying the R-tree.
	LinearScan bool
	// GridIndex retrieves per-object candidates from a uniform grid
	// instead of the R-tree (the footnote-2 alternative index).
	// Ignored when LinearScan or DisableNIB already force a scan.
	GridIndex bool
}

// PinocchioAblated is Pinocchio (Algorithm 2) with selected design
// choices disabled. With a zero Ablation it behaves exactly like
// Pinocchio apart from using the early-stopping validator, so it also
// serves as the "PIN with Strategy 2" configuration.
func PinocchioAblated(p *Problem, ab Ablation) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := len(p.Candidates)
	res := &Result{Influences: make([]int, m)}
	st := &res.Stats
	st.PairsTotal = int64(len(p.Objects)) * int64(m)

	a2d := buildA2D(p, st)

	validateFn := influencedEarlyStop
	if ab.DisableEarlyStop {
		validateFn = influencedFull
	}

	tree := p.candidateTree()
	var gridIdx *grid.Index
	if ab.GridIndex && !ab.LinearScan && !ab.DisableNIB {
		items := make([]grid.Item, len(p.Candidates))
		for i, c := range p.Candidates {
			items[i] = grid.Item{Point: c, ID: i}
		}
		var err error
		gridIdx, err = grid.New(items, 8)
		if err != nil {
			return nil, err
		}
	}

	cost := p.Cost
	for _, e := range a2d {
		// arcs counts classifier-driven NIB prunes this object; with a
		// full scan there is no box prune, so every NIB prune is an arc.
		arcs := int64(0)
		validate := func(cand int) {
			st.Validated++
			cost.validated(cand)
			if validateFn(p.PF, p.Tau, p.Candidates[cand], e.obj.Positions, st) {
				res.Influences[cand]++
			}
		}
		classify := func(cand int, pt geoPoint) {
			switch e.regions.Classify(pt) {
			case object.Influenced:
				if ab.DisableIA {
					validate(cand)
				} else {
					st.PrunedByIA++
					cost.pruneIA(cand)
					res.Influences[cand]++
				}
			case object.NeedsValidation:
				validate(cand)
			default:
				if ab.DisableNIB {
					validate(cand)
				} else {
					st.PrunedByNIB++
					arcs++
				}
			}
		}

		switch {
		case ab.DisableNIB || ab.LinearScan:
			// Full scan over candidates; NIB classification still
			// happens per candidate unless disabled.
			for cand, pt := range p.Candidates {
				classify(cand, pt)
			}
			cost.addNIB(arcs, 0)
		case gridIdx != nil:
			touched := int64(0)
			gridIdx.SearchRectCounted(e.regions.NIBBox(), func(it grid.Item) bool {
				touched++
				classify(it.ID, it.Point)
				return true
			}, cost.GridCellCounter())
			st.PrunedByNIB += int64(m) - touched
			cost.addNIB(arcs, int64(m)-touched)
		default:
			touched := int64(0)
			tree.SearchRectCounted(e.regions.NIBBox(), func(it rtreeItem) bool {
				touched++
				classify(it.ID, it.Point)
				return true
			}, cost.nodeCounter())
			// Candidates outside the NIB box were never touched; they
			// are pruned by Lemma 3. The box corners over-approximate
			// the rounded NIB region, so the classifier above may have
			// added some of the touched ones to PrunedByNIB already.
			st.PrunedByNIB += int64(m) - touched
			cost.addNIB(arcs, int64(m)-touched)
		}
	}

	res.BestIndex, res.BestInfluence = Argmax(res.Influences)
	cost.finishExact(p, st, res.Influences, res.BestIndex)
	return res, nil
}

// geoPoint and rtreeItem shorten the closure signatures above.
type (
	geoPoint  = geo.Point
	rtreeItem = rtree.Item
)
