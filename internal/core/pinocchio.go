package core

import (
	"time"

	"pinocchio/internal/object"
	"pinocchio/internal/rtree"
)

// a2dEntry is one tuple of the moving-object 2D array A_2D built by
// Algorithm 1: the object's positions plus its precomputed pruning
// geometry (IA and NIB, from the margin-checked radii).
type a2dEntry struct {
	obj     *object.Object
	regions object.MarginRegions
}

// buildA2D runs Algorithm 1: for each object, memoize its radii per n_k
// in the table HM (object.MarginTable) and derive the IA/NIB geometry
// from MBR(O_k). This is the sequential per-solve path; BuildPlan uses
// computeA2D's parallel construction for cold builds.
func buildA2D(p *Problem, st *Stats) []a2dEntry {
	a2d, distinct := computeA2D(p.Objects, p.PF, p.Tau, 1)
	st.DistinctN = distinct
	return a2d
}

// pruneObject classifies the candidates relevant to one object with a
// single R-tree range query over the MBR of its non-influence boundary
// and per-candidate minDist/maxDist tests. It calls influenced for
// IA-certain candidates and validate for the remnant set C”.
// Candidates outside the NIB box are never touched: they are pruned
// implicitly and accounted to PrunedByNIB by the caller. arcs counts
// the touched-but-rejected candidates (the nib-arc rule); nodes, when
// non-nil, accumulates R-tree node visits.
func pruneObject(tree *rtree.Tree, e a2dEntry, nodes *int64, influenced func(cand int), validate func(cand int)) (touched, iaHits, arcs int64) {
	tree.SearchRectCounted(e.regions.NIBBox(), func(it rtree.Item) bool {
		touched++
		switch e.regions.Classify(it.Point) {
		case object.Influenced:
			iaHits++
			influenced(it.ID)
		case object.NeedsValidation:
			validate(it.ID)
		default:
			// Inside the NIB box corners but outside the rounded NIB
			// region: pruned by Lemma 3 like the untouched candidates.
			touched--
			arcs++
		}
		return true
	}, nodes)
	return touched, iaHits, arcs
}

// validateSampleLog sets the validate phase's timer sampling: one
// validation window in every 2^6 = 64 is timed and scaled up
// (obs.Span.Sampler). Per-pair windows would otherwise spend more on
// clock reads than small solves spend on validation itself.
const validateSampleLog = 6

// Pinocchio is Algorithm 2. The pruning phase resolves most
// object/candidate pairs with the influence-arcs and non-influence
// boundary rules; the remnant pairs are validated by the full
// cumulative-probability computation. It returns exact influence for
// every candidate.
func Pinocchio(p *Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.ctxErr(); err != nil {
		return nil, err
	}
	start := time.Now()
	m := len(p.Candidates)
	res := &Result{Influences: make([]int, m)}
	st := &res.Stats
	st.PairsTotal = int64(len(p.Objects)) * int64(m)

	a2d, tree, prunes := p.solveState(st)

	// The prune scan calls validation inline, so the validate phase
	// accumulates its own windows and the prune span records the scan
	// time exclusive of them.
	pruneSp := p.Obs.Child("prune")
	valSp := p.Obs.Child("validate")
	// Sampled windows: validations are the per-pair hot path, and two
	// clock reads each would dominate small traced solves.
	valTimer := valSp.Sampler(validateSampleLog)
	scanStart := pruneSp.StartTimer()
	cc := canceller{ctx: p.Ctx}
	cost := p.Cost
	var ctxErr error
	for k, e := range a2d {
		touched, ia, arcs := scanObject(tree, prunes, k, e, cost.nodeCounter(),
			func(cand int) {
				cost.pruneIA(cand)
				res.Influences[cand]++
			},
			func(cand int) {
				if ctxErr != nil {
					return
				}
				if ctxErr = cc.tick(); ctxErr != nil {
					return
				}
				st.Validated++
				cost.validated(cand)
				valTimer.Start()
				if influencedFull(p.PF, p.Tau, p.Candidates[cand], e.obj.Positions, st) {
					res.Influences[cand]++
				}
				valTimer.Stop()
			})
		st.PrunedByIA += ia
		st.PrunedByNIB += int64(m) - touched
		cost.addNIB(arcs, int64(m)-touched-arcs)
		if ctxErr != nil {
			break
		}
	}
	valTimer.Finish()
	pruneSp.EndExclusive(scanStart, valSp)
	valSp.End()
	if ctxErr != nil {
		return nil, ctxErr
	}

	res.BestIndex, res.BestInfluence = Argmax(res.Influences)
	cost.finishExact(p, st, res.Influences, res.BestIndex)
	finishSolve(p.Obs, AlgPinocchio.String(), start, st, cost)
	return res, nil
}
