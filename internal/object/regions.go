package object

import (
	"math"

	"pinocchio/internal/geo"
)

// MarginRegions bundles the per-object pruning geometry of §4.2: the
// MBR and the squared radii of the influence-arcs (IA) and
// non-influence-boundary (NIB) regions. Membership tests reduce to the
// maxDist/minDist inequalities that define the regions:
//
//	c ∈ IA  ⇔ maxDist(c, MBR)² ≤ IASq   (Lemma 2: c certainly influences O)
//	c ∉ NIB ⇔ minDist(c, MBR)² > NIBSq  (Lemma 3: c cannot influence O)
//
// The paper draws both regions with the object's minMaxRadius μ; the
// radii here come from MarginTable, inside μ for IA and outside it for
// NIB, so a verdict settled by geometry is the one NA's floating-point
// product reaches. Candidates inside NIB but outside IA
// must be validated exactly.
type MarginRegions struct {
	MBR geo.Rect
	// NIBSq and IASq are the squared NIB and IA radii; a negative IASq
	// disables the IA rule.
	NIBSq, IASq float64
}

// InIA reports whether every position of the object is within the IA
// radius of c: the pair is influenced.
func (r MarginRegions) InIA(c geo.Point) bool { return r.MBR.MaxDistSq(c) <= r.IASq }

// InNIB reports whether c lies within the NIB radius of the MBR;
// outside it the pair is not influenced.
func (r MarginRegions) InNIB(c geo.Point) bool { return r.MBR.MinDistSq(c) <= r.NIBSq }

// Classify buckets a candidate per the pruning rules.
func (r MarginRegions) Classify(c geo.Point) Class {
	if r.InIA(c) {
		return Influenced
	}
	if r.InNIB(c) {
		return NeedsValidation
	}
	return NotInfluenced
}

// NIBBox returns the MBR of the non-influence boundary: the object MBR
// expanded by the NIB radius on every side. Algorithm 1 uses this
// rectangle to retrieve a candidate superset with a single R-tree range
// query (inspired by [7]).
func (r MarginRegions) NIBBox() geo.Rect { return r.MBR.Expand(math.Sqrt(r.NIBSq)) }

// Class is the pruning-phase verdict for a candidate/object pair.
type Class int

const (
	// Influenced: candidate inside the influence arcs; counts toward
	// inf(c) without validation.
	Influenced Class = iota
	// NeedsValidation: inside NIB but outside IA; cumulative influence
	// must be computed exactly.
	NeedsValidation
	// NotInfluenced: outside NIB; can never influence the object.
	NotInfluenced
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Influenced:
		return "influenced"
	case NeedsValidation:
		return "needs-validation"
	case NotInfluenced:
		return "not-influenced"
	default:
		return "unknown"
	}
}
