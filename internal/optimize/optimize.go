// Package optimize answers the candidate-free placement question:
// given the moving objects and a PF/τ, *where* should a new facility
// go? Unlike every solver in internal/core it takes no candidate set Γ
// — the answer is a point (and the region around it), found by a
// MaxRS-style plane sweep over per-object influence rectangles
// followed by exact branch-and-bound refinement.
//
// The construction rests on the two region lemmas the pruning layer
// already uses (internal/object, paper §4.2), with its margin-checked radii:
//
//   - NIB box (upper bound): a point outside MBR(O) expanded by the
//     NIB radius cannot influence O. Hence at any point c the number
//     of NIB boxes covering c bounds inf(c) from above.
//   - IA box (lower bound): a box inscribed in the influence-arcs
//     region of the IA radius; every point of it certainly influences
//     O. The IA cover count at c bounds inf(c) from below.
//
// Sweeping the NIB boxes (Choi/Chung/Tao-style interval sweep over
// compressed Y slots) yields the per-slab maximum cover — a sound
// pointwise upper bound over the whole plane — and the top regions
// attaining it. Refinement then runs branch-and-bound over the slabs:
// cells are discarded only when their (sound) upper bound cannot beat
// the best exactly-evaluated point, so on completion the result
// provably dominates every possible placement — in particular any
// dense candidate grid (see DESIGN.md §14 for the argument).
package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/obs"
	"pinocchio/internal/probfn"
)

// Defaults for the tunables a zero Problem leaves unset.
const (
	// DefaultTopR is how many top sweep regions are reported and used
	// to seed the refinement incumbent.
	DefaultTopR = 8
	// DefaultMaxRefine caps branch-and-bound cell expansions; hitting
	// it yields an unresolved result with a non-zero bound gap (the
	// incumbent is still polished by local search). Sized so a served
	// request over the full Gowalla-like preset stays near a minute on
	// one core; batch callers raise it explicitly.
	DefaultMaxRefine = 20000
	// seedSamples is how many mass-weighted position samples seed the
	// refinement incumbent alongside the sweep layers' argmax regions.
	seedSamples = 64
)

// ErrNoObjects is returned when there is nothing to optimize over.
var ErrNoObjects = errors.New("optimize: no objects")

// Problem is one candidate-free placement request. Either Objects or
// a pre-collected Rects slice must be set; the sharded serving path
// extracts rects per shard in parallel and passes the concatenation.
type Problem struct {
	Objects []*object.Object
	PF      probfn.Func
	// Tau is the influence threshold in (0,1).
	Tau float64

	// Bounds optionally constrains the placement to a rectangle (a
	// zoning constraint). Nil means anywhere.
	Bounds *geo.Rect

	// TopR is how many top sweep regions to report and refine-seed
	// (default DefaultTopR).
	TopR int
	// MaxRefine caps refinement cell expansions (default
	// DefaultMaxRefine). Negative disables refinement entirely: the
	// result is the sweep bound with the best seed's exact influence.
	MaxRefine int
	// MinCell is the refinement resolution floor: cells with a half
	// diagonal at or below it are evaluated but not subdivided. 0
	// derives a floor from the root extent.
	MinCell float64

	// Rects, when non-nil, skips extraction and sweeps these instead
	// of deriving them from Objects. Used by the scatter path: rect
	// extraction parallelizes over shards, the sweep is global.
	Rects []ObjectRects

	// Ctx cancels the sweep and refinement cooperatively.
	Ctx context.Context
	// Obs attaches phase spans under this parent; nil disables.
	Obs *obs.Span
	// TraceID stamps the root span.
	TraceID string
	// Cost, when non-nil, accrues the work ledger.
	Cost *Cost
}

// Region is one swept region with its cover count: for NIB regions
// the count is an upper bound on inf on the region's interior
// (boundary columns can touch additional boxes), for IA regions a
// guaranteed lower bound. Sound plane-wide bounds come from the slab
// layer (SweepMax / UpperBound), not from Regions.
type Region struct {
	Rect  geo.Rect `json:"rect"`
	Count int      `json:"count"`
}

// Result is the placement answer. The bound invariant, proved in
// DESIGN.md §14 and enforced by the property tests: for every point p
// (inside Bounds when set), inf(p) ≤ UpperBound; when Resolved,
// UpperBound == BestInfluence and BestPoint is a global optimum.
type Result struct {
	// BestPoint is the best placement found; BestInfluence its exact
	// influence (number of objects influenced with probability ≥ τ).
	BestPoint     geo.Point `json:"best_point"`
	BestInfluence int       `json:"best_influence"`
	// BestCell is the refinement cell the best point was found in.
	BestCell geo.Rect `json:"best_cell"`

	// UpperBound bounds inf at every feasible point; Gap is
	// UpperBound − BestInfluence (0 when Resolved).
	UpperBound int  `json:"upper_bound"`
	Gap        int  `json:"gap"`
	Resolved   bool `json:"resolved"`

	// SweepMax is the maximum NIB-box cover count (the sweep's global
	// upper bound before refinement); IAMax the maximum IA-box cover
	// count (a guaranteed-influence lower bound before refinement).
	SweepMax int `json:"sweep_max"`
	IAMax    int `json:"ia_max"`

	// Regions are the top sweep regions by NIB cover count;
	// IARegions the guaranteed-influence counterparts.
	Regions   []Region `json:"regions,omitempty"`
	IARegions []Region `json:"ia_regions,omitempty"`

	// Objects is the number of objects optimized over.
	Objects int `json:"objects"`
}

// ObjectRects is one object's influence geometry, the unit the sweep
// consumes. Regions holds the object's MBR and its squared NIB and IA
// radii; NIB is the upper-bound rectangle (MBR expanded by the NIB
// radius), IA the inscribed guaranteed-influence rectangle (valid only
// when HasIA).
type ObjectRects struct {
	Obj     *object.Object
	Regions object.MarginRegions
	NIB     geo.Rect
	IA      geo.Rect
	HasIA   bool
}

// CollectRects derives the influence rectangles for a set of objects
// under pf/τ from the margin-checked radii (object.MarginTable at τ),
// memoized per position count as the core solvers' pruning does.
func CollectRects(objects []*object.Object, pf probfn.Func, tau float64) []ObjectRects {
	radii := object.NewMarginTable(pf, tau, tau)
	out := make([]ObjectRects, 0, len(objects))
	for _, o := range objects {
		reg := radii.Regions(o)
		r := ObjectRects{Obj: o, Regions: reg, NIB: reg.NIBBox()}
		if ia := math.Sqrt(reg.IASq); reg.IASq >= 0 && ia >= o.MBR().HalfDiagonal() {
			r.IA, r.HasIA = iaBox(o.MBR(), ia)
		}
		out = append(out, r)
	}
	return out
}

// iaBox returns an axis-aligned box inscribed in the influence-arcs
// region: every point of the box is within μ (the IA radius) of every
// point of the MBR. The box is centered on the MBR with a symmetric
// margin s per side; the binding constraint is the box corner against
// the opposite MBR corner, (w+s)² + (h+s)² ≤ μ². Callers must have
// checked μ ≥ half-diagonal; when the symmetric-margin box
// degenerates (very elongated MBRs) the MBR center alone — whose max
// distance to the MBR is exactly the half-diagonal — is returned as a
// point box.
func iaBox(mbr geo.Rect, mu float64) (geo.Rect, bool) {
	w, h := mbr.Width(), mbr.Height()
	c := mbr.Center()
	if d := 2*mu*mu - (w-h)*(w-h); d >= 0 {
		s := (math.Sqrt(d) - (w + h)) / 2
		hx, hy := w/2+s, h/2+s
		if hx >= 0 && hy >= 0 {
			return geo.Rect{
				Min: geo.Point{X: c.X - hx, Y: c.Y - hy},
				Max: geo.Point{X: c.X + hx, Y: c.Y + hy},
			}, true
		}
	}
	return geo.Rect{Min: c, Max: c}, true
}

// clip intersects r with bounds; ok is false when they are disjoint.
func clip(r, bounds geo.Rect) (geo.Rect, bool) {
	if !r.Intersects(bounds) {
		return geo.Rect{}, false
	}
	return geo.Rect{
		Min: geo.Point{X: math.Max(r.Min.X, bounds.Min.X), Y: math.Max(r.Min.Y, bounds.Min.Y)},
		Max: geo.Point{X: math.Min(r.Max.X, bounds.Max.X), Y: math.Min(r.Max.Y, bounds.Max.Y)},
	}, true
}

// validate checks the problem and fills defaults in place.
func (p *Problem) validate() error {
	if p.PF == nil {
		return errors.New("optimize: nil PF")
	}
	if !(p.Tau > 0 && p.Tau < 1) {
		return fmt.Errorf("optimize: tau %v outside (0,1)", p.Tau)
	}
	if p.Rects == nil && len(p.Objects) == 0 {
		return ErrNoObjects
	}
	if p.Bounds != nil && (p.Bounds.Min.X > p.Bounds.Max.X || p.Bounds.Min.Y > p.Bounds.Max.Y) {
		return fmt.Errorf("optimize: inverted bounds %v", *p.Bounds)
	}
	if p.TopR <= 0 {
		p.TopR = DefaultTopR
	}
	if p.MaxRefine == 0 {
		p.MaxRefine = DefaultMaxRefine
	}
	return nil
}

// ctxErr reports the problem context's current error.
func (p *Problem) ctxErr() error {
	if p.Ctx == nil {
		return nil
	}
	return p.Ctx.Err()
}

// Optimize finds the best placement: collect rects (unless supplied),
// sweep the NIB layer for per-slab upper bounds and the IA layer for
// guaranteed seeds, then refine by branch-and-bound until the bound
// closes, the budget runs out, or the context cancels.
func Optimize(p *Problem) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if err := p.ctxErr(); err != nil {
		return nil, err
	}
	root := p.Obs.Child("optimize")
	if p.TraceID != "" {
		root.SetAttr("trace_id", p.TraceID)
	}
	defer root.End()

	rs := p.Rects
	if rs == nil {
		sp := root.Child("collect-rects")
		rs = CollectRects(p.Objects, p.PF, p.Tau)
		sp.End()
	}
	p.Cost.addObjects(int64(len(rs)))

	res := &Result{Objects: len(rs), Resolved: true}
	if len(rs) == 0 {
		if p.Bounds != nil {
			res.BestPoint = p.Bounds.Center()
		}
		return res, nil
	}

	// Assemble the two sweep layers, clipping to Bounds when set. An
	// object whose NIB box misses the bounds can never matter inside
	// them; it is dropped from the refinement population too.
	nib := make([]geo.Rect, 0, len(rs))
	ia := make([]geo.Rect, 0, len(rs))
	live := make([]int32, 0, len(rs))
	for i := range rs {
		r := rs[i].NIB
		if p.Bounds != nil {
			var ok bool
			if r, ok = clip(r, *p.Bounds); !ok {
				continue
			}
		}
		nib = append(nib, r)
		live = append(live, int32(i))
		if rs[i].HasIA {
			r = rs[i].IA
			if p.Bounds != nil {
				var ok bool
				if r, ok = clip(r, *p.Bounds); !ok {
					continue
				}
			}
			ia = append(ia, r)
		}
	}
	p.Cost.addSwept(int64(len(nib)), int64(len(ia)))
	if len(nib) == 0 {
		if p.Bounds != nil {
			res.BestPoint = p.Bounds.Center()
		}
		return res, nil
	}

	sp := root.Child("sweep")
	nibSweep, err := sweepRects(p.Ctx, nib, p.TopR, p.Cost)
	if err != nil {
		sp.End()
		return nil, err
	}
	iaSweep, err := sweepRects(p.Ctx, ia, p.TopR, p.Cost)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetAttr("sweep_max", nibSweep.max)
	sp.SetAttr("ia_max", iaSweep.max)
	sp.End()

	res.SweepMax = nibSweep.max
	res.IAMax = iaSweep.max
	res.Regions = nibSweep.regions
	res.IARegions = iaSweep.regions

	// Seed the incumbent with the centers of every reported region
	// from both layers — the IA argmax guarantees an exact influence
	// of at least IAMax, so refinement starts with a tight floor.
	seeds := make([]geo.Point, 0, len(nibSweep.regions)+len(iaSweep.regions)+seedSamples)
	for _, rg := range nibSweep.regions {
		seeds = append(seeds, rg.Rect.Center())
	}
	for _, rg := range iaSweep.regions {
		seeds = append(seeds, rg.Rect.Center())
	}
	// Mass-weighted seeds: a uniform stride over the population's
	// check-ins lands evaluations where positions concentrate, which
	// is where high-influence placements live. The sweep layers bound
	// where influence CAN be high; these say where the mass actually
	// is — on multi-hotspot data the NIB-cover argmax alone can sit
	// over the wrong hotspot, and branch-and-bound then spends its
	// whole budget ruling out near-ties instead of improving the
	// incumbent.
	total := 0
	for _, idx := range live {
		total += len(rs[idx].Obj.Positions)
	}
	if total > 0 {
		stride := total/seedSamples + 1
		k := 0
		for _, idx := range live {
			for _, pos := range rs[idx].Obj.Positions {
				if k%stride == 0 && (p.Bounds == nil || p.Bounds.ContainsPoint(pos)) {
					seeds = append(seeds, pos)
				}
				k++
			}
		}
	}

	sp = root.Child("refine")
	ref, err := refine(p, rs, live, nibSweep.slabs, seeds)
	if p.Cost != nil {
		sp.SetAttr("cells", p.Cost.RefineCells)
		sp.SetAttr("solves", p.Cost.RefineSolves)
	}
	sp.SetAttr("resolved", ref.resolved)
	sp.End()
	if err != nil {
		return nil, err
	}
	res.BestPoint = ref.bestPoint
	res.BestInfluence = ref.bestInf
	res.BestCell = ref.bestCell
	res.Resolved = ref.resolved
	res.UpperBound = ref.outstanding
	if res.Resolved || res.UpperBound < res.BestInfluence {
		res.UpperBound = res.BestInfluence
	}
	res.Gap = res.UpperBound - res.BestInfluence
	root.SetAttr("best_influence", res.BestInfluence)
	root.SetAttr("resolved", res.Resolved)
	return res, nil
}
