package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
	"pinocchio/internal/rtree"
)

// objPrune is the memoized prune phase for one object: the candidate
// indices the influence-arcs rule settles (ia) and the remnant set
// needing validation (vs), both in R-tree visit order. Together with
// the candidate count they determine every prune-phase counter, so a
// replay produces Stats identical to a live scan.
type objPrune struct {
	ia []int32
	vs []int32
	// arcs counts candidates the box scan touched but the exact
	// Lemma 3 test rejected (the "nib-arc" rule); replays feed it to
	// the Cost ledger so warm and cold solves report the same rule
	// split.
	arcs int32
}

// CandTree is the epoch-keyed half of a Plan: the candidate R-tree,
// which depends only on the candidate set (and fan-out), not on the
// probability function or τ. A server keeps one per mutation epoch and
// shares it across every (PF, τ) plan built at that epoch.
type CandTree struct {
	cands  []geo.Point
	fanout int
	tree   *rtree.Tree
}

// NewCandTree bulk-loads the candidate set exactly like
// Problem.candidateTree; fanout 0 selects rtree.DefaultMaxEntries.
func NewCandTree(cands []geo.Point, fanout int) *CandTree {
	if fanout <= 0 {
		fanout = rtree.DefaultMaxEntries
	}
	items := make([]rtree.Item, len(cands))
	for i, c := range cands {
		items[i] = rtree.Item{Point: c, ID: i}
	}
	return &CandTree{cands: cands, fanout: fanout, tree: rtree.Bulk(items, fanout)}
}

// Plan is the prebuilt, immutable solve state for one (object set,
// candidate set, PF, τ) combination: the candidate R-tree, the A_2D
// array of Algorithm 1 and the memoized prune classification of
// Algorithm 2's scan phase. A Plan is safe for concurrent use by any
// number of solves once built — nothing in it is mutated afterwards.
//
// Solvers given a Plan via Problem.Plan skip the build-a2d, build-rtree
// and R-tree scan work and replay the memoized classification instead,
// validating the remnant pairs live and producing byte-identical
// Results (including Stats). With no Plan attached every solver keeps
// its original build-per-solve path, so library callers are unchanged.
type Plan struct {
	objects []*object.Object
	cands   []geo.Point
	pf      probfn.Func
	tau     float64
	fanout  int

	tree      *rtree.Tree
	a2d       []a2dEntry
	prunes    []objPrune // nil when the candidate count exceeds int32
	distinctN int
}

// planParallelMin is the object count below which plan construction
// stays sequential: goroutine fan-out costs more than it saves.
const planParallelMin = 2048

// BuildPlan precomputes the solve state for p. ct, when non-nil, must
// have been built over p.Candidates with p's fan-out (NewCandTree) —
// this lets a server reuse one tree across the (PF, τ) plans of an
// epoch; nil builds the tree here. Construction honors p.Ctx and
// parallelizes across objects for large instances.
func BuildPlan(p *Problem, ct *CandTree) (*Plan, error) {
	// Validate before touching anything, but without the plan-match
	// check (p.Plan, if any, is not the plan under construction).
	probe := *p
	probe.Plan = nil
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	if err := p.ctxErr(); err != nil {
		return nil, err
	}
	pl := &Plan{
		objects: p.Objects,
		cands:   p.Candidates,
		pf:      p.PF,
		tau:     p.Tau,
		fanout:  p.fanout(),
	}
	pl.tree = p.candidateTreeFrom(ct)

	workers := runtime.GOMAXPROCS(0)
	if len(p.Objects) < planParallelMin {
		workers = 1
	}
	pl.a2d, pl.distinctN = computeA2D(p.Objects, p.PF, p.Tau, workers)

	if len(p.Candidates) <= math.MaxInt32 {
		prunes, err := computePrunes(p.Ctx, pl.tree, pl.a2d, workers)
		if err != nil {
			return nil, err
		}
		pl.prunes = prunes
	}
	return pl, nil
}

// computeA2D runs Algorithm 1 over an explicit object set, with the
// margin-checked radii of object.MarginTable at τ. workers > 1 shards
// objects across goroutines, each with a private table (the table is
// not safe for concurrent use, and re-deriving a radius per worker is
// cheaper than sharing a locked one); the reported distinct-n count is
// the union of the workers' tables, matching the sequential table size.
func computeA2D(objects []*object.Object, pf probfn.Func, tau float64, workers int) ([]a2dEntry, int) {
	a2d := make([]a2dEntry, len(objects))
	if workers <= 1 || len(objects) < workers {
		radii := object.NewMarginTable(pf, tau, tau)
		for k, o := range objects {
			a2d[k] = a2dEntry{obj: o, regions: radii.Regions(o)}
		}
		return a2d, radii.Len()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			radii := object.NewMarginTable(pf, tau, tau)
			for k := w; k < len(objects); k += workers {
				a2d[k] = a2dEntry{obj: objects[k], regions: radii.Regions(objects[k])}
			}
		}(w)
	}
	wg.Wait()
	distinct := map[int]struct{}{}
	for _, o := range objects {
		distinct[o.N()] = struct{}{}
	}
	return a2d, len(distinct)
}

// computePrunes runs Algorithm 2's scan phase (pruneObject, as a live
// solve does) once per object and records the classification. The
// R-tree is read-only under search, so workers share it without
// locking.
func computePrunes(ctx context.Context, tree *rtree.Tree, a2d []a2dEntry, workers int) ([]objPrune, error) {
	prunes := make([]objPrune, len(a2d))
	scan := func(k int) {
		var pr objPrune
		_, _, arcs := pruneObject(tree, a2d[k], nil,
			func(cand int) { pr.ia = append(pr.ia, int32(cand)) },
			func(cand int) { pr.vs = append(pr.vs, int32(cand)) })
		pr.arcs = int32(arcs)
		prunes[k] = pr
	}
	if workers <= 1 || len(a2d) < workers {
		cc := canceller{ctx: ctx}
		for k := range a2d {
			if err := cc.tick(); err != nil {
				return nil, err
			}
			scan(k)
		}
		return prunes, nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cc := canceller{ctx: ctx}
			for k := w; k < len(a2d); k += workers {
				if errs[w] = cc.tick(); errs[w] != nil {
					return
				}
				scan(k)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return prunes, nil
}

// matches reports whether the plan was built for exactly this
// problem's inputs. Object and candidate slices are compared by
// identity (length plus backing array), which is what the snapshot
// model guarantees; values are not rescanned.
func (pl *Plan) matches(p *Problem) bool {
	return sameSlice(pl.objects, p.Objects) &&
		sameSlice(pl.cands, p.Candidates) &&
		pl.tau == p.Tau &&
		pl.fanout == p.fanout() &&
		pfEqual(pl.pf, p.PF)
}

// sameSlice reports slice identity: same length over the same backing
// array.
func sameSlice[T any](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// pfEqual compares two probability functions. The stock probfn
// families are comparable value structs, so == decides exactly; a
// custom non-comparable implementation can only be matched by dynamic
// type and is trusted beyond that (documented on Problem.Plan).
func pfEqual(a, b probfn.Func) bool {
	ta, tb := reflect.TypeOf(a), reflect.TypeOf(b)
	if ta != tb {
		return false
	}
	if ta == nil || !ta.Comparable() {
		return ta == tb
	}
	return a == b
}

// solveState resolves the per-solve structures: the prebuilt plan when
// one is attached (Validate has already checked it matches), otherwise
// a fresh Algorithm 1 + R-tree build traced under the usual phase
// spans. prunes is nil exactly when the prune phase must scan live.
func (p *Problem) solveState(st *Stats) (a2d []a2dEntry, tree *rtree.Tree, prunes []objPrune) {
	if pl := p.Plan; pl != nil {
		st.DistinctN = pl.distinctN
		return pl.a2d, pl.tree, pl.prunes
	}
	buildSp := p.Obs.Child("build-a2d")
	a2d = buildA2D(p, st)
	buildSp.End()
	treeSp := p.Obs.Child("build-rtree")
	tree = p.candidateTree()
	treeSp.End()
	return a2d, tree, nil
}

// scanObject dispatches one object's prune phase: a replay of the
// memoized classification when the plan carries one, a live R-tree
// scan otherwise. The return values and callback order match
// pruneObject, so counters derived from them are identical either way.
// nodes, when non-nil, accumulates R-tree node visits on the live path
// (replays do no tree work and leave it untouched).
func scanObject(tree *rtree.Tree, prunes []objPrune, k int, e a2dEntry, nodes *int64, influenced func(cand int), validate func(cand int)) (touched, iaHits, arcs int64) {
	if prunes != nil {
		pr := prunes[k]
		for _, c := range pr.ia {
			influenced(int(c))
		}
		for _, c := range pr.vs {
			validate(int(c))
		}
		return int64(len(pr.ia) + len(pr.vs)), int64(len(pr.ia)), int64(pr.arcs)
	}
	return pruneObject(tree, e, nodes, influenced, validate)
}
