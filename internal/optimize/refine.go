package optimize

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"pinocchio/internal/geo"
)

// Refinement turns the sweep's slab bounds into an exact answer by
// branch-and-bound. A cell (axis-aligned rectangle) carries a sound
// upper bound on inf anywhere inside it; cells are expanded
// best-bound-first, the exact influence at each cell's center raises
// the incumbent, and a cell is discarded only when its bound cannot
// beat the incumbent. Because every discard is justified by a sound
// bound and the initial slabs tile everything that can have non-zero
// influence, a run that drains the queue proves the incumbent is a
// global optimum — in particular at least as good as any finite
// candidate set, which is what the dominance property test and the
// dense-grid bench hold it to.
//
// Per-object cell tests, cheapest first. The first three each prove
// "no point of the cell is influenced by O", which inherits to
// subcells, so failing objects leave the cover set entirely:
//
//  1. NIB box vs cell intersection (the sweep's own geometry);
//  2. exact Euclidean distance between cell and MBR vs the NIB radius
//     (tighter than the box test at corners);
//  3. for cells small against the NIB radius: a probabilistic bound —
//     shrink every position distance by the cell half-diagonal r and
//     evaluate 1 − Π(1 − PF(max(0, d(p, center) − r))). PF is
//     non-increasing, so this dominates Pr_c(O) for every c in the
//     cell; as r → 0 it converges to the exact cumulative probability
//     at the center, which is what closes the bound gap at fine scales.
//
// The fourth proves the opposite: when the farthest cell-to-MBR
// distance is ≤ the IA radius, every point of the cell lies in O's
// influence arcs (Lemma 2 lifted from a point to a cell), so O
// influences the whole cell and every subcell. Such an object is
// tallied in the cell's sure count instead of being scanned, and
// leaves the cover set too. Tests 2 and 4 use the margin-checked radii
// of object.MarginTable, so a verdict they settle is the one NA's
// product reaches. A cell's bound is sure + |cover|, and its exact
// influence at a point is sure + the exact count over the cover: the
// point's own maxDist to the MBR never exceeds the cell's in floating
// point (each difference, square and sum rounds monotonically), so the
// point IA test agrees.
//
// Every cover scan (a cell bound, an exact evaluation) splits into
// blocks of scanBlock objects claimed by up to GOMAXPROCS goroutines.
// A block's result depends only on its own objects and is written to
// its own slot; joining the slots in block order reproduces the serial
// scan's counts, cover order and Cost counters exactly, whatever the
// interleaving, so the answer does not depend on the core count.

// refineResult is what the branch-and-bound returns.
type refineResult struct {
	bestPoint   geo.Point
	bestInf     int
	bestCell    geo.Rect
	resolved    bool
	outstanding int
}

// cell is one branch-and-bound node. Every object outside cover either
// influences each point of rect (counted in sure) or none of it.
// Initial slabs share the live index set as their cover.
type cell struct {
	rect  geo.Rect
	ub    int
	sure  int
	cover []int32
}

// cellHeap orders cells by upper bound, best first.
type cellHeap []cell

func (h cellHeap) Len() int           { return len(h) }
func (h cellHeap) Less(i, j int) bool { return h[i].ub > h[j].ub }
func (h cellHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *cellHeap) Push(x any)        { *h = append(*h, x.(cell)) }
func (h *cellHeap) Pop() any          { old := *h; n := len(old); c := old[n-1]; *h = old[:n-1]; return c }

// refine runs the branch-and-bound over the sweep's slabs. live holds
// the indices into rs that survive bounds clipping; seeds are exactly
// evaluated first so the queue starts against a strong incumbent.
func refine(p *Problem, rs []ObjectRects, live []int32, slabs []slab, seeds []geo.Point) (refineResult, error) {
	res := refineResult{bestInf: -1}
	seen := make(map[geo.Point]bool, len(seeds))
	for _, s := range seeds {
		if seen[s] {
			continue
		}
		seen[s] = true
		if err := p.ctxErr(); err != nil {
			return res, err
		}
		inf := exactAt(p, rs, live, s)
		if inf > res.bestInf {
			res.bestInf, res.bestPoint = inf, s
			res.bestCell = geo.Rect{Min: s, Max: s}
		}
	}
	if res.bestInf < 0 {
		res.bestInf = 0
	}

	var root geo.Rect
	maxSlab := 0
	for i, sl := range slabs {
		if i == 0 {
			root = sl.rect
		} else {
			root = root.Union(sl.rect)
		}
		if sl.ub > maxSlab {
			maxSlab = sl.ub
		}
	}
	if p.MaxRefine < 0 {
		// Refinement disabled: the answer is the best seed against the
		// raw sweep bound.
		res.outstanding = max(maxSlab, res.bestInf)
		res.resolved = res.outstanding <= res.bestInf
		return res, nil
	}

	minCell := p.MinCell
	if minCell <= 0 {
		minCell = root.HalfDiagonal() * 1e-9
	}

	h := make(cellHeap, 0, len(slabs))
	for _, sl := range slabs {
		if sl.ub > res.bestInf {
			h = append(h, cell{rect: sl.rect, ub: sl.ub, cover: live})
		}
	}
	heap.Init(&h)

	// maxClosedUB tracks cells evaluated but not subdivided (resolution
	// floor): their bound stays outstanding unless the incumbent
	// eventually covers it.
	maxClosedUB := 0
	budget := false
	pops := 0
	for h.Len() > 0 {
		if err := p.ctxErr(); err != nil {
			return res, err
		}
		if h[0].ub <= res.bestInf {
			// Best-first order: nothing left can beat the incumbent.
			break
		}
		if pops >= p.MaxRefine {
			budget = true
			break
		}
		c := heap.Pop(&h).(cell)
		pops++
		p.Cost.addCell()

		center := c.rect.Center()
		if inf := c.sure + exactAt(p, rs, c.cover, center); inf > res.bestInf {
			res.bestInf, res.bestPoint, res.bestCell = inf, center, c.rect
		}
		if c.rect.HalfDiagonal() <= minCell {
			if c.ub > maxClosedUB {
				maxClosedUB = c.ub
			}
			continue
		}
		stuck := false
		for _, q := range halves(c.rect) {
			if q == c.rect {
				// Floating-point degenerate split: subdividing makes no
				// progress, treat as closed below.
				stuck = true
				continue
			}
			if child := cellBound(p, rs, c, q); child.ub > res.bestInf {
				heap.Push(&h, child)
			}
		}
		if stuck && c.ub > maxClosedUB {
			maxClosedUB = c.ub
		}
	}

	res.outstanding = res.bestInf
	if budget && h.Len() > 0 && h[0].ub > res.outstanding {
		res.outstanding = h[0].ub
	}
	if maxClosedUB > res.outstanding {
		res.outstanding = maxClosedUB
	}
	if len(slabs) > 0 && res.outstanding > res.bestInf {
		// Budget or resolution-floor break: the incumbent came from cell
		// centers, which sample the peak but rarely sit on it. A short
		// pattern search climbs the local maximum exactly; it can only
		// raise the incumbent, so the outstanding bound stays sound.
		if err := polish(p, rs, live, root, &res); err != nil {
			return res, err
		}
	}
	res.resolved = res.outstanding <= res.bestInf
	return res, nil
}

// polish hill-climbs the incumbent with a multi-scale compass search:
// at each step size, evaluate the 8 compass neighbors of the best
// point, move to any improvement, halve the step when none improves.
// Every probe is an exact influence evaluation, so the incumbent only
// moves to provably better placements.
func polish(p *Problem, rs []ObjectRects, live []int32, root geo.Rect, res *refineResult) error {
	step := root.HalfDiagonal() / 16
	if bc := res.bestCell.HalfDiagonal(); bc > 0 && bc < step {
		step = bc
	}
	floor := root.HalfDiagonal() * 1e-7
	for step > floor {
		if err := p.ctxErr(); err != nil {
			return err
		}
		moved := false
		for _, d := range [8][2]float64{
			{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1},
		} {
			c := geo.Point{X: res.bestPoint.X + d[0]*step, Y: res.bestPoint.Y + d[1]*step}
			if p.Bounds != nil {
				c = clampTo(c, *p.Bounds)
			}
			if c == res.bestPoint {
				continue
			}
			if inf := exactAt(p, rs, live, c); inf > res.bestInf {
				res.bestInf, res.bestPoint = inf, c
				res.bestCell = geo.Rect{Min: c, Max: c}
				if res.bestInf > res.outstanding {
					res.outstanding = res.bestInf
				}
				moved = true
				break
			}
		}
		if !moved {
			step /= 2
		}
	}
	return nil
}

// clampTo projects a point into a rect.
func clampTo(c geo.Point, r geo.Rect) geo.Point {
	c.X = math.Min(math.Max(c.X, r.Min.X), r.Max.X)
	c.Y = math.Min(math.Max(c.Y, r.Min.Y), r.Max.Y)
	return c
}

// halves splits a rect at the midpoint of its longer dimension. The
// initial slabs are full-height strips; a quadrant split would keep
// their extreme aspect ratio forever, whereas halving the long side
// drives cells toward squares, which is when the distance-shrunk
// probabilistic bound starts to discriminate. Two children also cost
// half the bound scans of four.
func halves(r geo.Rect) [2]geo.Rect {
	c := r.Center()
	if r.Max.X-r.Min.X >= r.Max.Y-r.Min.Y {
		return [2]geo.Rect{
			{Min: r.Min, Max: geo.Point{X: c.X, Y: r.Max.Y}},
			{Min: geo.Point{X: c.X, Y: r.Min.Y}, Max: r.Max},
		}
	}
	return [2]geo.Rect{
		{Min: r.Min, Max: geo.Point{X: r.Max.X, Y: c.Y}},
		{Min: geo.Point{X: r.Min.X, Y: c.Y}, Max: r.Max},
	}
}

// cellBound bounds inf anywhere in rect, a subcell of parent, scanning
// only the parent's cover: the child inherits the parent's sure count,
// adds the cover objects that turn sure, and keeps the ones that
// survive every pruning test as its own cover.
func cellBound(p *Problem, rs []ObjectRects, parent cell, rect geo.Rect) cell {
	half := rect.HalfDiagonal()
	center := rect.Center()
	type block struct {
		sure   int
		probes int64
		cover  []int32
	}
	kept := make([]int32, len(parent.cover))
	blocks := make([]block, blockCount(len(parent.cover)))
	scanBlocks(len(parent.cover), func(b, lo, hi int) {
		out := block{cover: kept[lo:lo:hi]}
		for _, idx := range parent.cover[lo:hi] {
			r := &rs[idx]
			if !r.NIB.Intersects(rect) {
				continue
			}
			reg := &r.Regions
			if rectMinDistSq(rect, reg.MBR) > reg.NIBSq {
				continue
			}
			if rectMaxDistSq(rect, reg.MBR) <= reg.IASq {
				// Lemma 2 over the whole cell: O influences every point.
				out.sure++
				continue
			}
			// The probabilistic test costs a position scan; only run it
			// once the cell is small against the object's radius, where
			// it has discriminating power. (The bound is sound at any
			// size — the gate only skips scans that cannot prune.)
			if half*half <= reg.NIBSq {
				ok, n := probReachable(p, r.Obj.Positions, center, half)
				out.probes += n
				if !ok {
					continue
				}
			}
			out.cover = append(out.cover, idx)
		}
		blocks[b] = out
	})
	c := cell{rect: rect, sure: parent.sure}
	var probes int64
	n := 0
	for _, bl := range blocks {
		c.sure += bl.sure
		probes += bl.probes
		n += copy(kept[n:], bl.cover)
	}
	// Copied out at its own size: kept spans the parent's whole cover,
	// and the cell may wait in the heap for the rest of the run.
	c.cover = append([]int32(nil), kept[:n]...)
	c.ub = c.sure + len(c.cover)
	p.Cost.addCellTests(int64(len(parent.cover)))
	p.Cost.addProbes(probes)
	return c
}

// probReachable reports whether any point of a cell (center, half
// diagonal r) could be influenced by an object with the given
// positions: the cumulative probability with every distance shrunk by
// r must reach τ. Early exit once the bound clears τ — the common
// case for nearby objects.
func probReachable(p *Problem, positions []geo.Point, center geo.Point, r float64) (bool, int64) {
	q := 1.0
	var probes int64
	for _, pos := range positions {
		probes++
		d := pos.Dist(center) - r
		if d < 0 {
			d = 0
		}
		q *= 1 - p.PF.Prob(d)
		if 1-q >= p.Tau {
			return true, probes
		}
	}
	return 1-q >= p.Tau, probes
}

// exactAt computes the exact influence at point c over the cover set:
// the number of objects with cumulative probability ≥ τ, via the same
// margin-checked classify-then-validate path the core solvers use, so
// it counts what NA counts. Validation stops early once the partial
// product clears τ (Lemma 4 / Strategy 2) — the remaining factors can
// only push the probability higher.
func exactAt(p *Problem, rs []ObjectRects, cover []int32, c geo.Point) int {
	type block struct {
		inf    int
		probes int64
	}
	blocks := make([]block, blockCount(len(cover)))
	scanBlocks(len(cover), func(b, lo, hi int) {
		var out block
		for _, idx := range cover[lo:hi] {
			r := &rs[idx]
			if r.Regions.InIA(c) {
				out.inf++
				continue
			}
			if !r.Regions.InNIB(c) {
				continue
			}
			q := 1.0
			for _, pos := range r.Obj.Positions {
				out.probes++
				q *= 1 - p.PF.Prob(c.Dist(pos))
				if 1-q >= p.Tau {
					out.inf++
					break
				}
			}
		}
		blocks[b] = out
	})
	inf := 0
	var probes int64
	for _, bl := range blocks {
		inf += bl.inf
		probes += bl.probes
	}
	p.Cost.addSolve(int64(len(cover)))
	p.Cost.addProbes(probes)
	return inf
}

// Cover scans run in blocks of scanBlock objects; a scan shorter than
// splitMin stays on the calling goroutine, where a hand-off would cost
// more than the scan.
const (
	scanBlock = 64
	splitMin  = 4 * scanBlock
)

// blockCount is the number of scan blocks covering n objects.
func blockCount(n int) int { return (n + scanBlock - 1) / scanBlock }

// scanBlocks calls f(b, lo, hi) once for every block b = [lo, hi) of
// [0, n), on up to GOMAXPROCS goroutines that claim blocks in turn,
// and returns when all are done. f must write only block b's results.
func scanBlocks(n int, f func(b, lo, hi int)) {
	nb := blockCount(n)
	run := func(b int) { f(b, b*scanBlock, min((b+1)*scanBlock, n)) }
	workers := min(runtime.GOMAXPROCS(0), nb)
	if n < splitMin || workers < 2 {
		for b := 0; b < nb; b++ {
			run(b)
		}
		return
	}
	var next atomic.Int64
	claim := func() {
		for b := int(next.Add(1) - 1); b < nb; b = int(next.Add(1) - 1) {
			run(b)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// rectMinDistSq is the squared Euclidean distance between two rects
// (0 when they intersect).
func rectMinDistSq(a, b geo.Rect) float64 {
	dx := max(0, a.Min.X-b.Max.X, b.Min.X-a.Max.X)
	dy := max(0, a.Min.Y-b.Max.Y, b.Min.Y-a.Max.Y)
	return dx*dx + dy*dy
}

// rectMaxDistSq is the squared largest Euclidean distance between a
// point of a and a point of b.
func rectMaxDistSq(a, b geo.Rect) float64 {
	dx := max(a.Max.X-b.Min.X, b.Max.X-a.Min.X)
	dy := max(a.Max.Y-b.Min.Y, b.Max.Y-a.Min.Y)
	return dx*dx + dy*dy
}
