// Package grid implements a uniform grid index over planar points —
// the footnote-2 alternative to the candidate R-tree ("other
// variations of R-tree and hierarchical spatial data structures can
// also be applied"). It supports the same queries the solvers need
// (rectangle and circle range search, nearest neighbor) so the two
// index families can be swapped and compared.
package grid

import (
	"errors"
	"math"

	"pinocchio/internal/geo"
)

// Item mirrors rtree.Item: a point with an integer payload.
type Item struct {
	Point geo.Point
	ID    int
}

// ErrEmpty reports construction over no items.
var ErrEmpty = errors.New("grid: need at least one item")

// Index is a uniform grid over a static item set.
type Index struct {
	bounds     geo.Rect
	cellSize   float64
	cols, rows int
	cells      [][]Item
	items      []Item
}

// New builds a grid sized so the average cell holds roughly
// targetPerCell items (clamped to at least one cell per axis).
func New(items []Item, targetPerCell int) (*Index, error) {
	if len(items) == 0 {
		return nil, ErrEmpty
	}
	if targetPerCell < 1 {
		targetPerCell = 8
	}
	bounds := geo.EmptyRect()
	for _, it := range items {
		bounds = bounds.ExtendPoint(it.Point)
	}
	// Degenerate extents still need positive cell size.
	w := bounds.Width()
	h := bounds.Height()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	nCells := (len(items) + targetPerCell - 1) / targetPerCell
	if nCells < 1 {
		nCells = 1
	}
	cell := math.Sqrt(w * h / float64(nCells))
	cols := int(math.Ceil(w / cell))
	rows := int(math.Ceil(h / cell))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}

	g := &Index{
		bounds:   bounds,
		cellSize: cell,
		cols:     cols,
		rows:     rows,
		cells:    make([][]Item, cols*rows),
		items:    items,
	}
	for _, it := range items {
		idx := g.cellOf(it.Point)
		g.cells[idx] = append(g.cells[idx], it)
	}
	return g, nil
}

// Len returns the number of indexed items.
func (g *Index) Len() int { return len(g.items) }

// cellOf maps a point to its cell index, clamping to the grid.
func (g *Index) cellOf(p geo.Point) int {
	cx := int((p.X - g.bounds.Min.X) / g.cellSize)
	cy := int((p.Y - g.bounds.Min.Y) / g.cellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// cellRange returns the cell coordinate range intersecting r.
func (g *Index) cellRange(r geo.Rect) (cx0, cy0, cx1, cy1 int, ok bool) {
	if !r.Intersects(g.bounds) {
		return 0, 0, 0, 0, false
	}
	// Clamped as floats: converting ±Inf (an unbounded rect) to int is undefined.
	clamp := func(v float64, hi int) int {
		if !(v >= 0) {
			return 0
		}
		if v >= float64(hi) {
			return hi - 1
		}
		return int(v)
	}
	cx0 = clamp((r.Min.X-g.bounds.Min.X)/g.cellSize, g.cols)
	cy0 = clamp((r.Min.Y-g.bounds.Min.Y)/g.cellSize, g.rows)
	cx1 = clamp((r.Max.X-g.bounds.Min.X)/g.cellSize, g.cols)
	cy1 = clamp((r.Max.Y-g.bounds.Min.Y)/g.cellSize, g.rows)
	return cx0, cy0, cx1, cy1, true
}

// SearchRect visits every item inside r (boundary inclusive); visit
// returning false stops the traversal, and the return value reports
// whether it ran to completion.
func (g *Index) SearchRect(r geo.Rect, visit func(Item) bool) bool {
	cx0, cy0, cx1, cy1, ok := g.cellRange(r)
	if !ok {
		return true
	}
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, it := range g.cells[cy*g.cols+cx] {
				if r.ContainsPoint(it.Point) {
					if !visit(it) {
						return false
					}
				}
			}
		}
	}
	return true
}

// SearchRectCounted is SearchRect with work accounting: cells, when
// non-nil, is incremented once per grid cell the scan examines. A nil
// counter delegates to the uncounted path.
func (g *Index) SearchRectCounted(r geo.Rect, visit func(Item) bool, cells *int64) bool {
	if cells == nil {
		return g.SearchRect(r, visit)
	}
	cx0, cy0, cx1, cy1, ok := g.cellRange(r)
	if !ok {
		return true
	}
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			*cells++
			for _, it := range g.cells[cy*g.cols+cx] {
				if r.ContainsPoint(it.Point) {
					if !visit(it) {
						return false
					}
				}
			}
		}
	}
	return true
}

// SearchCircle visits every item within radius of center.
func (g *Index) SearchCircle(center geo.Point, radius float64, visit func(Item) bool) bool {
	if radius < 0 {
		return true
	}
	box := geo.Rect{Min: center, Max: center}.Expand(radius)
	r2 := radius * radius
	return g.SearchRect(box, func(it Item) bool {
		if center.DistSq(it.Point) <= r2 {
			return visit(it)
		}
		return true
	})
}

// Nearest returns the closest item to q, expanding cell rings around
// q's (clamped) cell until the best item provably dominates every
// unexplored cell.
func (g *Index) Nearest(q geo.Point) (Item, bool) {
	if len(g.items) == 0 {
		return Item{}, false
	}
	bestDistSq := math.Inf(1)
	var best Item

	clamp := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v >= hi {
			return hi - 1
		}
		return v
	}
	ccx := clamp(int((q.X-g.bounds.Min.X)/g.cellSize), g.cols)
	ccy := clamp(int((q.Y-g.bounds.Min.Y)/g.cellSize), g.rows)

	maxRing := g.cols + g.rows // enough to cover the whole grid
	for ring := 0; ring <= maxRing; ring++ {
		for cy := ccy - ring; cy <= ccy+ring; cy++ {
			if cy < 0 || cy >= g.rows {
				continue
			}
			for cx := ccx - ring; cx <= ccx+ring; cx++ {
				if cx < 0 || cx >= g.cols {
					continue
				}
				// Only the ring's border cells (interior already done).
				if ring > 0 && cx != ccx-ring && cx != ccx+ring && cy != ccy-ring && cy != ccy+ring {
					continue
				}
				for _, it := range g.cells[cy*g.cols+cx] {
					if d := q.DistSq(it.Point); d < bestDistSq {
						bestDistSq = d
						best = it
					}
				}
			}
		}
		if !math.IsInf(bestDistSq, 1) {
			// Lower-bound q's distance to any unexplored cell: those
			// cells lie inside the grid but outside the box of rings
			// ≤ ring, so a slab of them exists beyond a side only
			// when the grid extends past the box there, and the slab's
			// distance is the point-to-half-plane gap (clamped at 0).
			// Measuring to the box border itself instead goes negative
			// for an out-of-bounds q — the break never fires and the
			// search degrades to a full-grid scan.
			lb := math.Inf(1)
			if ccx-ring > 0 {
				lb = math.Min(lb, math.Max(0, q.X-(g.bounds.Min.X+float64(ccx-ring)*g.cellSize)))
			}
			if ccx+ring < g.cols-1 {
				lb = math.Min(lb, math.Max(0, g.bounds.Min.X+float64(ccx+ring+1)*g.cellSize-q.X))
			}
			if ccy-ring > 0 {
				lb = math.Min(lb, math.Max(0, q.Y-(g.bounds.Min.Y+float64(ccy-ring)*g.cellSize)))
			}
			if ccy+ring < g.rows-1 {
				lb = math.Min(lb, math.Max(0, g.bounds.Min.Y+float64(ccy+ring+1)*g.cellSize-q.Y))
			}
			// lb stays +Inf when the box already covers the grid.
			if lb*lb >= bestDistSq {
				break
			}
		}
	}
	return best, !math.IsInf(bestDistSq, 1)
}
