package core

import (
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/rtree"
)

// PinocchioObjectTree is the design alternative §4.3 argues against:
// instead of the flat moving-object array A_2D, it indexes object
// activity regions (their NIB boxes) in an R-tree and drives the
// pruning from the candidate side — for each candidate, a range query
// retrieves the objects whose NIB box contains it.
//
// The paper's claim: because activity regions overlap heavily, the
// MBRs of intermediate nodes overlap too, group-wise pruning cannot
// cut subtrees, and "nearly every leaf still needs to be explored",
// so the hierarchy only adds construction and traversal overhead.
// This implementation exists to measure that claim
// (BenchmarkDesignObjectTree); results are identical to Pinocchio.
func PinocchioObjectTree(p *Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := len(p.Candidates)
	res := &Result{Influences: make([]int, m)}
	st := &res.Stats
	st.PairsTotal = int64(len(p.Objects)) * int64(m)

	a2d := buildA2D(p, st)

	// Index the object NIB boxes. The R-tree stores points, so we
	// store each box's center and keep the boxes side-by-side; node
	// bounds are maintained with an explicit rect tree instead — to
	// stay faithful to "index the MBRs", we build a dedicated
	// rectangle tree below.
	tree := newRectTree(rtree.DefaultMaxEntries)
	boxes := make([]geo.Rect, len(a2d))
	for k, e := range a2d {
		boxes[k] = e.regions.NIBBox()
		tree.insert(boxes[k], k)
	}

	for cand, pt := range p.Candidates {
		tree.stabbing(pt, func(k int) {
			e := a2d[k]
			switch e.regions.Classify(pt) {
			case object.Influenced:
				st.PrunedByIA++
				res.Influences[cand]++
			case object.NeedsValidation:
				st.Validated++
				if influencedEarlyStop(p.PF, p.Tau, pt, e.obj.Positions, st) {
					res.Influences[cand]++
				}
			default:
				// Inside the NIB box but outside the rounded NIB:
				// pruned like the never-retrieved objects, counted in
				// the remainder below.
			}
		})
	}
	// Every pair not settled by IA or validated was NIB-pruned,
	// whether its box was stabbed or never retrieved.
	st.PrunedByNIB = st.PairsTotal - st.PrunedByIA - st.Validated
	res.BestIndex, res.BestInfluence = Argmax(res.Influences)
	return res, nil
}

// rectTree is a minimal R-tree over rectangles used only by the
// object-side design variant: insert + stabbing (point containment)
// query, with the node-visit counter that quantifies §4.3's overlap
// argument.
type rectTree struct {
	root       *rectNode
	maxEntries int
	minEntries int
	// NodeVisits counts nodes touched by stabbing queries.
	NodeVisits int64
}

type rectEntry struct {
	rect  geo.Rect
	child *rectNode
	id    int
}

type rectNode struct {
	leaf    bool
	entries []rectEntry
}

func newRectTree(maxEntries int) *rectTree {
	if maxEntries < 4 {
		maxEntries = 4
	}
	return &rectTree{
		root:       &rectNode{leaf: true},
		maxEntries: maxEntries,
		minEntries: maxEntries / 2,
	}
}

func (t *rectTree) insert(r geo.Rect, id int) {
	path := []*rectNode{t.root}
	n := t.root
	for !n.leaf {
		best := -1
		var bestEnl, bestArea float64
		for i := range n.entries {
			enl := n.entries[i].rect.Enlargement(r)
			area := n.entries[i].rect.Area()
			if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n.entries[best].rect = n.entries[best].rect.Union(r)
		n = n.entries[best].child
		path = append(path, n)
	}
	n.entries = append(n.entries, rectEntry{rect: r, id: id})

	for i := len(path) - 1; i >= 0; i-- {
		nd := path[i]
		if len(nd.entries) <= t.maxEntries {
			break
		}
		left, right := t.splitRectNode(nd)
		if i == 0 {
			t.root = &rectNode{
				leaf: false,
				entries: []rectEntry{
					{rect: boundsOf(left), child: left},
					{rect: boundsOf(right), child: right},
				},
			}
			break
		}
		parent := path[i-1]
		for j := range parent.entries {
			if parent.entries[j].child == nd {
				parent.entries[j] = rectEntry{rect: boundsOf(left), child: left}
				break
			}
		}
		parent.entries = append(parent.entries, rectEntry{rect: boundsOf(right), child: right})
	}
}

func boundsOf(n *rectNode) geo.Rect {
	r := geo.EmptyRect()
	for i := range n.entries {
		r = r.Union(n.entries[i].rect)
	}
	return r
}

// splitRectNode: linear split (pick the pair with greatest separation
// along the axis with the widest spread) — simpler than quadratic and
// irrelevant to the overlap argument being measured.
func (t *rectTree) splitRectNode(n *rectNode) (left, right *rectNode) {
	entries := n.entries
	// Seeds: extremes along X.
	lo, hi := 0, 0
	for i := range entries {
		if entries[i].rect.Min.X < entries[lo].rect.Min.X {
			lo = i
		}
		if entries[i].rect.Max.X > entries[hi].rect.Max.X {
			hi = i
		}
	}
	if lo == hi {
		hi = (lo + 1) % len(entries)
	}
	left = &rectNode{leaf: n.leaf, entries: []rectEntry{entries[lo]}}
	right = &rectNode{leaf: n.leaf, entries: []rectEntry{entries[hi]}}
	lr, rr := entries[lo].rect, entries[hi].rect
	for i := range entries {
		if i == lo || i == hi {
			continue
		}
		e := entries[i]
		if len(left.entries)+(len(entries)-i) == t.minEntries {
			left.entries = append(left.entries, e)
			lr = lr.Union(e.rect)
			continue
		}
		if len(right.entries)+(len(entries)-i) == t.minEntries {
			right.entries = append(right.entries, e)
			rr = rr.Union(e.rect)
			continue
		}
		if lr.Enlargement(e.rect) <= rr.Enlargement(e.rect) {
			left.entries = append(left.entries, e)
			lr = lr.Union(e.rect)
		} else {
			right.entries = append(right.entries, e)
			rr = rr.Union(e.rect)
		}
	}
	n.entries = left.entries
	n.leaf = left.leaf
	return n, right
}

// stabbing visits the ids of all rectangles containing pt.
func (t *rectTree) stabbing(pt geo.Point, visit func(id int)) {
	var walk func(n *rectNode)
	walk = func(n *rectNode) {
		t.NodeVisits++
		for i := range n.entries {
			e := &n.entries[i]
			if !e.rect.ContainsPoint(pt) {
				continue
			}
			if n.leaf {
				visit(e.id)
			} else {
				walk(e.child)
			}
		}
	}
	walk(t.root)
}
