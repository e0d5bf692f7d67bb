// Safe-region filtering for standing top-k answers, the continuous-
// query counterpart of the paper's pruning rules. The idea comes from
// probabilistic safe regions (Probabilistic Voronoi Diagrams for
// moving nearest-neighbor queries): a standing answer carries a
// certificate — per-candidate influence bounds — that most position
// appends provably cannot invalidate, so the answer is re-evaluated
// only when an append could move some candidate's influence across
// the current top-k boundary.
//
// The certificate exploits two monotonicity facts:
//
//   - appending a position never decreases any influence (the
//     cumulative probability is monotone in the position set), so the
//     influence at certificate build time is a permanent lower bound;
//   - one appended batch raises inf(c) by at most 1 per touched
//     object, and only for objects whose post-append non-influence
//     boundary (Lemma 3) still contains c — everything outside the
//     NIB can be discounted without any probability work. The NIB is
//     the margin-checked one (object.MarginTable), so a pair NA's
//     floating-point product influences is never discounted.
//
// TopKGuard maintains those bounds; internal/subscribe arms one per
// standing query, under that query's own PF/τ.
package dynamic

import (
	"fmt"
	"sort"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

// GuardCandidate is one candidate with its exact influence at guard
// build time — a row of the ranked vector a TopKGuard certifies.
type GuardCandidate struct {
	ID        int
	Pt        geo.Point
	Influence int
}

// rankGuardCandidates orders a full vector the way every solver ranks:
// influence descending, id ascending on ties.
func rankGuardCandidates(cands []GuardCandidate) {
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].Influence != cands[b].Influence {
			return cands[a].Influence > cands[b].Influence
		}
		return cands[a].ID < cands[b].ID
	})
}

// TopKGuard certifies that a ranked top-k answer is still exact under
// a stream of position-append batches. It is built from the full
// exact influence vector of one solve; Observe folds each batch into
// per-candidate upper bounds and reports whether the ranking is still
// certain. Once a batch could have changed the ranking the guard
// breaks permanently — the caller re-solves and builds a fresh guard
// from the new vector.
//
// A TopKGuard is not safe for concurrent use; serialize Observe with
// the reads (subscribe.Manager runs every guard on its one worker).
type TopKGuard struct {
	radii *object.MarginTable
	k     int // delivered prefix length, min(k, len(cands))

	// cands is the full vector in rank order. Influence values are the
	// exact lower bounds (influences only grow under appends); upper
	// accumulates the possible gains of every observed batch.
	cands []GuardCandidate
	upper []int

	// credited[id][i] records that object id already contributed its
	// possible +1 to candidate rank i. Influence counts objects, not
	// positions: an object flips a candidate at most once ever, so each
	// (object, candidate) pair is credited once across every observed
	// batch — influence persists under appends, so a flip that already
	// happened leaves the candidate inside every later post-append NIB,
	// which credits it.
	credited map[int][]bool

	broken bool
}

// NewTopKGuard builds a guard certifying the top-k prefix of cands,
// the exact full influence vector of one solve under (pf, tau). The
// slice is copied; any order is accepted.
func NewTopKGuard(pf probfn.Func, tau float64, k int, cands []GuardCandidate) (*TopKGuard, error) {
	if pf == nil {
		return nil, fmt.Errorf("dynamic: guard needs a probability function")
	}
	if !(tau > 0 && tau < 1) {
		return nil, fmt.Errorf("dynamic: guard tau %v outside (0,1)", tau)
	}
	if k < 1 {
		return nil, fmt.Errorf("dynamic: guard needs k >= 1, got %d", k)
	}
	ranked := append([]GuardCandidate(nil), cands...)
	rankGuardCandidates(ranked)
	if k > len(ranked) {
		k = len(ranked)
	}
	upper := make([]int, len(ranked))
	for i, c := range ranked {
		upper[i] = c.Influence
	}
	return &TopKGuard{
		radii:    object.NewMarginTable(pf, tau, tau),
		k:        k,
		cands:    ranked,
		upper:    upper,
		credited: map[int][]bool{},
	}, nil
}

// TopK returns the certified ranked prefix (influences as of the solve
// the guard was built from). The slice is shared; do not mutate.
func (g *TopKGuard) TopK() []GuardCandidate { return g.cands[:g.k] }

// Certified reports whether the guard still vouches for its ranking.
func (g *TopKGuard) Certified() bool { return g != nil && !g.broken }

// Invalidate breaks the guard unconditionally — the caller saw a
// mutation that is not a position append (removal, replacement,
// candidate change), for which no monotonicity argument holds.
func (g *TopKGuard) Invalidate() {
	if g != nil {
		g.broken = true
	}
}

// Observe folds one applied append batch into the bounds and reports
// whether the guarded top-k ranking is provably unchanged. appends
// holds the post-append objects (duplicates are harmless — credit is
// per object, not per batch). A false return breaks the guard: the
// answer must be re-solved and a fresh guard built from the new
// vector.
func (g *TopKGuard) Observe(appends []*object.Object) bool {
	if g == nil || g.broken {
		return false
	}
	// Appends raise inf(c) by at most 1 per object O ever (O flips from
	// uninfluenced to influenced at most once), and a flip requires c
	// inside NIB(O) at O's post-append position count (Lemma 3
	// discounts everything outside).
	for _, o := range appends {
		cr := g.credited[o.ID]
		if cr == nil {
			cr = make([]bool, len(g.cands))
			g.credited[o.ID] = cr
		}
		regions := g.radii.Regions(o)
		for i := range g.cands {
			if !cr[i] && regions.InNIB(g.cands[i].Pt) {
				cr[i] = true
				g.upper[i]++
			}
		}
	}
	if !g.certify() {
		g.broken = true
		return false
	}
	return true
}

// certify checks that no candidate can cross any ordering boundary of
// the delivered prefix: for a ranked above b, b overtakes a only if b
// can reach an influence strictly above a's lower bound (or tie it
// while winning the id tie-break). Pairs entirely below the prefix
// cannot change the answer and are ignored; a candidate outside the
// prefix enters it only by overtaking the k-th member.
func (g *TopKGuard) certify() bool {
	// Order within the delivered prefix.
	for i := 0; i < g.k; i++ {
		for j := i + 1; j < g.k; j++ {
			if g.canOvertake(j, i) {
				return false
			}
		}
	}
	// Membership: anyone below the boundary overtaking the k-th.
	last := g.k - 1
	for j := g.k; j < len(g.cands); j++ {
		if g.canOvertake(j, last) {
			return false
		}
	}
	return true
}

// canOvertake reports whether candidate at rank j could now be ranked
// above the one at rank i (i ranked higher at build time): possible
// when j's upper bound exceeds i's lower bound, or ties it while j
// holds the smaller id. i's influence can only have grown, which
// never helps j.
func (g *TopKGuard) canOvertake(j, i int) bool {
	if g.upper[j] > g.cands[i].Influence {
		return true
	}
	return g.upper[j] == g.cands[i].Influence && g.cands[j].ID < g.cands[i].ID
}
