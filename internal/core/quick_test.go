package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

// pairCase is a random object/candidate pair for pairwise invariants.
type pairCase struct {
	tau       float64
	candidate geo.Point
	positions []geo.Point
}

// Generate implements quick.Generator.
func (pairCase) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(size*2+6)
	pc := pairCase{
		tau:       0.02 + rng.Float64()*0.96,
		candidate: geo.Point{X: rng.NormFloat64() * 8, Y: rng.NormFloat64() * 8},
		positions: make([]geo.Point, n),
	}
	for i := range pc.positions {
		pc.positions[i] = geo.Point{X: rng.NormFloat64() * 8, Y: rng.NormFloat64() * 8}
	}
	return reflect.ValueOf(pc)
}

// TestQuickCumulativeMonotoneInPositions: adding a position never
// decreases the cumulative influence probability — the property the
// dynamic engine's AddPosition fast path relies on.
func TestQuickCumulativeMonotoneInPositions(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	f := func(pc pairCase) bool {
		full := CumulativeProb(pf, pc.candidate, pc.positions, nil)
		prefix := CumulativeProb(pf, pc.candidate, pc.positions[:len(pc.positions)-1], nil)
		return full >= prefix-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickCumulativeBounds: Pr_c(O) is a probability and at least the
// strongest single position.
func TestQuickCumulativeBounds(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	f := func(pc pairCase) bool {
		pr := CumulativeProb(pf, pc.candidate, pc.positions, nil)
		if pr < 0 || pr > 1 {
			return false
		}
		bestSingle := 0.0
		for _, p := range pc.positions {
			if v := pf.Prob(pc.candidate.Dist(p)); v > bestSingle {
				bestSingle = v
			}
		}
		return pr >= bestSingle-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickInfluenceMonotoneInTau: raising τ can only shrink the
// influenced relation for a fixed pair.
func TestQuickInfluenceMonotoneInTau(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	f := func(pc pairCase) bool {
		var st Stats
		low := influencedEarlyStop(pf, pc.tau*0.5, pc.candidate, pc.positions, &st)
		high := influencedEarlyStop(pf, pc.tau, pc.candidate, pc.positions, &st)
		// high ⇒ low.
		return !high || low
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickClassifyConsistentWithDecision: the pruning classification
// never contradicts the exact decision for random pairs (the quick
// version of the region soundness test).
func TestQuickClassifyConsistentWithDecision(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	f := func(pc pairCase) bool {
		o := object.MustNew(0, pc.positions)
		regions := object.NewMarginTable(pf, pc.tau, pc.tau).Regions(o)
		var st Stats
		inf := influencedFull(pf, pc.tau, pc.candidate, pc.positions, &st)
		switch regions.Classify(pc.candidate) {
		case object.Influenced:
			return inf
		case object.NotInfluenced:
			return !inf
		default:
			return true
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}

// smallProblemCase is a whole random instance for solver agreement.
type smallProblemCase struct {
	seed int64
	tau  float64
}

// Generate implements quick.Generator.
func (smallProblemCase) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(smallProblemCase{
		seed: rng.Int63(),
		tau:  0.05 + rng.Float64()*0.9,
	})
}

// TestQuickSolversAgree: NA and PINOCCHIO-VO agree on arbitrary small
// instances — the quick version of TestAlgorithmsAgree.
func TestQuickSolversAgree(t *testing.T) {
	f := func(c smallProblemCase) bool {
		rng := rand.New(rand.NewSource(c.seed))
		p := randomProblem(rng, 5+rng.Intn(25), 4+rng.Intn(20), c.tau)
		na, err := NA(p)
		if err != nil {
			return false
		}
		vo, err := PinocchioVO(p)
		if err != nil {
			return false
		}
		return na.BestInfluence == vo.BestInfluence &&
			na.Influences[vo.BestIndex] == na.BestInfluence
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
