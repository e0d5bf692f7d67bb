package core

import (
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

// CumulativeProb computes Definition 1 in full:
//
//	Pr_c(O) = 1 − Π_i (1 − PF(dist(c, p_i)))
//
// probing every position. probes, when non-nil, is incremented per PF
// evaluation.
func CumulativeProb(pf probfn.Func, c geo.Point, positions []geo.Point, probes *int64) float64 {
	nonInf := 1.0
	for _, p := range positions {
		nonInf *= 1 - pf.Prob(c.Dist(p))
	}
	if probes != nil {
		*probes += int64(len(positions))
	}
	return 1 - nonInf
}

// influencedFull decides Definition 2 by the full product, as the NA
// baseline and PINOCCHIO's validation phase (Algorithm 2, lines 11-14)
// do.
func influencedFull(pf probfn.Func, tau float64, c geo.Point, positions []geo.Point, st *Stats) bool {
	return CumulativeProb(pf, c, positions, &st.PositionProbes) >= tau
}

// influencedEarlyStop decides Definition 2 with Strategy 2 (Lemma 4):
// maintain the partial non-influence product Π(1−Pr_c(p_i)) and stop
// as soon as it falls to object.EarlyStopBar(τ), because the remaining
// factors can only shrink it further; a product that never reaches the
// bar is decided by 1 − Π ≥ τ. The product runs in position order with
// NA's float operations, so the verdict is NA's.
func influencedEarlyStop(pf probfn.Func, tau float64, c geo.Point, positions []geo.Point, st *Stats) bool {
	bar := object.EarlyStopBar(tau)
	nonInf := 1.0
	for i, p := range positions {
		st.PositionProbes++
		nonInf *= 1 - pf.Prob(c.Dist(p))
		if nonInf <= bar {
			if i < len(positions)-1 {
				st.EarlyStops++
			}
			return true
		}
	}
	return 1-nonInf >= tau
}
