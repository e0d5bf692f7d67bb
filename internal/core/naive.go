package core

import "time"

// NA is the exhaustive baseline of §6.1: it computes the cumulative
// influence probability for every object/candidate pair and returns
// the most influential candidate. Its cost is Θ(m·r·n̄) position
// probes, the yardstick the pruning rules are measured against. NA
// uses no derived state, so an attached Problem.Plan is ignored.
func NA(p *Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.ctxErr(); err != nil {
		return nil, err
	}
	start := time.Now()
	r := len(p.Objects)
	m := len(p.Candidates)
	res := &Result{Influences: make([]int, m)}
	res.Stats.PairsTotal = int64(r) * int64(m)

	cc := canceller{ctx: p.Ctx}
	valSp := p.Obs.Child("validate")
	for j, c := range p.Candidates {
		for _, o := range p.Objects {
			if err := cc.tick(); err != nil {
				valSp.End()
				return nil, err
			}
			res.Stats.Validated++
			p.Cost.validated(j)
			if influencedFull(p.PF, p.Tau, c, o.Positions, &res.Stats) {
				res.Influences[j]++
			}
		}
	}
	valSp.End()
	res.BestIndex, res.BestInfluence = Argmax(res.Influences)
	p.Cost.finishExact(p, &res.Stats, res.Influences, res.BestIndex)
	finishSolve(p.Obs, AlgNA.String(), start, &res.Stats, p.Cost)
	return res, nil
}

// Argmax returns the smallest index attaining the maximum value — the
// tie-break every solver answers with.
func Argmax(v []int) (idx, max int) {
	idx, max = 0, v[0]
	for i, x := range v {
		if x > max {
			idx, max = i, x
		}
	}
	return idx, max
}
