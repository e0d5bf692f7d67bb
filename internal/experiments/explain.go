package experiments

import (
	"fmt"

	"pinocchio/internal/core"
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
)

// BenchPrune is one explain-accounted solve in the benchmark snapshot:
// an algorithm × τ cell with the full EXPLAIN cost ledger, so snapshot
// diffs show not only *how much* was pruned but *which rule* did the
// work. The paper's Fig. 10 reports only the IA/NIB split; the Cost
// breakdown additionally separates box-level from arc-level NIB
// prunes, memoized from live validations, and bound-skipped pairs.
type BenchPrune struct {
	Algorithm string    `json:"algorithm"`
	Tau       float64   `json:"tau"`
	Cost      core.Cost `json:"cost"`
	// PruneRatio is (IA+NIB)/pairs, matching Stats.PruneRatio.
	PruneRatio    float64 `json:"prune_ratio"`
	BestInfluence int     `json:"best_influence"`
}

// namedSolver pairs a display name with a solve function.
type namedSolver struct {
	name  string
	solve func(p *core.Problem) (*core.Result, error)
}

// pruneAlgorithms are the solvers the accounting sweep covers: every
// registered algorithm plus the parallel variant.
func pruneAlgorithms(workers int) []namedSolver {
	var out []namedSolver
	for _, alg := range core.Algorithms() {
		alg := alg
		out = append(out, namedSolver{alg.String(), func(p *core.Problem) (*core.Result, error) {
			return core.Solve(alg, p)
		}})
	}
	out = append(out, namedSolver{"PIN-PAR", func(p *core.Problem) (*core.Result, error) {
		return core.PinocchioParallel(p, workers)
	}})
	return out
}

// RunPruneAccounting executes one explain'd solve per algorithm × τ on
// the given instance and returns the per-rule accounting rows. Every
// row satisfies the pair identity: pruned(ia)+pruned(nib-box)+
// pruned(nib-arc)+validated(live)+validated(memo)+skipped == pairs.
func RunPruneAccounting(objs []*object.Object, cands []geo.Point, taus []float64, workers int) ([]BenchPrune, error) {
	if len(taus) == 0 {
		taus = []float64{0.3, DefaultTau, 0.9}
	}
	var rows []BenchPrune
	for _, tau := range taus {
		for _, a := range pruneAlgorithms(workers) {
			p := problem(objs, cands, defaultPF(), tau)
			p.Cost = &core.Cost{}
			res, err := a.solve(p)
			if err != nil {
				return nil, fmt.Errorf("experiments: prune accounting %s tau=%g: %w", a.name, tau, err)
			}
			if got := p.Cost.AccountedPairs(); got != p.Cost.PairsTotal {
				return nil, fmt.Errorf("experiments: prune accounting %s tau=%g: accounted %d of %d pairs",
					a.name, tau, got, p.Cost.PairsTotal)
			}
			rows = append(rows, BenchPrune{
				Algorithm:     a.name,
				Tau:           tau,
				Cost:          *p.Cost,
				PruneRatio:    p.Cost.PruneRatio(),
				BestInfluence: res.BestInfluence,
			})
		}
	}
	return rows, nil
}

// PruneAccountingTable renders accounting rows in the Fig. 10 style,
// one row per algorithm × τ with per-rule shares of the pair total.
func PruneAccountingTable(rows []BenchPrune) *Table {
	t := &Table{
		Title:  "EXPLAIN accounting: pairs resolved per rule",
		Header: []string{"algo", "tau", "ia", "nib-box", "nib-arc", "validated", "skipped", "pruned"},
	}
	for _, r := range rows {
		total := float64(r.Cost.PairsTotal)
		if total == 0 {
			total = 1
		}
		frac := func(n int64) string { return pct(float64(n) / total) }
		t.AddRow(r.Algorithm, f2(r.Tau),
			frac(r.Cost.PrunedIA), frac(r.Cost.PrunedNIBBox), frac(r.Cost.PrunedNIBArc),
			frac(r.Cost.ValidatedLive), frac(r.Cost.SkippedByBounds),
			pct(r.PruneRatio))
	}
	return t
}
