package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// costSolvers enumerates every solve path that threads a Cost ledger,
// each returning the influence result (nil Stats reuse res.Stats).
func costSolvers(workers int) []struct {
	name  string
	solve func(p *Problem) (*Result, error)
} {
	out := []struct {
		name  string
		solve func(p *Problem) (*Result, error)
	}{}
	for _, alg := range Algorithms() {
		alg := alg
		out = append(out, struct {
			name  string
			solve func(p *Problem) (*Result, error)
		}{alg.String(), func(p *Problem) (*Result, error) { return Solve(alg, p) }})
	}
	out = append(out, struct {
		name  string
		solve func(p *Problem) (*Result, error)
	}{"PIN-PAR", func(p *Problem) (*Result, error) { return PinocchioParallel(p, workers) }})
	return out
}

// checkCostIdentities asserts the ledger/Stats correspondence and the
// pair-partition identity that every solver must maintain.
func checkCostIdentities(t *testing.T, name string, c *Cost, st *Stats, m int) {
	t.Helper()
	if c.PairsTotal != st.PairsTotal {
		t.Errorf("%s: cost pairs %d != stats pairs %d", name, c.PairsTotal, st.PairsTotal)
	}
	if c.PrunedIA != st.PrunedByIA {
		t.Errorf("%s: cost ia %d != stats ia %d", name, c.PrunedIA, st.PrunedByIA)
	}
	if got := c.PrunedNIBBox + c.PrunedNIBArc; got != st.PrunedByNIB {
		t.Errorf("%s: cost nib %d (box %d + arc %d) != stats nib %d",
			name, got, c.PrunedNIBBox, c.PrunedNIBArc, st.PrunedByNIB)
	}
	if c.ValidatedLive != st.Validated {
		t.Errorf("%s: cost validated %d != stats validated %d", name, c.ValidatedLive, st.Validated)
	}
	if c.SkippedByBounds != st.SkippedByBounds {
		t.Errorf("%s: cost skipped %d != stats skipped %d", name, c.SkippedByBounds, st.SkippedByBounds)
	}
	if got := c.AccountedPairs(); got != c.PairsTotal {
		t.Errorf("%s: accounted %d of %d pairs: %v", name, got, c.PairsTotal, c)
	}
	if c.PositionProbes != st.PositionProbes {
		t.Errorf("%s: cost probes %d != stats probes %d", name, c.PositionProbes, st.PositionProbes)
	}

	vs := c.Verdicts()
	if len(vs) != m {
		t.Fatalf("%s: %d verdict rows, want %d", name, len(vs), m)
	}
	r := int(c.PairsTotal) / m
	counts := c.VerdictCounts()
	totalRows := 0
	for _, n := range counts {
		totalRows += n
	}
	if totalRows != m {
		t.Errorf("%s: verdict counts sum to %d, want %d (%v)", name, totalRows, m, counts)
	}
	for _, v := range vs {
		if got := v.PrunedIA + v.PrunedNIB + v.Validated + v.Skipped; got != r {
			t.Errorf("%s: candidate %d accounts for %d of %d pairs (%+v)", name, v.Index, got, r, v)
		}
		if v.PrunedNIB < 0 {
			t.Errorf("%s: candidate %d has negative NIB count (%+v)", name, v.Index, v)
		}
		if v.Verdict == "" {
			t.Errorf("%s: candidate %d has no verdict", name, v.Index)
		}
	}
	if counts[VerdictWinner] == 0 {
		t.Errorf("%s: no winner verdict (%v)", name, counts)
	}
}

// TestCostIdentities runs every solver with full accounting and checks
// the ledger against the Stats counters it refines.
func TestCostIdentities(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		p := randomProblem(rand.New(rand.NewSource(seed)), 90, 70, 0.7)
		m := len(p.Candidates)
		for _, s := range costSolvers(3) {
			p.Cost = &Cost{}
			p.Cost.EnableVerdicts(m)
			res, err := s.solve(p)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, s.name, err)
			}
			checkCostIdentities(t, s.name, p.Cost, &res.Stats, m)
			if p.Cost.PlanSource != "none" {
				t.Errorf("%s: plan source %q, want \"none\"", s.name, p.Cost.PlanSource)
			}
		}

		// Top-t certifies t winners instead of one.
		p.Cost = &Cost{}
		p.Cost.EnableVerdicts(m)
		ranked, st, err := PinocchioVOTopT(p, 5)
		if err != nil {
			t.Fatalf("seed %d topt: %v", seed, err)
		}
		checkCostIdentities(t, "PIN-VO-TOPT", p.Cost, st, m)
		if got := p.Cost.VerdictCounts()[VerdictWinner]; got != len(ranked) {
			t.Errorf("topt: %d winner verdicts, want %d", got, len(ranked))
		}

		// Ablations exercise the alternative accounting paths (full
		// scan, grid index, rules disabled).
		for _, ab := range []struct {
			name string
			cfg  Ablation
		}{
			{"ablated-default", Ablation{}},
			{"ablated-no-ia", Ablation{DisableIA: true}},
			{"ablated-no-nib", Ablation{DisableNIB: true}},
			{"ablated-linear", Ablation{LinearScan: true}},
			{"ablated-grid", Ablation{GridIndex: true}},
		} {
			p.Cost = &Cost{}
			p.Cost.EnableVerdicts(m)
			res, err := PinocchioAblated(p, ab.cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, ab.name, err)
			}
			checkCostIdentities(t, ab.name, p.Cost, &res.Stats, m)
			if ab.cfg.GridIndex && p.Cost.GridCellsScanned == 0 {
				t.Errorf("%s: no grid cells counted", ab.name)
			}
		}
		p.Cost = nil
	}
}

// TestCostExplainParity: attaching a Cost must not change any answer —
// the ledger observes the solve, it never steers it.
func TestCostExplainParity(t *testing.T) {
	for _, seed := range []int64{5, 17} {
		for _, s := range costSolvers(3) {
			plain := randomProblem(rand.New(rand.NewSource(seed)), 80, 60, 0.7)
			explained := randomProblem(rand.New(rand.NewSource(seed)), 80, 60, 0.7)
			explained.Cost = &Cost{}
			explained.Cost.EnableVerdicts(len(explained.Candidates))

			want, err := s.solve(plain)
			if err != nil {
				t.Fatalf("seed %d %s plain: %v", seed, s.name, err)
			}
			got, err := s.solve(explained)
			if err != nil {
				t.Fatalf("seed %d %s explained: %v", seed, s.name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("seed %d %s: explain changed the result\nplain:     %+v\nexplained: %+v",
					seed, s.name, want, got)
			}
		}
	}
}

// TestCostWarmParity: a warm (plan-attached) solve must report the same
// per-rule split as the cold solve that built the plan — the R-tree
// walk is already paid for, but the rule attribution, validations and
// pair partition are identical.
func TestCostWarmParity(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(23)), 90, 70, 0.7)
	m := len(p.Candidates)
	pl, err := BuildPlan(p, nil)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	warm := *p
	warm.Plan = pl

	for _, s := range costSolvers(3) {
		p.Cost = &Cost{}
		p.Cost.EnableVerdicts(m)
		if _, err := s.solve(p); err != nil {
			t.Fatalf("%s cold: %v", s.name, err)
		}
		warm.Cost = &Cost{}
		warm.Cost.EnableVerdicts(m)
		if _, err := s.solve(&warm); err != nil {
			t.Fatalf("%s warm: %v", s.name, err)
		}
		cold, hot := p.Cost, warm.Cost

		if !reflect.DeepEqual(cold.RuleBreakdown(), hot.RuleBreakdown()) {
			t.Errorf("%s: rule breakdown differs\ncold: %v\nwarm: %v",
				s.name, cold.RuleBreakdown(), hot.RuleBreakdown())
		}
		if cold.ValidatedLive != hot.ValidatedLive {
			t.Errorf("%s: validated differs: cold %d, warm %d", s.name, cold.ValidatedLive, hot.ValidatedLive)
		}
		if cold.SkippedByBounds != hot.SkippedByBounds {
			t.Errorf("%s: skipped differs: cold %d, warm %d", s.name, cold.SkippedByBounds, hot.SkippedByBounds)
		}
		if hot.AccountedPairs() != hot.PairsTotal {
			t.Errorf("%s warm: accounted %d of %d pairs", s.name, hot.AccountedPairs(), hot.PairsTotal)
		}
		if hot.RTreeNodeVisits != 0 {
			t.Errorf("%s warm: %d node visits, want 0 (plan replay)", s.name, hot.RTreeNodeVisits)
		}
		// Only solvers that scan the candidate tree (evidenced by NIB
		// prunes) must count node visits; NA and PIN-VO* never touch it.
		if cold.PrunedNIBBox+cold.PrunedNIBArc > 0 && cold.RTreeNodeVisits == 0 {
			t.Errorf("%s cold: no node visits counted", s.name)
		}
		if !reflect.DeepEqual(cold.Verdicts(), hot.Verdicts()) {
			t.Errorf("%s: verdict tables differ across plan replay", s.name)
		}
		if hot.PlanSource != "attached" {
			t.Errorf("%s warm: plan source %q, want \"attached\"", s.name, hot.PlanSource)
		}
	}
}

// TestCostNilZeroAlloc is the zero-overhead guarantee for the disabled
// path: every recording method on a nil *Cost must allocate nothing.
func TestCostNilZeroAlloc(t *testing.T) {
	var c *Cost
	allocs := testing.AllocsPerRun(100, func() {
		c.pruneIA(3)
		c.addNIB(2, 5)
		c.validated(1)
		c.skip(4, 2)
		c.AddPositionProbes(7)
		c.EnableVerdicts(10)
		c.merge(nil)
		_ = c.nodeCounter()
		_ = c.GridCellCounter()
		_ = c.workerChild()
		_ = c.AccountedPairs()
	})
	if allocs != 0 {
		t.Errorf("nil *Cost recording allocates %.1f per run, want 0", allocs)
	}
}

// BenchmarkSolveWarmNoExplain is the allocation guard for the serving
// hot path: a plan-replay PIN-VO solve with accounting disabled. Run
// with -benchmem; the explain layer must not show up here.
func BenchmarkSolveWarmNoExplain(b *testing.B) {
	p := randomProblem(rand.New(rand.NewSource(23)), 90, 70, 0.7)
	pl, err := BuildPlan(p, nil)
	if err != nil {
		b.Fatalf("BuildPlan: %v", err)
	}
	p.Plan = pl
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PinocchioVO(p); err != nil {
			b.Fatal(err)
		}
	}
}
