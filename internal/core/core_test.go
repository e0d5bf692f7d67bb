package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

// randomProblem builds a PRIME-LS instance with clustered, heavily
// overlapping activity regions, mimicking the structure of check-in
// data.
func randomProblem(rng *rand.Rand, nObjects, nCands int, tau float64) *Problem {
	objects := make([]*object.Object, nObjects)
	for k := 0; k < nObjects; k++ {
		n := 1 + rng.Intn(30)
		pts := make([]geo.Point, n)
		// 1-3 anchors spread over a 40x30 km frame; positions cluster
		// around anchors so activity regions overlap heavily.
		nAnchors := 1 + rng.Intn(3)
		anchors := make([]geo.Point, nAnchors)
		for a := range anchors {
			anchors[a] = geo.Point{X: rng.Float64() * 40, Y: rng.Float64() * 30}
		}
		for i := range pts {
			a := anchors[rng.Intn(nAnchors)]
			pts[i] = geo.Point{X: a.X + rng.NormFloat64()*2, Y: a.Y + rng.NormFloat64()*2}
		}
		objects[k] = object.MustNew(k, pts)
	}
	cands := make([]geo.Point, nCands)
	for j := range cands {
		cands[j] = geo.Point{X: rng.Float64() * 40, Y: rng.Float64() * 30}
	}
	return &Problem{
		Objects:    objects,
		Candidates: cands,
		PF:         probfn.DefaultPowerLaw(),
		Tau:        tau,
	}
}

func TestValidate(t *testing.T) {
	valid := randomProblem(rand.New(rand.NewSource(1)), 3, 3, 0.7)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Problem)
		want   error
	}{
		{"no objects", func(p *Problem) { p.Objects = nil }, ErrNoObjects},
		{"no candidates", func(p *Problem) { p.Candidates = nil }, ErrNoCandidates},
		{"nil PF", func(p *Problem) { p.PF = nil }, ErrNilPF},
		{"tau zero", func(p *Problem) { p.Tau = 0 }, ErrBadTau},
		{"tau one", func(p *Problem) { p.Tau = 1 }, ErrBadTau},
		{"tau negative", func(p *Problem) { p.Tau = -0.5 }, ErrBadTau},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			p := randomProblem(rand.New(rand.NewSource(1)), 3, 3, 0.7)
			tt.mutate(p)
			if err := p.Validate(); !errors.Is(err, tt.want) {
				t.Errorf("Validate = %v, want %v", err, tt.want)
			}
			// Every solver surfaces the same validation error.
			for _, alg := range Algorithms() {
				if _, err := Solve(alg, p); !errors.Is(err, tt.want) {
					t.Errorf("%v: err = %v, want %v", alg, err, tt.want)
				}
			}
		})
	}
}

func TestPaperExample1Arithmetic(t *testing.T) {
	// Example 1 of §3.2: with the stated position probabilities,
	// Pr_c1(O1) = 0.73 and Pr_c1(O2) = 0.86, so with τ = 0.8 c1
	// influences only O2 even though O1 holds the nearest position.
	pr1 := []float64{0.5, 0.1, 0.2, 0.15, 0.12}
	pr2 := []float64{0.25, 0.35, 0.33, 0.3, 0.38}
	cum := func(ps []float64) float64 {
		v := 1.0
		for _, p := range ps {
			v *= 1 - p
		}
		return 1 - v
	}
	if got := cum(pr1); math.Abs(got-0.73) > 0.01 {
		t.Errorf("Pr_c1(O1) = %v, paper says 0.73", got)
	}
	if got := cum(pr2); math.Abs(got-0.86) > 0.01 {
		t.Errorf("Pr_c1(O2) = %v, paper says 0.86", got)
	}
	tau := 0.8
	if cum(pr1) >= tau {
		t.Error("c1 should not influence O1 at τ=0.8")
	}
	if cum(pr2) < tau {
		t.Error("c1 should influence O2 at τ=0.8")
	}
}

func TestSinglePair(t *testing.T) {
	// One object, one candidate: influenced iff Pr >= tau.
	pf := probfn.DefaultPowerLaw()
	o := object.MustNew(0, []geo.Point{{X: 0, Y: 0}})
	near := &Problem{
		Objects:    []*object.Object{o},
		Candidates: []geo.Point{{X: 0.01, Y: 0}},
		PF:         pf, Tau: 0.5,
	}
	for _, alg := range Algorithms() {
		res, err := Solve(alg, near)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.BestInfluence != 1 {
			t.Errorf("%v: near candidate influence = %d, want 1", alg, res.BestInfluence)
		}
	}
	far := &Problem{
		Objects:    []*object.Object{o},
		Candidates: []geo.Point{{X: 500, Y: 0}},
		PF:         pf, Tau: 0.5,
	}
	for _, alg := range Algorithms() {
		res, err := Solve(alg, far)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.BestInfluence != 0 {
			t.Errorf("%v: far candidate influence = %d, want 0", alg, res.BestInfluence)
		}
	}
}

// TestAlgorithmsAgree is the core cross-validation: on random
// instances all four algorithms must report the same maximum
// influence, and the exact algorithms the same influence vector; then
// every static entry point must answer as NA does on boundary-heavy
// instances of every PF family.
func TestAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		tau := [5]float64{0.1, 0.3, 0.5, 0.7, 0.9}[trial%5]
		p := randomProblem(rng, 30+rng.Intn(50), 20+rng.Intn(60), tau)

		na, err := NA(p)
		if err != nil {
			t.Fatal(err)
		}
		pin, err := Pinocchio(p)
		if err != nil {
			t.Fatal(err)
		}
		vo, err := PinocchioVO(p)
		if err != nil {
			t.Fatal(err)
		}
		vos, err := PinocchioVOStar(p)
		if err != nil {
			t.Fatal(err)
		}

		for j := range na.Influences {
			if na.Influences[j] != pin.Influences[j] {
				t.Fatalf("trial %d τ=%v: influence[%d]: NA %d vs PIN %d",
					trial, tau, j, na.Influences[j], pin.Influences[j])
			}
		}
		if na.BestInfluence != pin.BestInfluence ||
			na.BestInfluence != vo.BestInfluence ||
			na.BestInfluence != vos.BestInfluence {
			t.Fatalf("trial %d τ=%v: best influence NA=%d PIN=%d VO=%d VO*=%d",
				trial, tau, na.BestInfluence, pin.BestInfluence,
				vo.BestInfluence, vos.BestInfluence)
		}
		// The VO winners must actually attain the maximum.
		if na.Influences[vo.BestIndex] != na.BestInfluence {
			t.Fatalf("trial %d: VO winner %d has influence %d, max is %d",
				trial, vo.BestIndex, na.Influences[vo.BestIndex], na.BestInfluence)
		}
		if na.Influences[vos.BestIndex] != na.BestInfluence {
			t.Fatalf("trial %d: VO* winner %d has influence %d, max is %d",
				trial, vos.BestIndex, na.Influences[vos.BestIndex], na.BestInfluence)
		}
		if na.BestIndex != pin.BestIndex {
			t.Fatalf("trial %d: deterministic tie-break differs: NA %d vs PIN %d",
				trial, na.BestIndex, pin.BestIndex)
		}
	}

	// Every static entry point on the index tests' instances for every
	// PF family: clustered objects plus single-position probes with
	// candidates at, and an ulp either side of, the distance where
	// PF = τ for each τ asked.
	rng = rand.New(rand.NewSource(17))
	for _, family := range probfn.Families() {
		for trial := 0; trial < 6; trial++ {
			pf := indexTestPF(t, rng, family)
			taus := make([]float64, 4)
			for i := range taus {
				taus[i] = 0.02 + 0.96*rng.Float64()
			}
			p := indexTestProblem(rng, pf, taus)
			for _, tau := range taus {
				p.Tau = tau
				checkSolversMatchNA(t, fmt.Sprintf("%s %v trial %d tau %v", family, pf, trial, tau), p)
			}
		}
	}
}

// checkSolversMatchNA runs every static entry point on p — PIN,
// PIN-VO, PIN-VO*, PIN-PAR at 1 and 2 workers, PinocchioObjectTree,
// every ablation, PinocchioVOTopT, and PIN, PIN-VO, PIN-PAR and top-t
// with a BuildPlan plan attached — and reports each one whose answer
// differs from NA's: the influence vector where the solver computes
// one, the best candidate and its influence, and top-t's ranked
// prefix.
func checkSolversMatchNA(t *testing.T, name string, p *Problem) {
	t.Helper()
	na, err := NA(p)
	if err != nil {
		t.Fatalf("%s: NA: %v", name, err)
	}
	pl, err := BuildPlan(p, nil)
	if err != nil {
		t.Fatalf("%s: BuildPlan: %v", name, err)
	}
	planned := *p
	planned.Plan = pl
	type solver struct {
		name string
		run  func() (*Result, error)
	}
	solvers := []solver{
		{"PIN", func() (*Result, error) { return Pinocchio(p) }},
		{"PIN-VO", func() (*Result, error) { return PinocchioVO(p) }},
		{"PIN-VO*", func() (*Result, error) { return PinocchioVOStar(p) }},
		{"PIN-PAR/1", func() (*Result, error) { return PinocchioParallel(p, 1) }},
		{"PIN-PAR/2", func() (*Result, error) { return PinocchioParallel(p, 2) }},
		{"object-tree", func() (*Result, error) { return PinocchioObjectTree(p) }},
		{"planned PIN", func() (*Result, error) { return Pinocchio(&planned) }},
		{"planned PIN-VO", func() (*Result, error) { return PinocchioVO(&planned) }},
		{"planned PIN-PAR", func() (*Result, error) { return PinocchioParallel(&planned, 2) }},
	}
	for _, ab := range allAblations() {
		solvers = append(solvers, solver{fmt.Sprintf("ablation %+v", ab), func() (*Result, error) { return PinocchioAblated(p, ab) }})
	}
	for _, s := range solvers {
		res, err := s.run()
		if err != nil {
			t.Fatalf("%s: %s: %v", name, s.name, err)
		}
		if res.Influences != nil {
			for j := range na.Influences {
				if res.Influences[j] != na.Influences[j] {
					t.Errorf("%s: %s influence[%d] = %d, NA %d", name, s.name, j, res.Influences[j], na.Influences[j])
					break
				}
			}
		}
		if res.BestIndex != na.BestIndex || res.BestInfluence != na.BestInfluence {
			t.Errorf("%s: %s best (%d, %d), NA (%d, %d)", name, s.name,
				res.BestIndex, res.BestInfluence, na.BestIndex, na.BestInfluence)
		}
	}
	want := Rank(na.Influences)[:min(3, len(na.Influences))]
	for _, q := range []*Problem{p, &planned} {
		got, _, err := PinocchioVOTopT(q, len(want))
		if err != nil {
			t.Fatalf("%s: top-t: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: top-t (plan attached: %v) %v, NA %v", name, q.Plan != nil, got, want)
		}
	}
}

func TestPruningSavesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	p := randomProblem(rng, 200, 150, 0.7)
	na, _ := NA(p)
	pin, _ := Pinocchio(p)
	vo, _ := PinocchioVO(p)

	if pin.Stats.PositionProbes >= na.Stats.PositionProbes {
		t.Errorf("PIN probes %d not fewer than NA %d",
			pin.Stats.PositionProbes, na.Stats.PositionProbes)
	}
	if vo.Stats.PositionProbes >= pin.Stats.PositionProbes {
		t.Errorf("VO probes %d not fewer than PIN %d",
			vo.Stats.PositionProbes, pin.Stats.PositionProbes)
	}
	if ratio := pin.Stats.PruneRatio(); ratio < 0.3 {
		t.Errorf("prune ratio %v suspiciously low", ratio)
	}
	// Accounting identity: every pair is IA-pruned, NIB-pruned, or
	// validated (for PIN, which validates all remnants).
	got := pin.Stats.PrunedByIA + pin.Stats.PrunedByNIB + pin.Stats.Validated
	if got != pin.Stats.PairsTotal {
		t.Errorf("pair accounting: %d + %d + %d = %d, want %d",
			pin.Stats.PrunedByIA, pin.Stats.PrunedByNIB, pin.Stats.Validated,
			got, pin.Stats.PairsTotal)
	}
	// For VO, skipped pairs complete the identity.
	gotVO := vo.Stats.PrunedByIA + vo.Stats.PrunedByNIB + vo.Stats.Validated + vo.Stats.SkippedByBounds
	if gotVO != vo.Stats.PairsTotal {
		t.Errorf("VO pair accounting: %d, want %d", gotVO, vo.Stats.PairsTotal)
	}
}

func TestStatsString(t *testing.T) {
	var s Stats
	if s.String() == "" {
		t.Error("Stats.String should be non-empty")
	}
	if s.PruneRatio() != 0 {
		t.Error("zero stats should have zero prune ratio")
	}
}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{
		AlgNA: "NA", AlgPinocchio: "PIN", AlgPinocchioVO: "PIN-VO",
		AlgPinocchioVOStar: "PIN-VO*", Algorithm(42): "unknown",
	}
	for alg, s := range want {
		if alg.String() != s {
			t.Errorf("%d.String() = %q, want %q", alg, alg.String(), s)
		}
	}
	if _, err := Solve(Algorithm(42), randomProblem(rand.New(rand.NewSource(1)), 2, 2, 0.5)); err == nil {
		t.Error("unknown algorithm should error")
	} else if err.Error() == "" {
		t.Error("error should have a message")
	}
}

func TestRankAllSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	p := randomProblem(rng, 60, 40, 0.5)
	ranked, err := RankAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != len(p.Candidates) {
		t.Fatalf("ranked %d of %d candidates", len(ranked), len(p.Candidates))
	}
	seen := make(map[int]bool)
	for i, r := range ranked {
		if seen[r.Index] {
			t.Fatalf("candidate %d ranked twice", r.Index)
		}
		seen[r.Index] = true
		if i > 0 {
			prev := ranked[i-1]
			if r.Influence > prev.Influence {
				t.Fatalf("not sorted at %d", i)
			}
			if r.Influence == prev.Influence && r.Index < prev.Index {
				t.Fatalf("tie-break not by index at %d", i)
			}
		}
	}
	// Cross-check against NA.
	na, _ := NA(p)
	for _, r := range ranked {
		if na.Influences[r.Index] != r.Influence {
			t.Fatalf("ranked influence %d for cand %d, NA says %d",
				r.Influence, r.Index, na.Influences[r.Index])
		}
	}
}

func TestTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	p := randomProblem(rng, 50, 30, 0.5)
	top, err := TopK(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("TopK returned %d", len(top))
	}
	na, _ := NA(p)
	// Influence of each returned candidate must be >= every excluded one.
	minTop := na.Influences[top[len(top)-1]]
	included := make(map[int]bool)
	for _, c := range top {
		included[c] = true
	}
	for j, inf := range na.Influences {
		if !included[j] && inf > minTop {
			t.Fatalf("excluded candidate %d has influence %d > weakest included %d",
				j, inf, minTop)
		}
	}
	// Degenerate k values.
	if all, _ := TopK(p, 1000); len(all) != len(p.Candidates) {
		t.Errorf("k beyond m should return all, got %d", len(all))
	}
	if none, _ := TopK(p, -1); len(none) != 0 {
		t.Errorf("negative k should return none, got %d", len(none))
	}
}

func TestCumulativeProbMatchesDefinition(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	c := geo.Point{X: 0, Y: 0}
	pts := []geo.Point{{X: 1, Y: 0}, {X: 0, Y: 2}, {X: 3, Y: 4}}
	want := 1.0
	for _, p := range pts {
		want *= 1 - pf.Prob(c.Dist(p))
	}
	want = 1 - want
	var probes int64
	if got := CumulativeProb(pf, c, pts, &probes); math.Abs(got-want) > 1e-15 {
		t.Errorf("CumulativeProb = %v, want %v", got, want)
	}
	if probes != 3 {
		t.Errorf("probes = %d, want 3", probes)
	}
	if got := CumulativeProb(pf, c, nil, nil); got != 0 {
		t.Errorf("empty positions should give probability 0, got %v", got)
	}
}

// TestEarlyStopAgreesWithFull: Strategy 2 must decide exactly like the
// full computation for every pair.
func TestEarlyStopAgreesWithFull(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 2000; trial++ {
		tau := 0.05 + rng.Float64()*0.9
		n := 1 + rng.Intn(40)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: rng.NormFloat64() * 5, Y: rng.NormFloat64() * 5}
		}
		c := geo.Point{X: rng.NormFloat64() * 5, Y: rng.NormFloat64() * 5}
		var s1, s2 Stats
		full := influencedFull(pf, tau, c, pts, &s1)
		early := influencedEarlyStop(pf, tau, c, pts, &s2)
		if full != early {
			t.Fatalf("τ=%v n=%d: full=%v early=%v", tau, n, full, early)
		}
		if s2.PositionProbes > s1.PositionProbes {
			t.Fatalf("early stop probed more (%d) than full (%d)", s2.PositionProbes, s1.PositionProbes)
		}
	}
}

func TestEarlyStopSavesProbes(t *testing.T) {
	// All positions essentially at the candidate: the first probe
	// should decide for small tau.
	pf := probfn.DefaultPowerLaw()
	pts := make([]geo.Point, 100)
	var st Stats
	if !influencedEarlyStop(pf, 0.5, geo.Point{X: 0, Y: 0}, pts, &st) {
		t.Fatal("should be influenced")
	}
	if st.PositionProbes != 1 {
		t.Errorf("probes = %d, want 1", st.PositionProbes)
	}
	if st.EarlyStops != 1 {
		t.Errorf("earlyStops = %d, want 1", st.EarlyStops)
	}
}

func TestDistinctNRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	p := randomProblem(rng, 40, 10, 0.7)
	distinct := make(map[int]bool)
	for _, o := range p.Objects {
		distinct[o.N()] = true
	}
	res, _ := Pinocchio(p)
	if res.Stats.DistinctN != len(distinct) {
		t.Errorf("DistinctN = %d, want %d", res.Stats.DistinctN, len(distinct))
	}
}

// TestHighOverlapStress mirrors the paper's observation that activity
// regions overlap heavily: all objects share the same region, and the
// algorithms must still agree.
func TestHighOverlapStress(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	objects := make([]*object.Object, 80)
	for k := range objects {
		n := 5 + rng.Intn(20)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		}
		objects[k] = object.MustNew(k, pts)
	}
	cands := make([]geo.Point, 60)
	for j := range cands {
		cands[j] = geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	p := &Problem{Objects: objects, Candidates: cands, PF: probfn.DefaultPowerLaw(), Tau: 0.7}
	na, _ := NA(p)
	vo, _ := PinocchioVO(p)
	if na.BestInfluence != vo.BestInfluence {
		t.Fatalf("NA %d vs VO %d under total overlap", na.BestInfluence, vo.BestInfluence)
	}
}

// TestExtremeTaus exercises thresholds near the ends of (0,1) with
// every static entry point and the index built for τ alone, down to
// ones below the margin's reach, where the NIB radius bounds each
// PF(d_i) instead: by the union bound at 1e-7, and so that every
// factor 1 − PF rounds to 1 at 1e-16.
func TestExtremeTaus(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, tau := range []float64{0.001, 0.999, 1e-7, 1e-16} {
		p := randomProblem(rng, 40, 30, tau)
		checkSolversMatchNA(t, fmt.Sprintf("τ=%v", tau), p)
		ix, err := BuildIndex(p, tau, tau, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := indexInfluences(t, ix, len(p.Candidates), tau), naInfluences(t, p, tau); !reflect.DeepEqual(got, want) {
			t.Errorf("τ=%v: index %v, NA %v", tau, got, want)
		}
	}
}

func TestCandidatesCoincidingWithPositions(t *testing.T) {
	// Candidates exactly on object positions (distance zero) — the
	// strongest-influence corner case.
	o := object.MustNew(0, []geo.Point{{X: 1, Y: 1}, {X: 2, Y: 2}})
	p := &Problem{
		Objects:    []*object.Object{o},
		Candidates: []geo.Point{{X: 1, Y: 1}},
		PF:         probfn.DefaultPowerLaw(),
		Tau:        0.7,
	}
	for _, alg := range Algorithms() {
		res, err := Solve(alg, p)
		if err != nil {
			t.Fatal(err)
		}
		// PF(0) = 0.9 ≥ 0.7 on the first position alone.
		if res.BestInfluence != 1 {
			t.Errorf("%v: influence = %d, want 1", alg, res.BestInfluence)
		}
	}
}
