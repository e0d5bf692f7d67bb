// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus the ablation benches called out in DESIGN.md.
//
// Each BenchmarkTableN/BenchmarkFigN times the workload that
// regenerates the corresponding artifact on the synthetic datasets at
// a reduced scale (the cmd/experiments binary reproduces them at any
// scale, including 1.0). The benches are therefore both a performance
// regression harness and executable documentation of each experiment's
// cost profile.
//
//	go test -bench=. -benchmem
package pinocchio_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"pinocchio/internal/core"
	"pinocchio/internal/dataset"
	"pinocchio/internal/dynamic"
	"pinocchio/internal/experiments"
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/obs"
	"pinocchio/internal/optimize"
	"pinocchio/internal/probfn"
)

// benchEnv is generated once: dataset construction is not part of any
// experiment's measured cost.
var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		env, err := experiments.NewEnv(0.05, 17)
		if err != nil {
			panic(err)
		}
		benchEnvVal = env
	})
	return benchEnvVal
}

// benchProblem returns a mid-size PRIME-LS instance reused by the
// solver and ablation benches.
var (
	benchProblemOnce sync.Once
	benchProblemVal  *core.Problem
)

func benchProblem(b *testing.B) *core.Problem {
	b.Helper()
	benchProblemOnce.Do(func() {
		env := benchEnv(b)
		cs, err := dataset.SampleCandidates(env.F, 100, rand.New(rand.NewSource(1234)))
		if err != nil {
			panic(err)
		}
		benchProblemVal = &core.Problem{
			Objects:    env.F.Objects,
			Candidates: cs.Points,
			PF:         probfn.DefaultPowerLaw(),
			Tau:        experiments.DefaultTau,
		}
	})
	return benchProblemVal
}

// BenchmarkTable3Precision regenerates the Table 3 / Table 4 content
// (P@K and AP@K of PRIME-LS vs Avg-RANGE vs BRNN*).
func BenchmarkTable3Precision(b *testing.B) {
	env := benchEnv(b)
	cfg := experiments.PrecisionConfig{
		Groups: 2, CandidatesPerGroup: 60,
		Ks: []int{10, 20, 30, 40, 50}, Tau: experiments.DefaultTau,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPrecision(env, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4AvgPrecision shares Table 3's workload (both tables
// come from one RunPrecision pass); it is kept as a named alias so
// every paper artifact has its regenerating bench.
func BenchmarkTable4AvgPrecision(b *testing.B) {
	BenchmarkTable3Precision(b)
}

// BenchmarkFig8Scalability times each solver at each candidate count
// of Fig. 8 as sub-benchmarks — the per-algorithm runtime series.
func BenchmarkFig8Scalability(b *testing.B) {
	env := benchEnv(b)
	cs, err := dataset.SampleCandidates(env.F, 200, rand.New(rand.NewSource(81)))
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{50, 100, 200} {
		p := &core.Problem{
			Objects:    env.F.Objects,
			Candidates: cs.Points[:m],
			PF:         probfn.DefaultPowerLaw(),
			Tau:        experiments.DefaultTau,
		}
		for _, alg := range core.Algorithms() {
			b.Run(alg.String()+"/m="+itoa(m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Solve(alg, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig9ObjectScalability times PIN-VO against NA over growing
// object counts (Fig. 9's sweep shape).
func BenchmarkFig9ObjectScalability(b *testing.B) {
	env := benchEnv(b)
	cs, err := dataset.SampleCandidates(env.G, 100, rand.New(rand.NewSource(91)))
	if err != nil {
		b.Fatal(err)
	}
	total := len(env.G.Objects)
	for _, frac := range []int{4, 2, 1} {
		r := total / frac
		objs, err := dataset.SampleObjects(env.G, r, rand.New(rand.NewSource(92)))
		if err != nil {
			b.Fatal(err)
		}
		p := &core.Problem{
			Objects:    objs,
			Candidates: cs.Points,
			PF:         probfn.DefaultPowerLaw(),
			Tau:        experiments.DefaultTau,
		}
		for _, alg := range []core.Algorithm{core.AlgNA, core.AlgPinocchioVO} {
			b.Run(alg.String()+"/r="+itoa(r), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Solve(alg, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig10Pruning times the pruning-effect measurement across
// the τ sweep.
func BenchmarkFig10Pruning(b *testing.B) {
	env := benchEnv(b)
	cfg := experiments.Fig10Config{Taus: []float64{0.1, 0.5, 0.9}, Candidates: 60}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig10(env, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11EffectOfN times the effect-of-n experiment (natural
// groups plus fixed-n instances).
func BenchmarkFig11EffectOfN(b *testing.B) {
	env := benchEnv(b)
	cfg := experiments.Fig11Config{
		Candidates: 60, Tau: experiments.DefaultTau,
		FixedNs: []int{5, 10}, IncludeNA: false,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig11(env, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12EffectOfTau times the τ sweep.
func BenchmarkFig12EffectOfTau(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig12(env, nil, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13LevelCurve times the ⟨n, τ⟩ level-curve tuning and
// polynomial fit.
func BenchmarkFig13LevelCurve(b *testing.B) {
	env := benchEnv(b)
	cfg := experiments.Fig13Config{
		Candidates: 40,
		FitNs:      []int{4, 8, 12}, ValidateNs: []int{6, 10},
		ReferenceN: 8, ReferenceTau: 0.6, Degree: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig13(env, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14EffectOfLambda times the power-law decay sweep.
func BenchmarkFig14EffectOfLambda(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig14(env, nil, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15EffectOfRho times the behavior-factor sweep.
func BenchmarkFig15EffectOfRho(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig15(env, nil, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16DifferentPFs times the alternative-PF comparison.
func BenchmarkFig16DifferentPFs(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig16(env, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolvers compares the four algorithms head to head on one
// fixed instance — the quick-look version of Fig. 8.
func BenchmarkSolvers(b *testing.B) {
	p := benchProblem(b)
	for _, alg := range core.Algorithms() {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(alg, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPruning isolates the two pruning rules (DESIGN.md
// ablation: IA-only vs NIB-only vs both vs none).
func BenchmarkAblationPruning(b *testing.B) {
	p := benchProblem(b)
	cases := []struct {
		name string
		ab   core.Ablation
	}{
		{"both", core.Ablation{}},
		{"ia-only", core.Ablation{DisableNIB: true}},
		{"nib-only", core.Ablation{DisableIA: true}},
		{"none", core.Ablation{DisableIA: true, DisableNIB: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PinocchioAblated(p, c.ab); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEarlyStop isolates Strategy 2.
func BenchmarkAblationEarlyStop(b *testing.B) {
	p := benchProblem(b)
	for _, c := range []struct {
		name string
		ab   core.Ablation
	}{
		{"early-stop", core.Ablation{}},
		{"full-product", core.Ablation{DisableEarlyStop: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PinocchioAblated(p, c.ab); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCandidateIndex isolates the R-tree against a
// linear candidate scan.
func BenchmarkAblationCandidateIndex(b *testing.B) {
	p := benchProblem(b)
	for _, c := range []struct {
		name string
		ab   core.Ablation
	}{
		{"rtree", core.Ablation{}},
		{"grid", core.Ablation{GridIndex: true}},
		{"linear-scan", core.Ablation{LinearScan: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PinocchioAblated(p, c.ab); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDatasetGenerate times the synthetic generator itself.
func BenchmarkDatasetGenerate(b *testing.B) {
	cfg := dataset.Scaled(dataset.FoursquareLike(), 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinMaxRadius times the measure at the center of the
// pruning rules.
func BenchmarkMinMaxRadius(b *testing.B) {
	pf := probfn.DefaultPowerLaw()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		object.MinMaxRadius(pf, 0.7, 1+i%200)
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

// BenchmarkDesignObjectTree measures the §4.3 design argument: the
// object-side hierarchical index against the flat A_2D scan that the
// paper chose.
func BenchmarkDesignObjectTree(b *testing.B) {
	p := benchProblem(b)
	b.Run("a2d-flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Pinocchio(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("object-rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.PinocchioObjectTree(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTopT measures the top-t certification against ranking all
// candidates exactly.
func BenchmarkTopT(b *testing.B) {
	p := benchProblem(b)
	for _, t := range []int{1, 5, 20} {
		b.Run("t="+itoa(t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.PinocchioVOTopT(p, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("rank-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RankAll(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObsOverhead guards the observability layer's zero-cost
// claim: PINOCCHIO with instrumentation off (nil span, metrics
// disabled) must stay within noise of the pre-instrumentation
// baseline, and the sub-benches show what tracing and metric
// recording actually cost when switched on.
func BenchmarkObsOverhead(b *testing.B) {
	p := benchProblem(b)
	b.Run("disabled", func(b *testing.B) {
		obs.Disable()
		p.Obs = nil
		for i := 0; i < b.N; i++ {
			if _, err := core.Pinocchio(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		obs.Disable()
		defer func() { p.Obs = nil }()
		for i := 0; i < b.N; i++ {
			p.Obs = obs.NewSpan("query")
			if _, err := core.Pinocchio(p); err != nil {
				b.Fatal(err)
			}
			p.Obs.End()
		}
	})
	b.Run("metrics", func(b *testing.B) {
		obs.Enable()
		defer obs.Disable()
		p.Obs = nil
		for i := 0; i < b.N; i++ {
			if _, err := core.Pinocchio(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallel measures the data-parallel solver's scaling.
func BenchmarkParallel(b *testing.B) {
	p := benchProblem(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("workers="+itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PinocchioParallel(p, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDynamicEngine measures one incremental position update on a
// live instance against the full recompute it replaces.
func BenchmarkDynamicEngine(b *testing.B) {
	env := benchEnv(b)
	cs, err := dataset.SampleCandidates(env.F, 100, rand.New(rand.NewSource(171)))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := dynamic.New(probfn.DefaultPowerLaw(), experiments.DefaultTau)
	if err != nil {
		b.Fatal(err)
	}
	for _, pt := range cs.Points {
		eng.AddCandidate(pt)
	}
	for _, o := range env.F.Objects {
		if err := eng.AddObject(o.ID, o.Positions); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(173))
	b.Run("incremental-add-position", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := env.F.Objects[rng.Intn(len(env.F.Objects))]
			if err := eng.AddPosition(o.ID, o.Positions[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		p := benchProblem(b)
		for i := 0; i < b.N; i++ {
			if _, err := core.PinocchioVO(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSeed times the daemon's fresh-boot seed as paper-sweep
// boots it: dynamic.Seed over the Foursquare ×1 population with 600
// sampled candidates into two shard engines, at the daemon's default
// PF and τ 0.7. Run with -cpu 1,2: at one CPU the shards seed in turn,
// at two side by side.
func BenchmarkSeed(b *testing.B) {
	ds, err := dataset.Generate(dataset.FoursquareLike())
	if err != nil {
		b.Fatal(err)
	}
	cs, err := dataset.SampleCandidates(ds, 600, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	pf := probfn.DefaultPowerLaw()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engines := make([]*dynamic.Engine, 2)
		for k := range engines {
			if engines[k], err = dynamic.New(pf, 0.7); err != nil {
				b.Fatal(err)
			}
		}
		if err := dynamic.Seed(engines, ds.Objects, cs.Points); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadCSV times loading the Foursquare ×1 check-in log from a
// CSV file, the daemon's -data path.
func BenchmarkReadCSV(b *testing.B) {
	ds, err := dataset.Generate(dataset.FoursquareLike())
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "foursquare.csv")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	src := dataset.Source{Path: path}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Load(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize times candidate-free placement as the daemon's
// optimize route runs it for the paper-sweep analyst: Foursquare ×1,
// τ 0.7, max_refine 200, bounded to each cell of a 4×3 grid over the
// frame. One op places in all twelve cells. Run with -cpu 1,2: at one
// CPU it shows the refinement's per-object tests alone, at two the
// split cover scans on top.
func BenchmarkOptimize(b *testing.B) {
	ds, err := dataset.Generate(dataset.FoursquareLike())
	if err != nil {
		b.Fatal(err)
	}
	pf := probfn.DefaultPowerLaw()
	rects := optimize.CollectRects(ds.Objects, pf, 0.7)
	w, h := ds.Extent.Width()/4, ds.Extent.Height()/3
	var cells []geo.Rect
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			lo := geo.Point{X: ds.Extent.Min.X + float64(i)*w, Y: ds.Extent.Min.Y + float64(j)*h}
			cells = append(cells, geo.Rect{Min: lo, Max: geo.Point{X: lo.X + w, Y: lo.Y + h}})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cells {
			if _, err := optimize.Optimize(&optimize.Problem{
				Rects: rects, PF: pf, Tau: 0.7, Bounds: &cells[j], MaxRefine: 200,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
