// Command pinocchio runs one PRIME-LS query over a check-in dataset:
// it samples (or loads) candidate locations and reports the optimal
// location together with work statistics.
//
// Usage:
//
//	pinocchio -data checkins.csv -candidates 600 -tau 0.7 -algo pin-vo -topk 10
//
// Observability: -json emits the result as one JSON object, -trace
// writes the query's span tree, and -obs-addr serves /metrics,
// /debug/vars and /debug/pprof/ while the query runs (the process
// then stays up until interrupted so the endpoints can be scraped).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pinocchio/internal/core"
	"pinocchio/internal/dataset"
	"pinocchio/internal/obs"
	"pinocchio/internal/optimize"
	"pinocchio/internal/probfn"
)

// options collects everything run needs, so tests can call it without
// going through flag parsing.
type options struct {
	source     dataset.Source
	candidates int
	tau        float64
	rho        float64
	lambda     float64
	algo       string
	workers    int
	topK       int
	seed       int64
	jsonOut    bool
	explain    bool
	tracePath  string
	out        io.Writer // defaults to os.Stdout

	// optimize switches to candidate-free placement: instead of
	// ranking sampled candidates, sweep the influence rectangles and
	// branch-and-bound to the best point anywhere in the plane.
	optimize  bool
	maxRefine int
}

func main() {
	var opts options
	flag.StringVar(&opts.source.Path, "data", "", "check-in CSV (from datagen); empty generates the preset")
	flag.StringVar(&opts.source.Preset, "preset", "foursquare", "synthetic preset: foursquare or gowalla")
	flag.Float64Var(&opts.source.Scale, "scale", 0.2, "synthetic dataset size factor in (0, 1]")
	flag.Int64Var(&opts.source.SeedOffset, "data-seed", 0, "seed offset added to the preset seed")
	flag.IntVar(&opts.candidates, "candidates", 600, "number of candidate locations sampled from venues")
	flag.Float64Var(&opts.tau, "tau", 0.7, "influence probability threshold in (0,1)")
	flag.Float64Var(&opts.rho, "rho", 0.9, "power-law PF behavior factor")
	flag.Float64Var(&opts.lambda, "lambda", 1.0, "power-law PF decay factor")
	flag.StringVar(&opts.algo, "algo", "pin-vo", "algorithm: na, pin, pin-vo, pin-vo*, pin-par")
	flag.IntVar(&opts.workers, "workers", 0, "worker count for pin-par (0 = GOMAXPROCS)")
	flag.IntVar(&opts.topK, "topk", 0, "also report the top-K most influential candidates (uses PIN)")
	flag.Int64Var(&opts.seed, "seed", 1, "candidate sampling seed")
	flag.BoolVar(&opts.jsonOut, "json", false, "print the result as a single JSON object")
	flag.BoolVar(&opts.optimize, "optimize", false, "candidate-free placement: find the best point anywhere (ignores -candidates/-algo)")
	flag.IntVar(&opts.maxRefine, "max-refine", 0, "optimize refinement budget in cell expansions (0 = default, negative = sweep bound only)")
	flag.BoolVar(&opts.explain, "explain", false, "report EXPLAIN accounting: per-rule prune breakdown and per-candidate verdicts")
	flag.StringVar(&opts.tracePath, "trace", "", "write the query's span tree as JSON to this file")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	srv, err := obsFlags.Setup(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pinocchio:", err)
		os.Exit(1)
	}

	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "pinocchio:", err)
		os.Exit(1)
	}

	if srv != nil {
		slog.Info("query done; serving observability endpoints until interrupted",
			"addr", srv.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		srv.Close()
	}
}

// jsonOutput is the -json shape: the winner, the full influence list
// when the algorithm computes one, the work counters and the phase
// breakdown from the query's span tree.
type jsonOutput struct {
	Dataset       string             `json:"dataset"`
	Objects       int                `json:"objects"`
	Venues        int                `json:"venues"`
	CheckIns      int                `json:"check_ins"`
	Algorithm     string             `json:"algorithm"`
	Candidates    int                `json:"candidates"`
	Tau           float64            `json:"tau"`
	Seed          int64              `json:"seed"`
	BestIndex     int                `json:"best_index"`
	BestX         float64            `json:"best_x"`
	BestY         float64            `json:"best_y"`
	BestInfluence int                `json:"best_influence"`
	ElapsedMs     float64            `json:"elapsed_ms"`
	PhasesMs      map[string]float64 `json:"phases_ms,omitempty"`
	Stats         core.Stats         `json:"stats"`
	PruneRatio    float64            `json:"prune_ratio"`
	Influences    []int              `json:"influences,omitempty"`
	TopK          []jsonRanked       `json:"top_k,omitempty"`
	// Cost, Verdicts and VerdictCounts are present only with -explain.
	Cost          *core.Cost         `json:"cost,omitempty"`
	Verdicts      []core.CandVerdict `json:"verdicts,omitempty"`
	VerdictCounts map[string]int     `json:"verdict_counts,omitempty"`
}

// jsonRanked is one -topk row in the JSON output.
type jsonRanked struct {
	Index     int     `json:"index"`
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	Influence int     `json:"influence"`
	Truth     int     `json:"truth"`
}

func run(opts options) error {
	out := opts.out
	if out == nil {
		out = os.Stdout
	}
	ds, err := opts.source.Load()
	if err != nil {
		return err
	}
	slog.Debug("dataset loaded", "name", ds.Name,
		"objects", len(ds.Objects), "venues", len(ds.Venues))
	if !opts.jsonOut {
		fmt.Fprintf(out, "dataset %s: %d objects, %d venues, %d check-ins\n",
			ds.Name, len(ds.Objects), len(ds.Venues), ds.TotalCheckIns())
	}

	if opts.optimize {
		return runOptimize(opts, out, ds)
	}

	m := opts.candidates
	if m > len(ds.Venues) {
		m = len(ds.Venues)
	}
	cs, err := dataset.SampleCandidates(ds, m, rand.New(rand.NewSource(opts.seed)))
	if err != nil {
		return err
	}
	pf, err := probfn.NewPowerLaw(opts.rho, 1.0, opts.lambda)
	if err != nil {
		return err
	}
	root := obs.NewSpan("query")
	p := &core.Problem{Objects: ds.Objects, Candidates: cs.Points, PF: pf, Tau: opts.tau, Obs: root}
	if opts.explain {
		p.Cost = &core.Cost{}
		p.Cost.EnableVerdicts(len(cs.Points))
	}

	solve := func() (*core.Result, error) { return nil, fmt.Errorf("unknown algorithm %q", opts.algo) }
	switch opts.algo {
	case "na":
		solve = func() (*core.Result, error) { return core.Solve(core.AlgNA, p) }
	case "pin":
		solve = func() (*core.Result, error) { return core.Solve(core.AlgPinocchio, p) }
	case "pin-vo":
		solve = func() (*core.Result, error) { return core.Solve(core.AlgPinocchioVO, p) }
	case "pin-vo*":
		solve = func() (*core.Result, error) { return core.Solve(core.AlgPinocchioVOStar, p) }
	case "pin-par":
		solve = func() (*core.Result, error) { return core.PinocchioParallel(p, opts.workers) }
	}

	start := time.Now()
	res, err := solve()
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	root.End()
	cost := p.Cost

	var ranked []core.Ranked
	if opts.topK > 0 {
		p.Obs = nil  // keep the ranking pass out of the query's span tree
		p.Cost = nil // ... and out of the query's cost ledger
		ranked, err = core.RankAll(p)
		if err != nil {
			return err
		}
		if opts.topK > len(ranked) {
			opts.topK = len(ranked)
		}
		ranked = ranked[:opts.topK]
	}

	if opts.tracePath != "" {
		data, err := json.MarshalIndent(root, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.tracePath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		slog.Info("trace written", "path", opts.tracePath)
	}

	if opts.jsonOut {
		best := cs.Points[res.BestIndex]
		jo := jsonOutput{
			Dataset:       ds.Name,
			Objects:       len(ds.Objects),
			Venues:        len(ds.Venues),
			CheckIns:      ds.TotalCheckIns(),
			Algorithm:     opts.algo,
			Candidates:    len(cs.Points),
			Tau:           opts.tau,
			Seed:          opts.seed,
			BestIndex:     res.BestIndex,
			BestX:         best.X,
			BestY:         best.Y,
			BestInfluence: res.BestInfluence,
			ElapsedMs:     float64(elapsed) / float64(time.Millisecond),
			PhasesMs:      obs.PhaseMillis(root),
			Stats:         res.Stats,
			PruneRatio:    res.Stats.PruneRatio(),
			Influences:    res.Influences,
		}
		if cost != nil {
			jo.Cost = cost
			jo.Verdicts = cost.Verdicts()
			jo.VerdictCounts = cost.VerdictCounts()
		}
		for _, r := range ranked {
			pt := cs.Points[r.Index]
			jo.TopK = append(jo.TopK, jsonRanked{
				Index: r.Index, X: pt.X, Y: pt.Y,
				Influence: r.Influence, Truth: cs.Truth[r.Index],
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(jo)
	}

	best := cs.Points[res.BestIndex]
	fmt.Fprintf(out, "%s selected candidate #%d at (%.3f, %.3f) km\n", opts.algo, res.BestIndex, best.X, best.Y)
	fmt.Fprintf(out, "  influence: %d of %d objects (%.1f%%)\n",
		res.BestInfluence, len(ds.Objects), 100*float64(res.BestInfluence)/float64(len(ds.Objects)))
	fmt.Fprintf(out, "  elapsed: %v\n", elapsed)
	fmt.Fprintf(out, "  %v (pruned %.1f%% of pairs)\n", res.Stats, 100*res.Stats.PruneRatio())
	if cost != nil {
		printExplain(out, cost)
	}

	if len(ranked) > 0 {
		fmt.Fprintf(out, "top-%d candidates by influence:\n", len(ranked))
		for i, r := range ranked {
			pt := cs.Points[r.Index]
			fmt.Fprintf(out, "  %2d. #%d at (%.3f, %.3f): inf=%d, ground-truth visitors=%d\n",
				i+1, r.Index, pt.X, pt.Y, r.Influence, cs.Truth[r.Index])
		}
	}
	return nil
}

// optimizeOutput is the -optimize -json shape.
type optimizeOutput struct {
	Dataset       string             `json:"dataset"`
	Objects       int                `json:"objects"`
	Tau           float64            `json:"tau"`
	BestX         float64            `json:"best_x"`
	BestY         float64            `json:"best_y"`
	BestInfluence int                `json:"best_influence"`
	UpperBound    int                `json:"upper_bound"`
	Gap           int                `json:"gap"`
	Resolved      bool               `json:"resolved"`
	SweepMax      int                `json:"sweep_max"`
	IAMax         int                `json:"ia_max"`
	Regions       []optimize.Region  `json:"regions,omitempty"`
	ElapsedMs     float64            `json:"elapsed_ms"`
	PhasesMs      map[string]float64 `json:"phases_ms,omitempty"`
	Cost          *optimize.Cost     `json:"cost,omitempty"`
}

// runOptimize is the -optimize mode: candidate-free placement over
// the loaded dataset.
func runOptimize(opts options, out io.Writer, ds *dataset.Dataset) error {
	pf, err := probfn.NewPowerLaw(opts.rho, 1.0, opts.lambda)
	if err != nil {
		return err
	}
	root := obs.NewSpan("optimize")
	cost := &optimize.Cost{}
	start := time.Now()
	res, err := optimize.Optimize(&optimize.Problem{
		Objects:   ds.Objects,
		PF:        pf,
		Tau:       opts.tau,
		MaxRefine: opts.maxRefine,
		Obs:       root,
		Cost:      cost,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	root.End()

	if opts.tracePath != "" {
		data, err := json.MarshalIndent(root, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.tracePath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		slog.Info("trace written", "path", opts.tracePath)
	}

	if opts.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(optimizeOutput{
			Dataset:       ds.Name,
			Objects:       len(ds.Objects),
			Tau:           opts.tau,
			BestX:         res.BestPoint.X,
			BestY:         res.BestPoint.Y,
			BestInfluence: res.BestInfluence,
			UpperBound:    res.UpperBound,
			Gap:           res.Gap,
			Resolved:      res.Resolved,
			SweepMax:      res.SweepMax,
			IAMax:         res.IAMax,
			Regions:       res.Regions,
			ElapsedMs:     float64(elapsed) / float64(time.Millisecond),
			PhasesMs:      obs.PhaseMillis(root),
			Cost:          cost,
		})
	}

	fmt.Fprintf(out, "optimize placed the facility at (%.3f, %.3f) km\n", res.BestPoint.X, res.BestPoint.Y)
	fmt.Fprintf(out, "  influence: %d of %d objects (%.1f%%)\n",
		res.BestInfluence, len(ds.Objects), 100*float64(res.BestInfluence)/float64(len(ds.Objects)))
	if res.Resolved {
		fmt.Fprintf(out, "  proven optimal (sweep bound %d, IA floor %d)\n", res.SweepMax, res.IAMax)
	} else {
		fmt.Fprintf(out, "  bound gap %d (upper bound %d) — raise -max-refine to close it\n",
			res.Gap, res.UpperBound)
	}
	fmt.Fprintf(out, "  elapsed: %v\n", elapsed)
	fmt.Fprintf(out, "  work: %d rects swept (%d events), %d cells refined, %d exact solves, pair work %d\n",
		cost.SweptRects, cost.SweepEvents, cost.RefineCells, cost.RefineSolves, cost.PairWork())
	for i, rg := range res.Regions {
		if i >= 3 {
			break
		}
		fmt.Fprintf(out, "  region %d: ub=%d x[%.3f, %.3f] y[%.3f, %.3f]\n", i+1, rg.Count,
			rg.Rect.Min.X, rg.Rect.Max.X, rg.Rect.Min.Y, rg.Rect.Max.Y)
	}
	return nil
}

// printExplain renders the -explain accounting: a per-rule prune
// breakdown, where the surviving pairs went, the index work, and the
// per-candidate verdict tally.
func printExplain(out io.Writer, c *core.Cost) {
	pct := func(n int64) float64 {
		if c.PairsTotal == 0 {
			return 0
		}
		return 100 * float64(n) / float64(c.PairsTotal)
	}
	fmt.Fprintf(out, "explain: %d object-candidate pairs\n", c.PairsTotal)
	fmt.Fprintf(out, "  pruned by rule:   ia=%d (%.1f%%)  nib-box=%d (%.1f%%)  nib-arc=%d (%.1f%%)\n",
		c.PrunedIA, pct(c.PrunedIA), c.PrunedNIBBox, pct(c.PrunedNIBBox), c.PrunedNIBArc, pct(c.PrunedNIBArc))
	fmt.Fprintf(out, "  validated:        live=%d (%.1f%%)  skipped-by-bounds=%d (%.1f%%)\n",
		c.ValidatedLive, pct(c.ValidatedLive), c.SkippedByBounds, pct(c.SkippedByBounds))
	fmt.Fprintf(out, "  index work:       rtree-nodes=%d  grid-cells=%d  position-probes=%d\n",
		c.RTreeNodeVisits, c.GridCellsScanned, c.PositionProbes)
	if vc := c.VerdictCounts(); len(vc) > 0 {
		fmt.Fprintf(out, "  candidate verdicts:")
		for _, v := range []string{core.VerdictWinner, core.VerdictValidated, core.VerdictSkipped, core.VerdictPruned} {
			if n, ok := vc[v]; ok {
				fmt.Fprintf(out, " %s=%d", v, n)
			}
		}
		fmt.Fprintln(out)
	}
}
