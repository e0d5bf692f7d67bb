// Command experiments regenerates the paper's evaluation: every table
// and figure of §6 on the synthetic Foursquare/Gowalla stand-ins.
//
// Usage:
//
//	experiments -scale 1.0 -seed 2                 # full suite
//	experiments -scale 0.2 -only fig8,fig10        # subset, faster
//
// At scale 1.0 the NA baselines dominate the runtime (that is the
// point of Fig. 8); use a smaller scale for a quick look.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pinocchio/internal/experiments"
	"pinocchio/internal/obs"
)

func main() {
	var (
		scale = flag.Float64("scale", 0.2, "dataset size factor in (0, 1]")
		seed  = flag.Int64("seed", 2, "environment seed")
		only  = flag.String("only", "", "comma-separated subset: precision,fig8,...,fig16 (default all)")
	)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	srv, err := obsFlags.Setup(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if srv != nil {
		defer srv.Close()
	}

	if err := run(*scale, *seed, *only); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(scale float64, seed int64, only string) error {
	env, err := experiments.NewEnv(scale, seed)
	if err != nil {
		return err
	}
	cfg := experiments.AllExperiments()
	if only != "" {
		cfg = experiments.SuiteConfig{}
		for _, name := range strings.Split(only, ",") {
			switch strings.TrimSpace(strings.ToLower(name)) {
			case "precision", "table3", "table4":
				cfg.Precision = true
			case "fig7":
				cfg.Fig7 = true
			case "fig8":
				cfg.Fig8 = true
			case "fig9":
				cfg.Fig9 = true
			case "fig10":
				cfg.Fig10 = true
			case "fig11":
				cfg.Fig11 = true
			case "fig12":
				cfg.Fig12 = true
			case "fig13":
				cfg.Fig13 = true
			case "fig14":
				cfg.Fig14 = true
			case "fig15":
				cfg.Fig15 = true
			case "fig16":
				cfg.Fig16 = true
			case "dynamic":
				cfg.Dynamic = true
			default:
				return fmt.Errorf("unknown experiment %q", name)
			}
		}
	}
	return experiments.RunSuite(env, cfg, os.Stdout)
}
