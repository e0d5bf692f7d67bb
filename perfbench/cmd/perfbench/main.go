// Command perfbench is the repository's benchmark runner. It boots the
// pinocchiod binary built from this checkout on generated inputs,
// drives one workload over loopback HTTP, checks every answer against
// an exact oracle, and prints the end-to-end metrics as the last line
// of standard output:
//
//	perfbench --workload paper-sweep --seed 1 --seconds 50 --trace 0
//
// With --trace 1 it builds and runs cmd/perftrace instead, which
// replays the same op stream in-process and reports per-layer metrics.
// perfbench itself imports no package of the program, so an internal
// rename can break only the traced run. See perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"

	"pinocchio/perfbench/load"
)

func main() {
	workload := flag.String("workload", "", "workload: "+fmt.Sprint(load.Workloads))
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	daemon := flag.String("daemon", "", "pinocchiod binary built from this checkout")
	build := flag.String("build", "", "directory for build outputs and run scratch, inside the checkout")
	shrink := flag.Float64("shrink", 1, "population factor; below 1 only for the benchmark's self-test")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *daemon, *build, *shrink); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, daemon, build string, shrink float64) error {
	if daemon == "" || build == "" {
		return fmt.Errorf("-daemon and -build are required (run perfbench/run.sh from the repository root)")
	}
	if _, err := load.SpecFor(workload, shrink); err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	switch trace {
	case 0:
	case 1:
		return traced(os.Args[1:], build)
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	work := filepath.Join(build, fmt.Sprintf("run-%s-%d-%d", workload, seed, os.Getpid()))
	cfg := load.Config{
		Workload: workload, Seed: seed, Seconds: seconds, Shrink: shrink,
		Daemon: daemon, WorkDir: work,
	}
	out, err := load.Run(cfg)
	if errors.Is(err, load.ErrGeneratorBehind) {
		// The host stalled the generator, so the window measured it
		// rather than the daemon: measure once more on a fresh daemon,
		// and fail if that window is no better.
		fmt.Fprintf(os.Stderr, "perfbench: discarding the window: %v\n", err)
		discarded := out.Report["generator"]
		if out, err = load.Run(cfg); out != nil {
			out.Report["discarded_window"] = discarded
		}
	}
	if out != nil {
		printReport(out.Report)
	}
	if err != nil {
		return err
	}
	os.RemoveAll(work)
	units := map[string]string{
		"setup_s": "s", "rss_peak_mb": "MB",
		"answer_p50_ms": "ms", "answer_tail_ms": "ms", "side_p50_ms": "ms",
	}
	return printResult(out.Correct, out.Attempted, out.Failed, out.Metrics, units)
}

// traced builds cmd/perftrace (it imports the program's internal
// packages) and runs it with the same arguments. The working directory
// is the repository root, as for the daemon.
func traced(args []string, build string) error {
	bin := filepath.Join(build, "perftrace")
	cmd := exec.Command("go", "-C", "perfbench", "build", "-o", bin, "./cmd/perftrace")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the traced run: %w", err)
	}
	cmd = exec.Command(bin, args...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	return cmd.Run()
}

// printReport writes the human-readable per-class report.
func printReport(r map[string]any) {
	b, _ := json.MarshalIndent(r, "", "  ")
	fmt.Printf("report %s\n", b)
}

// printResult writes the contract's last line.
func printResult(correct bool, attempted, failed int, metrics map[string]float64, units map[string]string) error {
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	ms := map[string]any{}
	for _, n := range names {
		v, ok := metrics[n]
		if !ok || !(v > 0) {
			return fmt.Errorf("metric %s has no value (%v): too few samples in the window", n, strconv.FormatFloat(v, 'g', -1, 64))
		}
		ms[n] = map[string]any{"value": v, "unit": units[n]}
	}
	if attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": ms})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
