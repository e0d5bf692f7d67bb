package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pinocchio/perfbench/load"
)

// TestOutputNamesEveryMetric runs every workload, listed or not, for a
// few seconds on a tiny population, end to end and traced, and checks
// that the last line of standard output is the result object the
// benchmark contract asks for, naming every metric of BENCHMARK.json
// with its unit.
func TestOutputNamesEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon and runs each workload")
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(load.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench knows %v", len(spec.Workloads), load.Workloads)
	}

	dir := t.TempDir()
	daemon := filepath.Join(dir, "pinocchiod")
	bench := filepath.Join(dir, "perfbench")
	for _, c := range [][]string{
		{"build", "-o", daemon, "pinocchio/cmd/pinocchiod"},
		{"build", "-o", bench, "."},
	} {
		if out, err := exec.Command("go", c...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", c, err, out)
		}
	}
	names := append([]string(nil), load.Unlisted...)
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(bench, "--workload", name, "--seed", "7", "--seconds", "4", "--trace", trace,
					"-daemon", daemon, "-build", dir, "-shrink", "0.25")
				// The traced run builds cmd/perftrace relative to the
				// repository root, as perfbench/run.sh runs it.
				cmd.Dir = "../../.."
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if res.Correct == nil || res.Attempted == nil || res.Failed == nil || res.Metrics == nil {
					t.Fatalf("result lacks a key: %s", lines[len(lines)-1])
				}
				if !*res.Correct || *res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d", *res.Correct, *res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && !(*got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, *got.Value)
					}
				}
			})
		}
	}
}
