package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pinocchio/internal/dataset"
)

// testOptions serves a small generated workload on an ephemeral port.
func testOptions() options {
	return options{
		addr:       "127.0.0.1:0",
		source:     dataset.Source{Scale: 0.05},
		candidates: 50,
		seed:       1,
		pfName:     "powerlaw",
		rho:        0.9,
		lambda:     1.0,
		tau:        0.7,
		maxTimeout: 10 * time.Second,
	}
}

// startDaemon boots run() with opts and returns the bound address plus
// a stop function that shuts it down gracefully and fails the test if
// run returns an error.
func startDaemon(t *testing.T, opts options) (string, func()) {
	t.Helper()
	opts.addrFile = filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, opts) }()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("daemon did not write the addr file in time")
		}
		if b, err := os.ReadFile(opts.addrFile); err == nil && len(b) > 0 {
			addr := strings.TrimSpace(string(b))
			return addr, func() {
				cancel()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("run: %v", err)
					}
				case <-time.After(15 * time.Second):
					t.Fatal("daemon did not shut down in time")
				}
			}
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// fetchJSON sends body (GET when empty) to url, requires 200 and
// decodes the response into out.
func fetchJSON(t *testing.T, url, body string, out any) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d", url, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
}

// TestRunServesAndShutsDown boots the daemon on an ephemeral port,
// exercises a health check and one query over real HTTP, and then
// checks that cancelling the context shuts it down cleanly.
func TestRunServesAndShutsDown(t *testing.T) {
	addr, stop := startDaemon(t, testOptions())
	defer stop()
	base := "http://" + addr
	fetchJSON(t, base+"/healthz", "", nil)
	fetchJSON(t, base+"/v1/query", `{"tau":0.7,"algorithm":"pin-vo"}`, nil)
	fetchJSON(t, base+"/metrics", "", nil)
}

// TestRunDurableRestart boots the daemon with a data directory,
// mutates it, restarts on the same directory, and checks the mutated
// state survived without re-reading the dataset.
func TestRunDurableRestart(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "state")

	opts := testOptions()
	opts.dataDir = dataDir
	opts.fsync = "off"
	opts.checkpointEvery = -1
	addr, stop := startDaemon(t, opts)
	base := "http://" + addr
	resp, err := http.Post(base+"/v1/objects", "application/json",
		strings.NewReader(`{"id":987654,"positions":[{"x":0.5,"y":0.5}]}`))
	if err != nil {
		t.Fatalf("add object: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add object: %d", resp.StatusCode)
	}
	stop()

	addr, stop = startDaemon(t, opts)
	defer stop()
	base = "http://" + addr
	// Re-adding the same object must now conflict: the first add was
	// recovered from disk.
	resp, err = http.Post(base+"/v1/objects", "application/json",
		strings.NewReader(`{"id":987654,"positions":[{"x":0.5,"y":0.5}]}`))
	if err != nil {
		t.Fatalf("re-add object: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-add object after restart: %d, want 409", resp.StatusCode)
	}
}

// TestRunRejectsBadConfig checks that configuration errors surface
// before the daemon binds a port.
func TestRunRejectsBadConfig(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, options{pfName: "frobnicate"}); err == nil {
		t.Fatal("bad PF name should fail")
	}
	if err := run(ctx, options{pfName: "powerlaw", rho: 0.9, lambda: 1,
		source: dataset.Source{Preset: "mars"}}); err == nil {
		t.Fatal("bad preset should fail")
	}
	opts := testOptions()
	opts.planCacheSize = -1
	// Cancelled first, so run returns at once should the value ever
	// slip through validation.
	cancel()
	if err := run(ctx, opts); err == nil || !strings.Contains(err.Error(), "-plan-cache") {
		t.Fatalf("-plan-cache -1: err = %v, want a -plan-cache error", err)
	}
}
