package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Daemon is one pinocchiod child process. The benchmark passes it only
// input and deployment flags, so every tuning default (shards, caches,
// fsync policy, admission) is the program's own.
type Daemon struct {
	cmd     *exec.Cmd
	Addr    string
	SetupS  float64 // exec to the first 200 from /healthz
	dataDir string
	logPath string
	waitErr chan error
}

// DaemonConfig names the daemon's inputs.
type DaemonConfig struct {
	Binary     string
	CSV        string
	Candidates int
	Seed       int64
	DataDir    string // empty serves in memory
	WorkDir    string // holds the address file and the daemon's log
}

// StartDaemon execs the daemon and waits until /healthz answers 200.
// A durable daemon gets a fresh, empty data directory.
func StartDaemon(cfg DaemonConfig) (*Daemon, error) {
	addrFile := filepath.Join(cfg.WorkDir, "addr")
	_ = os.Remove(addrFile)
	if cfg.DataDir != "" {
		if err := os.RemoveAll(cfg.DataDir); err != nil {
			return nil, err
		}
	}
	logPath := filepath.Join(cfg.WorkDir, "daemon.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := []string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-data", cfg.CSV,
		"-candidates", strconv.Itoa(cfg.Candidates),
		"-seed", strconv.FormatInt(cfg.Seed, 10),
	}
	if cfg.DataDir != "" {
		args = append(args, "-data-dir", cfg.DataDir)
	}
	cmd := exec.Command(cfg.Binary, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	d := &Daemon{cmd: cmd, dataDir: cfg.DataDir, logPath: logPath, waitErr: make(chan error, 1)}
	go func() { d.waitErr <- cmd.Wait() }()

	deadline := time.Now().Add(120 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-d.waitErr:
			d.waitErr <- err
			return nil, fmt.Errorf("daemon exited during start-up (%v): %s", err, d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			d.Stop()
			return nil, fmt.Errorf("daemon not healthy after 120s: %s", d.logTail())
		}
		if d.Addr == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.Addr = strings.TrimSpace(string(b))
			}
		}
		if d.Addr != "" {
			if resp, err := client.Get("http://" + d.Addr + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.SetupS = time.Since(start).Seconds()
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// PeakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *Daemon) PeakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// Stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it has not exited within 30 seconds.
func (d *Daemon) Stop() error {
	if d == nil || d.cmd.Process == nil {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.waitErr:
		d.waitErr <- err
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		err := <-d.waitErr
		d.waitErr <- err
		return fmt.Errorf("daemon ignored SIGTERM for 30s")
	}
}

func (d *Daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// Client is an HTTP client bound to one keep-alive connection.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client that never opens more than one connection
// to the daemon.
func NewClient(addr string, timeout time.Duration) *Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &Client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: timeout}}
}

// Close drops the client's idle connection.
func (c *Client) Close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// Do sends one request and decodes a 2xx JSON body into out. A non-2xx
// status is returned as an *HTTPError.
func (c *Client) Do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &HTTPError{Status: resp.StatusCode, Body: strings.TrimSpace(string(b))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// HTTPError is a non-2xx answer.
type HTTPError struct {
	Status int
	Body   string
}

func (e *HTTPError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Status, e.Body) }
