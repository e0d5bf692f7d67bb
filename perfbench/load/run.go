package load

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Config describes one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64
	// Shrink multiplies the workload's population (1 for the benchmark;
	// the self-test runs tiny populations).
	Shrink  float64
	Daemon  string // pinocchiod binary
	WorkDir string // scratch directory for inputs, logs and data dirs
}

// sample is one finished request.
type sample struct {
	op    *Op
	idx   int           // the op's index in the stream
	sched time.Duration // due time (open loop) or send time (closed loop)
	taken time.Duration // when a connection was free to send it
	sent  time.Duration
	done  time.Duration
	err   error
	query *queryResp
	optim *optimizeResp
	write *writeResp
}

func (s *sample) ok() bool { return s.err == nil }

func (s *sample) latencyMS() float64 { return float64(s.done-s.sched) / float64(time.Millisecond) }

type queryResp struct {
	Best   Ranked   `json:"best"`
	TopK   []Ranked `json:"top_k"`
	Epoch  int64    `json:"epoch"`
	Cached bool     `json:"cached"`
}

type optimizeResp struct {
	Best          Point `json:"best"`
	BestInfluence int   `json:"best_influence"`
	UpperBound    int   `json:"upper_bound"`
}

type writeResp struct {
	Epoch int64 `json:"epoch"`
}

// event is one SSE delivery of the followed subscription.
type event struct {
	at      time.Duration
	Version uint64   `json:"version"`
	Epoch   int64    `json:"epoch"`
	TopK    []Ranked `json:"top_k"`
}

// Outcome is everything a run measured.
type Outcome struct {
	Spec      Spec
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Report    map[string]any
	// Status and Metrics text read from the daemon before and after the
	// timed window, for the traced run's layer counters.
	StatusBefore, StatusAfter map[string]any
	PromBefore, PromAfter     string
	// ClassP50MS is each op class's end-to-end median; OpLatencyMS is
	// each answered op's end-to-end latency, by index in Ops.
	ClassP50MS  map[string]float64
	OpLatencyMS map[int]float64
	// Writes and Positions count acknowledged writes and the positions
	// they appended; ResultHits and Answered count answered queries and
	// those the daemon marked as served from its result cache.
	Writes, Positions    int
	ResultHits, Answered int
	// Dataset, candidates and the op stream, for the traced replay.
	Dataset *Dataset
	Cands   []Point
	Ops     []Op
	Subs    []SubQuery
}

// Run performs one measured run of cfg.Workload against a fresh daemon.
func Run(cfg Config) (*Outcome, error) {
	spec, err := SpecFor(cfg.Workload, cfg.Shrink)
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.Seconds * float64(time.Second))
	out := &Outcome{Spec: spec, Correct: true, Metrics: map[string]float64{}}
	out.Dataset = GenerateFoursquareLike(spec.Scale, populationSeed)
	d, setups, dataDir, err := boot(cfg, spec, out.Dataset)
	if err != nil {
		return nil, err
	}
	defer d.Stop()
	out.Metrics["setup_s"] = Median(setups)

	ctl := NewClient(d.Addr, 60*time.Second)
	defer ctl.Close()
	ctx := context.Background()
	if err := ctl.Do(ctx, "GET", "/v1/status", nil, &out.StatusBefore); err != nil {
		return nil, err
	}
	if out.Cands, err = readCandidates(ctl, int(Num(out.StatusBefore, "candidates"))); err != nil {
		return nil, err
	}
	host := hostFacts(cfg, out.StatusBefore, dataDir)
	shards := int(Num(out.StatusBefore, "shards", "count"))
	routeOK := shards > 0 && routeMatches(out.Dataset, shards, out.StatusBefore)
	host["routing_verified"] = routeOK
	out.PromBefore, _ = scrape(ctl)

	// The timed window.
	steal0, total0 := hostCPU()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	ds := out.Dataset
	var samples []*sample
	var events []event
	var subIDs []string
	switch spec.Name {
	case PaperSweep:
		out.Ops = paperSweepOps(rng, ds.Width, ds.Height, spec.Rounds)
		samples = closedLoop(d.Addr, out.Ops, window)
	case ServeMixed:
		out.Ops = serveMixedOps(rng, ds, spec.Rate, window)
		samples = openLoop(d.Addr, out.Ops, 2, time.Now())
	case Monitor:
		out.Subs = subscriptions(rng, out.Cands, ds.Width, ds.Height)
		for _, q := range out.Subs {
			var r struct {
				Subscription string `json:"subscription"`
			}
			if err := ctl.Do(ctx, "POST", "/v1/subscribe", q, &r); err != nil {
				return nil, fmt.Errorf("subscribing: %w", err)
			}
			subIDs = append(subIDs, r.Subscription)
		}
		out.Ops = monitorOps(rng, ds, spec.Rate, window)
		if samples, events, err = monitorLoop(d.Addr, subIDs[0], out.Ops); err != nil {
			return nil, err
		}
	}
	if steal1, total1 := hostCPU(); total1 > total0 {
		host["steal_share"] = (steal1 - steal0) / (total1 - total0)
	}
	if out.Metrics["rss_peak_mb"], err = d.PeakRSSMB(); err != nil {
		return nil, err
	}
	if err := ctl.Do(ctx, "GET", "/v1/status", nil, &out.StatusAfter); err != nil {
		return nil, err
	}
	out.PromAfter, _ = scrape(ctl)

	// Answer checks, after the window.
	var wrong []string
	fail := func(format string, args ...any) {
		if len(wrong) < 5 {
			wrong = append(wrong, fmt.Sprintf(format, args...))
		}
	}
	var checks map[string]any
	if spec.Name == PaperSweep {
		checks = checkPaperSweep(samples, ds, out.Cands, cfg.Seed, 0.25/float64(spec.Rounds), fail)
	} else {
		hist := &history{seed: ds.Objects, base: int64(Num(out.StatusBefore, "epoch")), shards: max(shards, 1), routeOK: routeOK}
		for _, s := range samples {
			if s.ok() && s.write != nil {
				addRecords(hist, s, routeOK)
			}
		}
		hist.sort()
		checks, err = checkWrites(ctl, spec, hist, samples, events, out.Subs, subIDs, out.Cands, out.StatusAfter, fail)
		if err != nil {
			return nil, err
		}
	}
	if len(wrong) > 0 {
		out.Correct = false
		checks["wrong"] = wrong
	}
	if err := d.Stop(); err != nil {
		return nil, fmt.Errorf("daemon shutdown: %w", err)
	}

	t := tally(samples, spec.Rate > 0)
	out.Attempted, out.Failed, out.Writes, out.Positions = t.attempted, t.failed, t.writes, t.positions
	out.ResultHits, out.Answered = t.resultHits, t.answered
	answer, side := t.latencies[spec.AnswerClass], t.latencies[spec.SideClass]
	if spec.Name == Monitor {
		answer = notifyLatencies(samples, events)
		t.latencies["notify"] = answer
	}
	out.Metrics["answer_p50_ms"] = Median(answer)
	out.Metrics["answer_tail_ms"] = Quantile(answer, spec.AnswerTail)
	out.Metrics["side_p50_ms"] = Median(side)
	out.ClassP50MS = map[string]float64{}
	for c, xs := range t.latencies {
		out.ClassP50MS[c] = Median(xs)
	}
	out.OpLatencyMS = map[int]float64{}
	for _, s := range samples {
		if s.ok() {
			out.OpLatencyMS[s.idx] = s.latencyMS()
		}
	}
	out.Report = report(cfg, spec, out, t, host, checks, len(events))
	if late := Quantile(t.late, 0.99); late > maxGeneratorLateMS {
		return out, fmt.Errorf("%w (p99 %.2f ms late): the run measured the load generator, not the daemon", ErrGeneratorBehind, late)
	}
	return out, nil
}

// boot writes the population's CSV and starts the daemon spec.Boots
// times, each on a fresh data directory when durable; the last start
// keeps serving.
func boot(cfg Config, spec Spec, ds *Dataset) (*Daemon, []float64, string, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, nil, "", err
	}
	csv := filepath.Join(cfg.WorkDir, "checkins.csv")
	if err := ds.WriteCSV(csv); err != nil {
		return nil, nil, "", err
	}
	dcfg := DaemonConfig{
		Binary: cfg.Daemon, CSV: csv, Candidates: spec.Candidates, Seed: populationSeed, WorkDir: cfg.WorkDir,
	}
	if spec.Durable {
		dcfg.DataDir = filepath.Join(cfg.WorkDir, "data")
	}
	var setups []float64
	for i := 0; ; i++ {
		d, err := StartDaemon(dcfg)
		if err != nil {
			return nil, nil, "", err
		}
		setups = append(setups, d.SetupS)
		if i == spec.Boots-1 {
			return d, setups, dcfg.DataDir, nil
		}
		if err := d.Stop(); err != nil {
			return nil, nil, "", fmt.Errorf("stopping set-up start %d: %w", i, err)
		}
	}
}

// readCandidates reads the m candidates the daemon sampled (ids 0..m-1)
// with their coordinates.
func readCandidates(c *Client, m int) ([]Point, error) {
	cands := make([]Point, m)
	for id := range cands {
		var r struct {
			Candidate Point `json:"candidate"`
		}
		if err := c.Do(context.Background(), "GET", fmt.Sprintf("/v1/influence/%d", id), nil, &r); err != nil {
			return nil, fmt.Errorf("reading candidate %d: %w", id, err)
		}
		cands[id] = r.Candidate
	}
	return cands, nil
}

// counts is the accounting of one window: attempts and failures per op
// class, successful latencies per class, and how late an open-loop
// generator sent its ops.
type counts struct {
	attempted, failed, writes, positions int
	answered, resultHits                 int
	attempts, fails                      map[string]int
	failKinds                            map[string]int
	latencies                            map[string][]float64
	late                                 []float64
}

// tally counts failures per class against attempts and keeps them out
// of the latency samples.
func tally(samples []*sample, openLoop bool) counts {
	t := counts{attempts: map[string]int{}, fails: map[string]int{}, failKinds: map[string]int{}, latencies: map[string][]float64{}}
	for _, s := range samples {
		c := s.op.Class()
		t.attempted++
		t.attempts[c]++
		if !s.ok() {
			t.failed++
			t.fails[c]++
			t.failKinds[failKind(s)]++
			continue
		}
		t.latencies[c] = append(t.latencies[c], s.latencyMS())
		if s.query != nil {
			t.answered++
			if s.query.Cached {
				t.resultHits++
			}
		}
		if s.write != nil {
			t.writes++
			if s.op.Append != nil {
				t.positions += len(s.op.Append.Positions)
			}
			for _, a := range s.op.Ingest {
				t.positions += len(a.Positions)
			}
		}
		if openLoop {
			t.late = append(t.late, float64(s.sent-max(s.sched, s.taken))/float64(time.Millisecond))
		}
	}
	return t
}

// report shapes the human-readable report: every per-class number, the
// per-class metric names, host facts, generator health and the
// answer checks.
func report(cfg Config, spec Spec, out *Outcome, t counts, host, checks map[string]any, events int) map[string]any {
	perClass := map[string]any{}
	for c, xs := range t.latencies {
		pc := map[string]any{
			"attempted": t.attempts[c], "failed": t.fails[c], "samples": len(xs),
			"p50_ms": Median(xs), "p90_ms": Quantile(xs, 0.90), "p95_ms": Quantile(xs, 0.95),
			"p99_ms": Quantile(xs, 0.99), "mean_ms": Mean(xs), "histogram_ms": histogram(xs),
		}
		if len(xs) <= 100 {
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			pc["sorted_ms"] = sorted
		}
		perClass[c] = pc
	}
	if spec.Name == Monitor {
		perClass["notify"].(map[string]any)["events"] = events
	}
	lat := t.latencies
	named := map[string]any{"setup_s": out.Metrics["setup_s"], "rss_peak_mb": out.Metrics["rss_peak_mb"]}
	switch spec.Name {
	case PaperSweep:
		if total := Mean(lat["query"]) * float64(len(lat["query"])); total > 0 {
			named["queries_per_s"] = float64(len(lat["query"])) / (total / 1000)
		}
		named["query_p50_ms"] = Median(lat["query"])
		named["query_p65_ms"] = Quantile(lat["query"], 0.65)
		named["optimize_p50_ms"] = Median(lat["optimize"])
		named["optimize_gap_frac"] = checks["optimize_gap_frac"]
	case ServeMixed:
		named["query_p50_ms"] = Median(lat["query"])
		named["query_p95_ms"] = Quantile(lat["query"], 0.95)
		named["query_p99_ms"] = Quantile(lat["query"], 0.99)
		named["write_p50_ms"] = Median(lat["append"])
		named["write_p95_ms"] = Quantile(lat["append"], 0.95)
	case Monitor:
		named["write_p50_ms"] = Median(lat["ingest"])
		named["write_p95_ms"] = Quantile(lat["ingest"], 0.95)
		named["notify_p50_ms"] = Median(lat["notify"])
		named["notify_p90_ms"] = Quantile(lat["notify"], 0.90)
	}
	return map[string]any{
		"workload": spec.Name, "seed": cfg.Seed, "seconds": cfg.Seconds,
		"population": map[string]any{"objects": len(out.Dataset.Objects), "check_ins": out.Dataset.CheckIns, "candidates": len(out.Cands)},
		"host":       host, "classes": perClass, "named": named, "failures": t.failKinds,
		"generator": map[string]any{"late_p99_ms": Quantile(t.late, 0.99), "limit_ms": maxGeneratorLateMS},
		"checks":    checks,
		"roles": map[string]string{
			"answer": fmt.Sprintf("%s (tail p%g)", spec.AnswerClass, spec.AnswerTail*100),
			"side":   spec.SideClass,
		},
	}
}

// populationSeed fixes each workload's population — the dataset and
// the daemon's candidate sample — as the paper's evaluation fixes its
// datasets; the run's seed draws the op stream (order, parameters,
// districts, arrivals, random walks). Varying the population by seed
// would add the spread of the data to every metric.
const populationSeed = 1

// histogram counts samples in power-of-two millisecond buckets, keyed
// by each bucket's upper edge, so a multi-modal distribution shows.
func histogram(xs []float64) map[string]int {
	h := map[string]int{}
	for _, x := range xs {
		edge := 0.125
		for edge < x {
			edge *= 2
		}
		h[strconv.FormatFloat(edge, 'g', -1, 64)]++
	}
	return h
}

// maxGeneratorLateMS is how late (p99) the open-loop generator may send
// an op whose connection was free before the run is declared invalid.
const maxGeneratorLateMS = 20.0

// ErrGeneratorBehind marks a window in which the open-loop generator
// sent its ops later than maxGeneratorLateMS allows.
var ErrGeneratorBehind = errors.New("generator fell behind its schedule")

// closedLoop sends ops one at a time on one connection until the
// window has passed, as a single analyst waiting for each answer does.
func closedLoop(addr string, ops []Op, window time.Duration) []*sample {
	c := NewClient(addr, 120*time.Second)
	defer c.Close()
	start := time.Now()
	var out []*sample
	for i := range ops {
		now := time.Since(start)
		if now >= window {
			break
		}
		s := &sample{op: &ops[i], idx: i, sched: now, taken: now, sent: now}
		send(c, s)
		s.done = time.Since(start)
		out = append(out, s)
	}
	return out
}

// openLoop sends ops at their scheduled times (offsets from start)
// over conns connections; a connection takes the next due op as soon
// as it is free, so a slow answer delays later ops, and latency runs
// from the scheduled time.
func openLoop(addr string, ops []Op, conns int, start time.Time) []*sample {
	out := make([]*sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(addr, 60*time.Second)
			defer c.Close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &sample{op: &ops[i], idx: i, sched: ops[i].At, taken: time.Since(start)}
				if wait := s.sched - s.taken; wait > 0 {
					time.Sleep(wait)
				}
				s.sent = time.Since(start)
				send(c, s)
				s.done = time.Since(start)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// monitorLoop follows one subscription over SSE on one connection
// while the other sends the ingest stream on schedule. After the last
// batch it waits for the subscription worker to drain.
func monitorLoop(addr, subID string, ops []Op) ([]*sample, []event, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/v1/subscriptions/"+subID+"/events", nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("opening the event stream: %w", err)
	}
	var events []event
	var mu sync.Mutex
	lastEvent := time.Now()
	readerDone := make(chan error, 1)
	go func() {
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		name := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && name == "result":
				ev := event{at: time.Since(start)}
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					readerDone <- err
					return
				}
				mu.Lock()
				events = append(events, ev)
				lastEvent = time.Now()
				mu.Unlock()
			}
		}
		readerDone <- nil
	}()
	samples := openLoop(addr, ops, 1, start)
	// Trailing events: wait until the stream has been quiet for a second.
	for drain := time.Now(); ; time.Sleep(100 * time.Millisecond) {
		mu.Lock()
		quiet := time.Since(lastEvent)
		mu.Unlock()
		if quiet > time.Second {
			break
		}
		if time.Since(drain) > 30*time.Second {
			return nil, nil, fmt.Errorf("events still arriving 30s after the last ingest batch")
		}
	}
	cancel()
	if err := <-readerDone; err != nil && !errors.Is(err, context.Canceled) {
		return nil, nil, fmt.Errorf("reading the event stream: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	return samples, events, nil
}

// send performs one op and fills in its outcome.
func send(c *Client, s *sample) {
	ctx := context.Background()
	op := s.op
	switch {
	case op.Query != nil:
		s.query = &queryResp{}
		s.err = c.Do(ctx, "POST", "/v1/query", op.Query, s.query)
	case op.Optimize != nil:
		s.optim = &optimizeResp{}
		s.err = c.Do(ctx, "POST", "/v1/optimize", op.Optimize, s.optim)
	case op.Append != nil:
		s.write = &writeResp{}
		s.err = c.Do(ctx, "POST", fmt.Sprintf("/v1/objects/%d/positions", op.Append.ID),
			map[string]any{"positions": op.Append.Positions}, s.write)
	default:
		s.write = &writeResp{}
		s.err = c.Do(ctx, "POST", "/v1/ingest", map[string]any{"appends": op.Ingest}, s.write)
	}
	if s.err != nil {
		s.query, s.optim, s.write = nil, nil, nil
	}
}

func failKind(s *sample) string {
	var he *HTTPError
	if errors.As(s.err, &he) {
		body := he.Body
		if len(body) > 80 {
			body = body[:80]
		}
		return fmt.Sprintf("%s %d %s", s.op.Class(), he.Status, body)
	}
	return s.op.Class() + " transport error"
}

// addRecords turns one acknowledged write into history records: an
// append is one record; an ingest batch is one record per shard it
// touched, applied in ascending shard order.
func addRecords(h *history, s *sample, routeOK bool) {
	if s.op.Append != nil {
		sh := 0
		if routeOK {
			sh = Route(s.op.Append.ID, h.shards)
		}
		h.recs = append(h.recs, subRecord{epoch: s.write.Epoch, shard: sh, appends: []Append{*s.op.Append}, span: 1})
		return
	}
	if !routeOK {
		// Whole-batch record; its span is settled by the epochs.
		h.recs = append(h.recs, subRecord{epoch: s.write.Epoch, appends: s.op.Ingest, span: -1})
		return
	}
	groups := map[int][]Append{}
	for _, a := range s.op.Ingest {
		sh := Route(a.ID, h.shards)
		groups[sh] = append(groups[sh], a)
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	first := s.write.Epoch - int64(len(keys)) + 1
	for i, k := range keys {
		h.recs = append(h.recs, subRecord{epoch: first + int64(i), shard: k, appends: groups[k], span: 1})
	}
}

// routeMatches reports whether Route reproduces the daemon's per-shard
// object counts.
func routeMatches(ds *Dataset, shards int, status map[string]any) bool {
	got, _ := Dig(status, "shards", "objects").([]any)
	if len(got) != shards {
		return false
	}
	want := make([]int, shards)
	for id := range ds.Objects {
		want[Route(id, shards)]++
	}
	for i, g := range got {
		if f, _ := g.(float64); int(f) != want[i] {
			return false
		}
	}
	return true
}

// hostFacts records what the numbers depend on.
func hostFacts(cfg Config, status map[string]any, dataDir string) map[string]any {
	facts := map[string]any{
		"nproc":      runtime.NumCPU(),
		"shards":     Num(status, "shards", "count"),
		"gomaxprocs": Num(status, "admission", "gomaxprocs"),
		"durable":    Dig(status, "durable"),
	}
	if out, err := exec.Command(cfg.Daemon, "-h").CombinedOutput(); err == nil || len(out) > 0 {
		facts["fsync"] = flagDefault(string(out), "fsync")
	}
	if dataDir != "" {
		facts["data_dir_fs"] = fsType(dataDir)
	}
	return facts
}

// hostCPU reads the steal and total CPU time of the whole (virtual)
// machine from /proc/stat, in clock ticks; zeros where it cannot. The
// steal share over a window is time the hypervisor gave the machine's
// CPUs to other tenants: on a shared host it tracks slow runs.
func hostCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for _, v := range f[1:9] { // user … steal; guest time is already in user
		x, _ := strconv.ParseFloat(v, 64)
		total += x
	}
	steal, _ = strconv.ParseFloat(f[8], 64)
	return steal, total
}

// flagDefault extracts a flag's default from Go flag usage text.
func flagDefault(usage, name string) string {
	lines := strings.Split(usage, "\n")
	for i, l := range lines {
		if strings.TrimSpace(l) == "-"+name+" string" && i+1 < len(lines) {
			d := lines[i+1]
			if j := strings.Index(d, `(default "`); j >= 0 {
				d = d[j+len(`(default "`):]
				return strings.TrimSuffix(strings.TrimSpace(d), `")`)
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown: " + err.Error()
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// scrape reads the daemon's /metrics text.
func scrape(c *Client) (string, error) {
	req, err := http.NewRequest("GET", c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var b strings.Builder
	_, err = bufio.NewReader(resp.Body).WriteTo(&b)
	return b.String(), err
}

// Dig walks nested JSON objects.
func Dig(m map[string]any, path ...string) any {
	var v any = m
	for _, p := range path {
		mm, ok := v.(map[string]any)
		if !ok {
			return nil
		}
		v = mm[p]
	}
	return v
}

// Num is Dig for numbers (0 when absent).
func Num(m map[string]any, path ...string) float64 {
	f, _ := Dig(m, path...).(float64)
	return f
}
