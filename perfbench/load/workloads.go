package load

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	PaperSweep = "paper-sweep"
	ServeMixed = "serve-mixed"
	Monitor    = "monitor"
)

// Workloads lists every workload in BENCHMARK.json order.
var Workloads = []string{PaperSweep, Monitor}

// Unlisted names workloads that run but that BENCHMARK.json leaves
// out. serve-mixed loses a varying share of its queries to the
// daemon's plan-cache race (see README.md), so two sets of runs of the
// same code cannot agree on its failure count.
var Unlisted = []string{ServeMixed}

// Spec fixes one workload's population and traffic.
type Spec struct {
	Name       string
	Scale      float64 // Foursquare-like size factor
	Candidates int
	Durable    bool
	// Rate is the open-loop arrival rate in ops (or batches) per
	// second; 0 means a closed loop with one client.
	Rate float64
	// AnswerTail is the tail quantile reported for the answer class:
	// the highest that held steady across seeds at the run length
	// (see README.md).
	AnswerTail float64
	// AnswerClass and SideClass name the op classes behind the
	// role-named metrics, for the report.
	AnswerClass string
	SideClass   string
	// Boots is how many times a run starts the daemon to measure
	// set-up (the median is reported); the last start serves the run.
	Boots int
	// Rounds is how many sweeps a closed loop makes (see
	// paperSweepOps).
	Rounds int
}

// SpecFor returns the workload's specification at the given extra
// scale factor (1 for the benchmark; the self-test shrinks it).
func SpecFor(name string, shrink float64) (Spec, error) {
	var s Spec
	switch name {
	case PaperSweep:
		s = Spec{Name: name, Scale: 1, Candidates: 600, AnswerTail: 0.65,
			AnswerClass: "query", SideClass: "optimize", Boots: 7, Rounds: 2}
	case ServeMixed:
		s = Spec{Name: name, Scale: 0.12, Candidates: 240, Durable: true, Rate: 120,
			AnswerTail: 0.95, AnswerClass: "query", SideClass: "append", Boots: 11}
	case Monitor:
		s = Spec{Name: name, Scale: 0.12, Candidates: 240, Durable: true, Rate: 12.5,
			AnswerTail: 0.90, AnswerClass: "notify", SideClass: "ingest", Boots: 21}
	default:
		return s, fmt.Errorf("unknown workload %q (want one of %v, or unlisted %v)", name, Workloads, Unlisted)
	}
	if shrink > 0 && shrink != 1 {
		s.Scale *= shrink
		s.Candidates = max(int(float64(s.Candidates)*shrink), 10)
	}
	return s, nil
}

// QueryReq is a POST /v1/query body.
type QueryReq struct {
	Algorithm string  `json:"algorithm"`
	PF        string  `json:"pf"`
	Rho       float64 `json:"rho"`
	Lambda    float64 `json:"lambda"`
	Tau       float64 `json:"tau"`
	K         int     `json:"k,omitempty"`
}

// Rect is an axis-aligned rectangle on the wire.
type Rect struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// OptimizeReq is a POST /v1/optimize body.
type OptimizeReq struct {
	Tau       float64 `json:"tau"`
	MaxRefine int     `json:"max_refine"`
	Bounds    *Rect   `json:"bounds"`
}

// Append is one object's new positions.
type Append struct {
	ID        int     `json:"id"`
	Positions []Point `json:"positions"`
}

// Op is one scheduled request.
type Op struct {
	At       time.Duration // send time after the window opens (open loops)
	Query    *QueryReq
	Optimize *OptimizeReq
	Append   *Append  // POST /v1/objects/{id}/positions
	Ingest   []Append // POST /v1/ingest
}

// Class names the op's class for accounting.
func (o *Op) Class() string {
	switch {
	case o.Query != nil:
		return "query"
	case o.Optimize != nil:
		return "optimize"
	case o.Append != nil:
		return "append"
	}
	return "ingest"
}

// setting is one point on the paper's parameter axes.
type setting struct {
	pf  PF
	tau float64
}

// paperAxes are the settings of the paper's Figs. 12, 14, 15 and 16 on
// the Foursquare-like data: τ, λ and ρ swept one at a time around the
// default power law, then the four alternative PF families at τ = 0.3
// (they cap at ρ = 0.5).
func paperAxes() []setting {
	var out []setting
	for _, tau := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		out = append(out, setting{DefaultPF, tau})
	}
	for _, l := range []float64{0.75, 1.25} {
		out = append(out, setting{PF{"powerlaw", 0.9, l}, 0.7})
	}
	for _, r := range []float64{0.5, 0.7} {
		out = append(out, setting{PF{"powerlaw", r, 1}, 0.7})
	}
	out = append(out,
		setting{PF{"logsig", 0.5, 1}, 0.3},
		setting{PF{"convex", 0.5, 1}, 0.3},
		setting{PF{"concave", 0.5, 6}, 0.3},
		setting{PF{"linear", 0.5, 6}, 0.3},
	)
	return out
}

// algorithmMix is the solver mix of the query workloads; "top-10" is
// pin-vo's bound-ordered top-k with k = 10.
var algorithmMix = []string{"pin-vo", "pin", "pin-par", "top-10"}

func queryFor(algo string, s setting, tau float64) *QueryReq {
	q := &QueryReq{Algorithm: algo, PF: s.pf.Family, Rho: s.pf.Rho, Lambda: s.pf.Lambda, Tau: tau}
	if algo == "top-10" {
		q.Algorithm, q.K = "pin-vo", 10
	}
	return q
}

// paperSweepOps returns the closed-loop stream: rounds sweeps that
// each ask every (setting, algorithm) pair once — a fixed amount of
// work, so a faster program finishes sooner instead of doing more. A
// sweep runs in four blocks that each hold every setting once (in a
// seeded order) with the algorithms rotated, so a sweep cut short by
// the window still has close to the full mix of cheap and expensive
// queries. Every fifth op is an optimize call; the twelve of a sweep
// cover the twelve districts tiling the frame once each (seeded jitter
// drawn once, seeded order per sweep), so every sweep places over the
// same ground. Each op carries a τ offset of a few millionths, so no
// request repeats and every query builds its plan cold, as an
// analyst's sweep does.
func paperSweepOps(rng *rand.Rand, width, height float64, rounds int) []Op {
	axes := paperAxes()
	tiles := Districts(rng, width, height)
	var ops []Op
	seq := 0
	offset := func() float64 { seq++; return float64(seq) * 1e-6 }
	for r := 0; r < rounds; r++ {
		start, tileOrder := len(ops), rng.Perm(len(tiles))
		for b := range algorithmMix {
			for i, si := range rng.Perm(len(axes)) {
				if (len(ops)-start)%5 == 4 && len(tileOrder) > 0 {
					ops = append(ops, Op{Optimize: &OptimizeReq{Tau: DefaultTau + offset(), MaxRefine: 200, Bounds: tiles[tileOrder[0]]}})
					tileOrder = tileOrder[1:]
				}
				s := axes[si]
				ops = append(ops, Op{Query: queryFor(algorithmMix[(i+b)%len(algorithmMix)], s, s.tau+offset())})
			}
		}
	}
	return ops
}

// Districts returns twelve regions tiling the frame in a 4×3 grid,
// each shifted by up to half a kilometre, in a seeded order.
func Districts(rng *rand.Rand, width, height float64) []*Rect {
	var out []*Rect
	w, h := width/4, height/3
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			dx, dy := rng.Float64()-0.5, rng.Float64()-0.5
			x := math.Min(math.Max(float64(i)*w+dx, 0), width-w)
			y := math.Min(math.Max(float64(j)*h+dy, 0), height-h)
			out = append(out, &Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// walker produces random-walk position appends for the population,
// starting each object at its last seeded position.
type walker struct {
	rng           *rand.Rand
	last          []Point
	width, height float64
	step          float64
}

func newWalker(rng *rand.Rand, ds *Dataset, step float64) *walker {
	w := &walker{rng: rng, last: make([]Point, len(ds.Objects)), width: ds.Width, height: ds.Height, step: step}
	for i, pos := range ds.Objects {
		w.last[i] = pos[len(pos)-1]
	}
	return w
}

// next appends n steps to object id's walk.
func (w *walker) next(id, n int) Append {
	a := Append{ID: id, Positions: make([]Point, n)}
	for i := range a.Positions {
		p := w.last[id]
		p.X = round6(math.Min(math.Max(p.X+w.rng.NormFloat64()*w.step, 0), w.width))
		p.Y = round6(math.Min(math.Max(p.Y+w.rng.NormFloat64()*w.step, 0), w.height))
		w.last[id] = p
		a.Positions[i] = p
	}
	return a
}

// serveMixedOps returns the open-loop stream: Poisson arrivals at
// rate, 88% queries at the engine's default PF/τ over the solver mix
// (result cache left on) and 12% appends of 1-3 random-walk points to
// a random object. Query latency is bimodal — cache hits and warm-plan
// solves near 1-2 ms, the first queries after an append rebuilding a
// plan at 8-30 ms — and with 20% appends the two modes hold similar
// mass, so the median sat in the valley between them and moved by a
// third between seeds; at 12% it sits inside the warm mode.
func serveMixedOps(rng *rand.Rand, ds *Dataset, rate float64, window time.Duration) []Op {
	w := newWalker(rng, ds, 0.3)
	def := setting{DefaultPF, DefaultTau}
	var ops []Op
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= window {
			return ops
		}
		if rng.Float64() < 0.12 {
			a := w.next(rng.Intn(len(ds.Objects)), 1+rng.Intn(3))
			ops = append(ops, Op{At: at, Append: &a})
			continue
		}
		ops = append(ops, Op{At: at, Query: queryFor(algorithmMix[rng.Intn(len(algorithmMix))], def, DefaultTau)})
	}
}

// monitorOps returns the fixed-rate ingest stream: batches of 1-8
// single-point random-walk appends, each to a distinct object.
func monitorOps(rng *rand.Rand, ds *Dataset, rate float64, window time.Duration) []Op {
	w := newWalker(rng, ds, 0.3)
	var ops []Op
	for i := 0; ; i++ {
		at := time.Duration(float64(i) / rate * float64(time.Second))
		if at >= window {
			return ops
		}
		ids := rng.Perm(len(ds.Objects))[:min(1+rng.Intn(8), len(ds.Objects))]
		batch := make([]Append, len(ids))
		for j, id := range ids {
			batch[j] = w.next(id, 1)
		}
		ops = append(ops, Op{At: at, Ingest: batch})
	}
}

// SubQuery is a POST /v1/subscribe body.
type SubQuery struct {
	Candidates []int   `json:"candidates"`
	Tau        float64 `json:"tau"`
	K          int     `json:"k"`
	Algorithm  string  `json:"algorithm"`
}

// district draws a seeded region of 6-12 km by 5-10 km inside the
// frame.
func district(rng *rand.Rand, width, height float64) *Rect {
	w, h := 6+6*rng.Float64(), 5+5*rng.Float64()
	x, y := rng.Float64()*(width-w), rng.Float64()*(height-h)
	return &Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// subscriptions draws the monitor workload's eight standing queries:
// k ∈ {1, 3, 5}, pin or pin-par, each over the candidates inside a
// seeded district (redrawn until it holds more than k). The first —
// the one the event stream follows — is k = 5 over every candidate,
// whose top-k changes often enough to give a tail sample.
func subscriptions(rng *rand.Rand, cands []Point, width, height float64) []SubQuery {
	ks := []int{5, 1, 3, 5, 1, 3, 5, 3}
	var out []SubQuery
	for i, k := range ks {
		var ids []int
		for tries := 0; len(ids) <= k && tries < 100; tries++ {
			r := district(rng, width, height)
			if i == 0 {
				r = &Rect{MaxX: width, MaxY: height}
			}
			ids = ids[:0]
			for id, c := range cands {
				if c.X >= r.MinX && c.X <= r.MaxX && c.Y >= r.MinY && c.Y <= r.MaxY {
					ids = append(ids, id)
				}
			}
		}
		algo := "pin"
		if i%2 == 1 {
			algo = "pin-par"
		}
		out = append(out, SubQuery{Candidates: ids, Tau: DefaultTau, K: k, Algorithm: algo})
	}
	return out
}
