package load

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// PF is a probability-function setting as the daemon's API names it:
// a family plus its (rho, shape) pair.
type PF struct {
	Family      string
	Rho, Lambda float64
}

// DefaultPF is the daemon's engine default: the paper's power law with
// ρ = 0.9 and λ = 1 (used with τ = 0.7).
var DefaultPF = PF{"powerlaw", 0.9, 1}

// DefaultTau is the daemon's engine threshold.
const DefaultTau = 0.7

// prob returns the family's influence probability at distance d. Each
// formula repeats the program's float operations in the same order, so
// the oracle's cumulative products are bit-identical to the program's:
// the answer check compares integer influences, which a last-bit
// difference at the threshold would flip.
func (f PF) prob() (func(d float64) float64, error) {
	rho, s := f.Rho, f.Lambda
	if rho <= 0 || rho > 1 || s <= 0 {
		return nil, fmt.Errorf("pf %s: rho %v / shape %v out of range", f.Family, rho, s)
	}
	switch f.Family {
	case "powerlaw":
		if s == 1 {
			return func(d float64) float64 { return rho * (1.0 / (1.0 + d)) }, nil
		}
		return func(d float64) float64 { return rho * math.Pow(1.0/(1.0+d), s) }, nil
	case "logsig":
		return func(d float64) float64 { return rho / (1 + math.Exp(s*d-0)) }, nil
	case "convex":
		return func(d float64) float64 { return rho * 2 / (1 + math.Exp(s*d)) }, nil
	case "concave":
		return func(d float64) float64 {
			if d >= s {
				return 0
			}
			x := d / s
			return rho * math.Sqrt(1-x*x)
		}, nil
	case "linear":
		return func(d float64) float64 {
			if d >= s {
				return 0
			}
			return rho * (1 - d/s)
		}, nil
	}
	return nil, fmt.Errorf("pf family %q has no oracle", f.Family)
}

// Oracle decides Definition 2 of the paper exactly: object O is
// influenced by location c when 1 − Π(1 − PF(|c − p|)) ≥ τ over all of
// O's positions p, multiplied in position order. It settles a pair
// early only where the outcome is certain with a 1e-9 margin, so its
// verdicts equal the full product's.
type Oracle struct {
	pf  func(float64) float64
	tau float64
}

// NewOracle builds the exact decision procedure for one PF and τ.
func NewOracle(f PF, tau float64) (*Oracle, error) {
	pf, err := f.prob()
	if err != nil {
		return nil, err
	}
	if !(tau > 0 && tau < 1) {
		return nil, fmt.Errorf("tau %v outside (0,1)", tau)
	}
	return &Oracle{pf: pf, tau: tau}, nil
}

// box is an object's bounding rectangle.
type box struct{ minX, minY, maxX, maxY float64 }

func boxOf(pos []Point) box {
	b := box{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
	for _, p := range pos {
		b.minX, b.minY = math.Min(b.minX, p.X), math.Min(b.minY, p.Y)
		b.maxX, b.maxY = math.Max(b.maxX, p.X), math.Max(b.maxY, p.Y)
	}
	return b
}

func (b box) minDist(c Point) float64 {
	dx := math.Max(0, math.Max(b.minX-c.X, c.X-b.maxX))
	dy := math.Max(0, math.Max(b.minY-c.Y, c.Y-b.maxY))
	return math.Hypot(dx, dy)
}

func (b box) maxDist(c Point) float64 {
	return math.Hypot(math.Max(c.X-b.minX, b.maxX-c.X), math.Max(c.Y-b.minY, b.maxY-c.Y))
}

// influenced reports whether c influences the object with positions
// pos and bounding box b.
func (o *Oracle) influenced(c Point, pos []Point, b box) bool {
	// Every position lies between minDist and maxDist of c, so every
	// factor 1 − PF(d) lies between 1 − PF(minDist) and 1 − PF(maxDist);
	// when even the bounds settle the threshold (with a margin far above
	// rounding error), so does the product.
	n := float64(len(pos))
	if 1-math.Pow(1-o.pf(b.minDist(c)), n) < o.tau-1e-9 {
		return false
	}
	if 1-math.Pow(1-o.pf(b.maxDist(c)), n) > o.tau+1e-9 {
		return true
	}
	nonInf := 1.0
	sure := (1 - o.tau) - 1e-9
	for _, p := range pos {
		nonInf *= 1 - o.pf(math.Hypot(c.X-p.X, c.Y-p.Y))
		if nonInf < sure {
			return true
		}
	}
	return 1-nonInf >= o.tau
}

// Row returns the indices of the candidates that influence one object.
func (o *Oracle) Row(cands []Point, pos []Point) []int32 {
	b := boxOf(pos)
	var row []int32
	for j, c := range cands {
		if o.influenced(c, pos, b) {
			row = append(row, int32(j))
		}
	}
	return row
}

// Influences returns every candidate's influence over the population,
// computed on up to two goroutines.
func (o *Oracle) Influences(cands []Point, objects [][]Point) []int {
	const workers = 2
	parts := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			inf := make([]int, len(cands))
			for i := w; i < len(objects); i += workers {
				for _, j := range o.Row(cands, objects[i]) {
					inf[j]++
				}
			}
			parts[w] = inf
		}(w)
	}
	wg.Wait()
	out := parts[0]
	for _, p := range parts[1:] {
		for j, v := range p {
			out[j] += v
		}
	}
	return out
}

// At returns the influence of a single location.
func (o *Oracle) At(c Point, objects [][]Point) int {
	n := 0
	for _, pos := range objects {
		if o.influenced(c, pos, boxOf(pos)) {
			n++
		}
	}
	return n
}

// Ranked is one candidate of an exact ranking.
type Ranked struct {
	ID        int `json:"id"`
	Influence int `json:"influence"`
}

// rank orders the candidates ids (restricted to ids when non-empty) by
// influence descending, id ascending — the daemon's tie-break.
func rank(inf []int, ids []int) []Ranked {
	var out []Ranked
	if len(ids) == 0 {
		out = make([]Ranked, len(inf))
		for i, v := range inf {
			out[i] = Ranked{i, v}
		}
	} else {
		for _, id := range ids {
			out = append(out, Ranked{id, inf[id]})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Influence != out[b].Influence {
			return out[a].Influence > out[b].Influence
		}
		return out[a].ID < out[b].ID
	})
	return out
}
