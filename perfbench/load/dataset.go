package load

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
)

// Point is a planar position in kilometres.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Dataset is a generated check-in population: Objects[id] holds the
// positions of moving object id in check-in order, exactly as the
// daemon parses them back from the CSV.
type Dataset struct {
	Objects  [][]Point
	CheckIns int
	Width    float64
	Height   float64

	venues []Point // venue coordinates, rounded like the CSV
	visits [][]int // visits[u][i] is the venue of Objects[u][i]
}

// GenerateFoursquareLike builds a Foursquare-like check-in log (the
// Singapore column of the paper's Table 2: 2,321 users, 5,594 venues
// over a 39.22 × 27.03 km frame) scaled by factor, from seed. The model
// is the one the paper's evaluation relies on: venues clustered around
// Zipf-weighted hotspots, users anchored at 2-4 hotspots across the
// whole frame (heavily overlapping activity regions), log-normal
// per-user check-in counts, distance-decaying venue choice and GPS
// scatter around the venue. Scales below 1 cap the mean and maximum
// check-in counts at 40 and 200, as the repository's smoke scales do.
//
// The generator lives in the benchmark, not in the program under test,
// so a change to the program's own dataset code never changes the
// benchmark's inputs.
func GenerateFoursquareLike(factor float64, seed int64) *Dataset {
	users := int(2321 * factor)
	venues := int(5594 * factor)
	minC, maxC, meanC := 3, 661, 72.0
	if factor < 1 {
		maxC, meanC = 200, 40
	}
	const (
		width, height = 39.22, 27.03
		hotspots      = 24
		spread        = 1.2
		decay         = 2.5
		noise         = 0.15
		sigma         = 1.8
	)
	users = max(users, 1)
	venues = max(venues, 1)
	rng := rand.New(rand.NewSource(seed))
	clamp := func(v, hi float64) float64 { return math.Min(math.Max(v, 0), hi) }

	hot := make([]Point, hotspots)
	hotW := make([]float64, hotspots)
	totalW := 0.0
	for h := range hot {
		hot[h] = Point{rng.Float64() * width, rng.Float64() * height}
		hotW[h] = 1 / math.Pow(float64(h+1), 0.8)
		totalW += hotW[h]
	}
	pickHot := func() Point { return hot[weightedPick(rng, hotW, totalW)] }

	vpts := make([]Point, venues)
	appeal := make([]float64, venues)
	for v := range vpts {
		h := pickHot()
		vpts[v] = Point{
			round6(clamp(h.X+rng.NormFloat64()*spread, width)),
			round6(clamp(h.Y+rng.NormFloat64()*spread, height)),
		}
		appeal[v] = math.Pow(1/math.Pow(float64(v+1), 0.6), 0.5)
	}

	// pool returns the venues within twice the decay distance of an
	// anchor (capped), or the nearest few when the anchor is isolated.
	const minPool, maxPool = 20, 400
	pool := func(a Point) []int {
		var in []int
		for v, p := range vpts {
			if math.Hypot(p.X-a.X, p.Y-a.Y) <= 2*decay {
				in = append(in, v)
				if len(in) == maxPool {
					break
				}
			}
		}
		if len(in) >= minPool || len(in) == venues {
			return in
		}
		in = in[:0]
		taken := make([]bool, venues)
		for len(in) < min(minPool, venues) {
			best, bd := -1, math.Inf(1)
			for v, p := range vpts {
				if d := math.Hypot(p.X-a.X, p.Y-a.Y); !taken[v] && d < bd {
					best, bd = v, d
				}
			}
			taken[best] = true
			in = append(in, best)
		}
		return in
	}

	mu := math.Log(meanC) - sigma*sigma/2
	ds := &Dataset{
		Objects: make([][]Point, users),
		Width:   width,
		Height:  height,
		venues:  vpts,
		visits:  make([][]int, users),
	}
	for u := range ds.Objects {
		n := 0
		for {
			n = max(int(math.Round(math.Exp(mu+rng.NormFloat64()*sigma))), minC)
			if n <= maxC {
				break
			}
		}
		type anchor struct {
			venues  []int
			weights []float64
			total   float64
		}
		anchors := make([]anchor, 2+rng.Intn(3))
		for i := range anchors {
			h := pickHot()
			a := Point{
				clamp(h.X+rng.NormFloat64()*spread*2, width),
				clamp(h.Y+rng.NormFloat64()*spread*2, height),
			}
			vs := pool(a)
			ws := make([]float64, len(vs))
			total := 0.0
			for j, v := range vs {
				ws[j] = appeal[v] * math.Exp(-math.Hypot(vpts[v].X-a.X, vpts[v].Y-a.Y)/decay)
				total += ws[j]
			}
			anchors[i] = anchor{vs, ws, total}
		}
		pos := make([]Point, n)
		visits := make([]int, n)
		for i := range pos {
			an := &anchors[rng.Intn(len(anchors))]
			visits[i] = an.venues[weightedPick(rng, an.weights, an.total)]
			v := vpts[visits[i]]
			// Round-trip through the CSV's six decimals now, so the
			// oracle holds exactly the floats the daemon parses.
			pos[i] = Point{
				round6(clamp(v.X+rng.NormFloat64()*noise, width)),
				round6(clamp(v.Y+rng.NormFloat64()*noise, height)),
			}
		}
		ds.Objects[u] = pos
		ds.visits[u] = visits
		ds.CheckIns += n
	}
	return ds
}

// WriteCSV writes the check-in log in the daemon's -data schema, one
// row per check-in, objects in id order and each object's check-ins in
// position order, so the daemon rebuilds exactly Objects.
func (d *Dataset) WriteCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	ff := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	fmt.Fprintln(w, "user_id,venue_id,x_km,y_km,venue_x_km,venue_y_km")
	for u, pos := range d.Objects {
		for i, p := range pos {
			v := d.visits[u][i]
			fmt.Fprintf(w, "%d,%d,%s,%s,%s,%s\n", u, v, ff(p.X), ff(p.Y), ff(d.venues[v].X), ff(d.venues[v].Y))
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func weightedPick(rng *rand.Rand, w []float64, total float64) int {
	t := rng.Float64() * total
	for i, x := range w {
		t -= x
		if t <= 0 {
			return i
		}
	}
	return len(w) - 1
}

func round6(v float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 6, 64), 64)
	return r
}
