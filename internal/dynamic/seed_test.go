package dynamic

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/probfn"
)

// candidateMajorSeed is the reference seeding order: objects routed to
// their shards first, then every candidate into every engine, where
// AddCandidate classifies it against each object the engine holds.
func candidateMajorSeed(t *testing.T, engines []*Engine, objs []*object.Object, cands []geo.Point) {
	t.Helper()
	for _, o := range objs {
		if err := engines[ShardOf(o.ID, len(engines))].AddObject(o.ID, o.Positions); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cands {
		for _, e := range engines {
			e.AddCandidate(c)
		}
	}
}

func newEngines(t *testing.T, n int, pf probfn.Func, tau float64) []*Engine {
	t.Helper()
	engines := make([]*Engine, n)
	for k := range engines {
		e, err := New(pf, tau)
		if err != nil {
			t.Fatal(err)
		}
		engines[k] = e
	}
	return engines
}

// nibEdgeCandidates returns points at the NIB radius from o's MBR
// along each axis, and one ulp either side of each: the pairs where the
// R-tree query over the NIB box and Classify's NIB test must agree for
// the object-major and candidate-major orders to reach one verdict.
func nibEdgeCandidates(o *object.Object, radii *object.MarginTable) []geo.Point {
	rg := radii.Regions(o)
	r := math.Sqrt(rg.NIBSq)
	if math.IsInf(r, 0) || math.IsNaN(r) {
		return nil
	}
	m := rg.MBR
	edges := []geo.Point{
		{X: m.Max.X + r, Y: m.Min.Y},
		{X: m.Min.X - r, Y: m.Max.Y},
		{X: m.Min.X, Y: m.Max.Y + r},
		{X: m.Max.X, Y: m.Min.Y - r},
	}
	var out []geo.Point
	for i, p := range edges {
		for _, dir := range []float64{math.Inf(-1), 0, math.Inf(1)} {
			q := p
			if dir != 0 {
				if i < 2 {
					q.X = math.Nextafter(q.X, dir)
				} else {
					q.Y = math.Nextafter(q.Y, dir)
				}
			}
			out = append(out, q)
		}
	}
	return out
}

// TestSeedMatchesCandidateMajor requires Seed's object-major,
// shard-concurrent order to build the engines the candidate-major loop
// builds: the same per-shard state and work counters, and summed
// influences equal to NA's, over random populations with candidates on
// and one ulp either side of objects' NIB radii, across PF families
// and 1–4 shards.
func TestSeedMatchesCandidateMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var pfs []probfn.Func
	for _, name := range []string{"powerlaw", "exponential", "linear", "gaussian", "logsig"} {
		pf, err := probfn.ByName(name, 0.9, 1)
		if err != nil {
			t.Fatal(err)
		}
		pfs = append(pfs, pf)
	}
	for trial := 0; trial < 40; trial++ {
		pf := pfs[trial%len(pfs)]
		tau := []float64{0.3, 0.7}[trial%2]
		shards := 1 + trial%4
		// Far-off origins make the NIB box edges round differently
		// from the distance test.
		off := geo.Point{X: []float64{0, 1e3, -7e4}[trial%3], Y: []float64{0, -3e2, 5e5}[trial%3]}
		radii := object.NewMarginTable(pf, tau, tau)
		objs := make([]*object.Object, 1+rng.Intn(30))
		var cands []geo.Point
		for i := range objs {
			pos := randPositions(rng, 1+rng.Intn(6))
			for j := range pos {
				pos[j] = geo.Point{X: pos[j].X + off.X, Y: pos[j].Y + off.Y}
			}
			objs[i] = object.MustNew(rng.Intn(1000)*len(objs)+i, pos)
			if i < 3 {
				cands = append(cands, nibEdgeCandidates(objs[i], radii)...)
			}
		}
		for i := rng.Intn(20); i > 0; i-- {
			p := randPoint(rng)
			cands = append(cands, geo.Point{X: p.X + off.X, Y: p.Y + off.Y})
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })

		seeded := newEngines(t, shards, pf, tau)
		if err := Seed(seeded, objs, cands); err != nil {
			t.Fatal(err)
		}
		ref := newEngines(t, shards, pf, tau)
		candidateMajorSeed(t, ref, objs, cands)

		ids := make([]int, len(cands))
		for i := range ids {
			ids[i] = i
		}
		sum := make([]int, len(cands))
		for k := range seeded {
			if got, want := seeded[k].ExportState(), ref[k].ExportState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%s τ=%g, %d shards): shard %d state differs from the candidate-major seed",
					trial, pf.Name(), tau, shards, k)
			}
			if got, want := seeded[k].Stats(), ref[k].Stats(); got != want {
				t.Fatalf("trial %d: shard %d stats %+v, candidate-major %+v", trial, k, got, want)
			}
			st := seeded[k].Stats()
			if pairs := int64(seeded[k].Objects()) * int64(len(cands)); st.Validations+st.PrunedByIA+st.PrunedByNIB != pairs {
				t.Fatalf("trial %d: shard %d counted %+v over %d pairs", trial, k, st, pairs)
			}
			for i, v := range seeded[k].InfluenceVector(ids) {
				sum[i] += v
			}
		}
		if want := naInfluences(t, pf, tau, objs, cands); !reflect.DeepEqual(sum, want) {
			t.Fatalf("trial %d (%s τ=%g): summed influences %v, NA %v", trial, pf.Name(), tau, sum, want)
		}
	}
}

// TestSeedReportsFailures requires Seed to report a failing object
// whichever shard holds it.
func TestSeedReportsFailures(t *testing.T) {
	pf := probfn.DefaultPowerLaw()
	objs := []*object.Object{
		object.MustNew(1, []geo.Point{{X: 1, Y: 1}}),
		{ID: 2},
		object.MustNew(3, []geo.Point{{X: 2, Y: 2}}),
	}
	for shards := 1; shards <= 4; shards++ {
		err := Seed(newEngines(t, shards, pf, 0.7), objs, []geo.Point{{X: 1, Y: 1}})
		if !errors.Is(err, object.ErrNoPositions) {
			t.Fatalf("%d shards: error %v, want object 2's missing positions", shards, err)
		}
	}
	if err := Seed(nil, objs, nil); err == nil {
		t.Fatal("seeding no engines succeeded")
	}
}
