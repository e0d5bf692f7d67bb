package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"pinocchio/internal/core"
	"pinocchio/internal/dynamic"
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/obs"
	"pinocchio/internal/optimize"
	"pinocchio/internal/probfn"
	"pinocchio/internal/server"
	"pinocchio/internal/store"
	"pinocchio/internal/subscribe"
	"pinocchio/internal/wal"
	"pinocchio/perfbench/load"
)

// replay re-runs a workload's op stream in-process, calling each
// layer's public entry point in the order the daemon does and
// recording every call as a span. Alongside, each op is sent through an
// in-process server.Server configured like the daemon (shards =
// NumCPU, default caches, durable under fsync "always"), so the
// server's own time per op can be set against the layer calls.
//
// The direct path keeps the daemon's reuse rules: one candidate tree,
// one plan per (epoch, PF, τ), one result per (epoch, request), one
// guard per subscription. It runs one unsharded engine and one WAL
// stream; the server runs the daemon's shards.
type replay struct {
	rec   *Recorder
	cands []geo.Point
	tau   float64

	eng   *dynamic.Engine
	st    *store.Store
	epoch int
	objs  []*object.Object // population snapshot taken at epoch objsE
	objsE int
	tree  *core.CandTree

	plans   map[string]*core.Plan
	results map[string]bool

	srv    *server.Server
	stores []*store.Store

	subs   []*guarded
	nextRS int // op ids for re-solves, which get their own root spans

	// Counts from the calls' return values.
	stats      []core.Stats
	optCosts   []*optimize.Cost
	valsPerW   []float64
	observed   int
	suppressed int
	batches    int
	positions  int
}

// guarded is one standing query on the direct path.
type guarded struct {
	q     load.SubQuery
	guard *dynamic.TopKGuard
}

const (
	resolveOpBase = 1 << 30
	maxPlans      = 8
)

func newReplay(dir string, ds *load.Dataset, cands []load.Point) (*replay, error) {
	obs.Enable()
	r := &replay{rec: newRecorder(), tau: load.DefaultTau, plans: map[string]*core.Plan{}, results: map[string]bool{}, nextRS: resolveOpBase}
	for _, c := range cands {
		r.cands = append(r.cands, geo.Point{X: c.X, Y: c.Y})
	}
	pf := probfn.DefaultPowerLaw()
	var err error
	if r.eng, err = dynamic.New(pf, r.tau); err != nil {
		return nil, err
	}
	for id, pos := range ds.Objects {
		if err := r.eng.AddObject(id, points(pos)); err != nil {
			return nil, err
		}
	}
	for _, c := range r.cands {
		r.eng.AddCandidate(c)
	}
	if r.st, err = store.Open(filepath.Join(dir, "direct-wal"), store.Options{Fsync: wal.PolicyAlways}); err != nil {
		return nil, err
	}

	// The in-process server boots the way the daemon's durable path
	// does: sharded stores, fresh recovery, seeded engines, seed
	// checkpoint.
	shards := runtime.NumCPU()
	if r.stores, err = store.OpenSharded(filepath.Join(dir, "server-data"), shards, store.Options{Fsync: wal.PolicyAlways}); err != nil {
		return nil, err
	}
	results, err := store.RecoverSharded(r.stores, pf, r.tau, fmt.Sprintf("pf=powerlaw rho=0.9 lambda=1 tau=%g", r.tau))
	if err != nil {
		return nil, err
	}
	for id, pos := range ds.Objects {
		if err := results[dynamic.ShardOf(id, shards)].Engine.AddObject(id, points(pos)); err != nil {
			return nil, err
		}
	}
	for _, c := range r.cands {
		for _, res := range results {
			res.Engine.AddCandidate(c)
		}
	}
	for i, st := range r.stores {
		if err := st.Checkpoint(results[i].Engine.ExportState(), 0, 0); err != nil {
			return nil, err
		}
	}
	r.srv, err = server.NewFromRecovery(server.Config{PF: pf, Tau: r.tau, Stores: r.stores}, results)
	return r, err
}

func (r *replay) close() {
	_ = r.srv.Shutdown(context.Background())
	r.srv.DrainCheckpoints()
	for _, st := range r.stores {
		st.Close()
	}
	r.st.Close()
}

func points(ps []load.Point) []geo.Point {
	out := make([]geo.Point, len(ps))
	for i, p := range ps {
		out[i] = geo.Point{X: p.X, Y: p.Y}
	}
	return out
}

// snapshot returns the population at the current epoch, as the daemon
// assembles it once per epoch.
func (r *replay) snapshot(op, parent int) []*object.Object {
	if r.objs == nil || r.objsE != r.epoch {
		r.rec.Call(op, parent, "dynamic.SnapshotObjects", func() { r.objs = r.eng.SnapshotObjects() })
		r.objsE = r.epoch
	}
	return r.objs
}

// serve sends one request through the in-process server as a root
// span of op and decodes a 2xx body into out.
func (r *replay) serve(op int, method, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	r.rec.Call(op, 0, "server.ServeHTTP", func() { r.srv.ServeHTTP(w, req) })
	if w.Code/100 != 2 {
		return fmt.Errorf("in-process %s %s: HTTP %d %s", method, path, w.Code, w.Body.String())
	}
	if out != nil {
		return json.Unmarshal(w.Body.Bytes(), out)
	}
	return nil
}

// plan returns the plan for (epoch, pf, τ), building it on first use.
func (r *replay) plan(op, parent int, pfKey string, pf probfn.Func, tau float64, objs []*object.Object) (*core.Plan, error) {
	key := fmt.Sprintf("%d|%s|%g", r.epoch, pfKey, tau)
	if pl, ok := r.plans[key]; ok {
		return pl, nil
	}
	if len(r.plans) >= maxPlans {
		// Plans of older epochs are never asked for again; at paper
		// scale each one holds tens of megabytes.
		clear(r.plans)
	}
	if r.tree == nil {
		r.rec.Call(op, parent, "core.NewCandTree", func() { r.tree = core.NewCandTree(r.cands, 0) })
	}
	var pl *core.Plan
	var err error
	r.rec.Call(op, parent, "core.BuildPlan", func() {
		pl, err = core.BuildPlan(&core.Problem{Objects: objs, Candidates: r.cands, PF: pf, Tau: tau}, r.tree)
	})
	if err != nil {
		return nil, err
	}
	r.plans[key] = pl
	return pl, nil
}

// solve runs one solver with a prebuilt plan, as the daemon's combined
// path does, and returns the full influence vector when it has one.
func (r *replay) solve(op, parent int, algo string, k int, p *core.Problem) ([]int, error) {
	var st *core.Stats
	var inf []int
	var err error
	switch {
	case algo == "pin-vo" && k > 1:
		r.rec.Call(op, parent, "core.PinocchioVOTopT", func() {
			_, st, err = core.PinocchioVOTopT(p, k)
		})
	case algo == "pin-par":
		var res *core.Result
		r.rec.Call(op, parent, "core.PinocchioParallel", func() { res, err = core.PinocchioParallel(p, 0) })
		if err == nil {
			st, inf = &res.Stats, res.Influences
		}
	default:
		alg := map[string]core.Algorithm{"pin": core.AlgPinocchio, "pin-vo": core.AlgPinocchioVO}[algo]
		var res *core.Result
		r.rec.Call(op, parent, "core.Solve", func() { res, err = core.Solve(alg, p) })
		if err == nil {
			st, inf = &res.Stats, res.Influences
		}
	}
	if err != nil {
		return nil, err
	}
	r.stats = append(r.stats, *st)
	return inf, nil
}

func (r *replay) query(op int, q *load.QueryReq) error {
	root, end := r.rec.Root(op, "op.query")
	defer end()
	var pf probfn.Func
	var err error
	r.rec.Call(op, root, "probfn.ByName", func() { pf, err = probfn.ByName(q.PF, q.Rho, q.Lambda) })
	if err != nil {
		return err
	}
	objs := r.snapshot(op, root)
	pfKey := fmt.Sprintf("%s|%g|%g", q.PF, q.Rho, q.Lambda)
	resKey := fmt.Sprintf("%d|%s|%s|%g|%d", r.epoch, q.Algorithm, pfKey, q.Tau, q.K)
	if !r.results[resKey] {
		pl, err := r.plan(op, root, pfKey, pf, q.Tau, objs)
		if err != nil {
			return err
		}
		if _, err := r.solve(op, root, q.Algorithm, q.K, &core.Problem{Objects: objs, Candidates: r.cands, PF: pf, Tau: q.Tau, Plan: pl}); err != nil {
			return err
		}
		r.results[resKey] = true
	}
	end()
	return r.serve(op, "POST", "/v1/query", q, nil)
}

func (r *replay) optimize(op int, o *load.OptimizeReq) error {
	root, end := r.rec.Root(op, "op.optimize")
	defer end()
	var pf probfn.Func
	var err error
	r.rec.Call(op, root, "probfn.ByName", func() { pf, err = probfn.ByName("powerlaw", 0.9, 1) })
	if err != nil {
		return err
	}
	objs := r.snapshot(op, root)
	var rects []optimize.ObjectRects
	r.rec.Call(op, root, "optimize.CollectRects", func() { rects = optimize.CollectRects(objs, pf, o.Tau) })
	b := geo.Rect{Min: geo.Point{X: o.Bounds.MinX, Y: o.Bounds.MinY}, Max: geo.Point{X: o.Bounds.MaxX, Y: o.Bounds.MaxY}}
	cost := &optimize.Cost{}
	r.rec.Call(op, root, "optimize.Optimize", func() {
		_, err = optimize.Optimize(&optimize.Problem{PF: pf, Tau: o.Tau, Bounds: &b, MaxRefine: o.MaxRefine, Rects: rects, Cost: cost})
	})
	if err != nil {
		return err
	}
	r.optCosts = append(r.optCosts, cost)
	end()
	return r.serve(op, "POST", "/v1/optimize", o, nil)
}

// write logs and applies one record on the direct path (encode, WAL
// append, engine apply), then sends the same write through the server.
func (r *replay) write(op int, rec *store.Record, path string, body any) error {
	root, end := r.rec.Root(op, "op.write")
	defer end()
	var err error
	r.rec.Call(op, root, "store.Record.Encode", func() { _, err = rec.Encode() })
	if err != nil {
		return err
	}
	r.rec.Call(op, root, "store.Store.Append", func() { _, err = r.st.Append(rec) })
	if err != nil {
		return err
	}
	before := r.eng.Stats().Validations
	r.rec.Call(op, root, "store.Record.Apply", func() { _, err = rec.Apply(r.eng) })
	if err != nil {
		return err
	}
	r.valsPerW = append(r.valsPerW, float64(r.eng.Stats().Validations-before))
	r.epoch++
	end()
	return r.serve(op, "POST", path, body, nil)
}

func (r *replay) appendOp(op int, a *load.Append) error {
	r.positions += len(a.Positions)
	rec := &store.Record{Op: store.OpAddPosition, ID: int64(a.ID), Positions: points(a.Positions)}
	return r.write(op, rec, fmt.Sprintf("/v1/objects/%d/positions", a.ID), map[string]any{"positions": a.Positions})
}

func (r *replay) ingest(op int, batch []load.Append) error {
	rec := &store.Record{Op: store.OpIngestBatch}
	for _, a := range batch {
		rec.Appends = append(rec.Appends, store.Append{ID: int64(a.ID), Positions: points(a.Positions)})
		r.positions += len(a.Positions)
	}
	if err := r.write(op, rec, "/v1/ingest", map[string]any{"appends": batch}); err != nil {
		return err
	}
	return r.observe(op, batch)
}

// subscribe arms a guard for q from an exact solve.
func (r *replay) subscribe(q load.SubQuery) error {
	g := &guarded{q: q}
	r.subs = append(r.subs, g)
	return r.resolve(g)
}

// observe folds one applied batch into every guard, re-solving the
// standing queries whose guard can no longer certify their answer.
func (r *replay) observe(op int, batch []load.Append) error {
	r.batches++
	var appended []*object.Object
	for _, a := range batch {
		o, err := r.eng.Object(a.ID)
		if err != nil {
			return err
		}
		appended = append(appended, o)
	}
	for _, g := range r.subs {
		ok := false
		r.rec.Call(op, 0, "dynamic.TopKGuard.Observe", func() { ok = g.guard.Observe(appended) })
		r.observed++
		if ok {
			r.suppressed++
			continue
		}
		if err := r.resolve(g); err != nil {
			return err
		}
	}
	return nil
}

// resolve is the subscription re-solve: plan, full-vector solve,
// ranking and a fresh guard; then the server's own re-solve entry
// point for the same query.
func (r *replay) resolve(g *guarded) error {
	r.nextRS++
	op := r.nextRS
	root, end := r.rec.Root(op, "subscribe.resolve")
	pf := probfn.DefaultPowerLaw()
	objs := r.snapshot(op, root)
	pl, err := r.plan(op, root, "powerlaw|0.9|1", pf, g.q.Tau, objs)
	if err != nil {
		end()
		return err
	}
	inf, err := r.solve(op, root, g.q.Algorithm, 0, &core.Problem{Objects: objs, Candidates: r.cands, PF: pf, Tau: g.q.Tau, Plan: pl})
	if err != nil {
		end()
		return err
	}
	var cands []dynamic.GuardCandidate
	for _, id := range g.q.Candidates {
		cands = append(cands, dynamic.GuardCandidate{ID: id, Pt: r.cands[id], Influence: inf[id]})
	}
	r.rec.Call(op, root, "dynamic.NewTopKGuard", func() { g.guard, err = dynamic.NewTopKGuard(pf, g.q.Tau, g.q.K, cands) })
	end()
	if err != nil {
		return err
	}
	k := g.q.K
	sq := &subscribe.Query{Candidates: g.q.Candidates, Tau: g.q.Tau, K: &k, Algorithm: g.q.Algorithm}
	r.rec.Call(op, 0, "server.SolveTopK", func() { _, err = r.srv.SolveTopK(sq) })
	return err
}

// run replays ops until the stream ends or budget passes.
func (r *replay) run(ops []load.Op, budget time.Duration) (int, error) {
	start := time.Now()
	for i := range ops {
		if time.Since(start) > budget {
			return i, nil
		}
		op := &ops[i]
		var err error
		switch {
		case op.Query != nil:
			err = r.query(i, op.Query)
		case op.Optimize != nil:
			err = r.optimize(i, op.Optimize)
		case op.Append != nil:
			err = r.appendOp(i, op.Append)
		default:
			err = r.ingest(i, op.Ingest)
		}
		if err != nil {
			return i, fmt.Errorf("op %d (%s): %w", i, op.Class(), err)
		}
	}
	return len(ops), nil
}

// probe exercises the layers a workload's own stream never reaches, so
// every layer metric has a value on every workload: optimize calls,
// single-object appends, and two standing queries observing ingest
// batches. Probe rows are labelled as such in the report.
func (r *replay) probe(ds *load.Dataset, seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x9e0b))
	op := 1 << 29
	if len(r.optCosts) == 0 {
		for _, b := range load.Districts(rng, ds.Width, ds.Height)[:4] {
			op++
			if err := r.optimize(op, &load.OptimizeReq{Tau: load.DefaultTau, MaxRefine: 200, Bounds: b}); err != nil {
				return err
			}
		}
	}
	walk := func(id int) load.Append {
		o, _ := r.eng.Object(id) // id < len(ds.Objects): always tracked
		p := o.Positions[len(o.Positions)-1]
		return load.Append{ID: id, Positions: []load.Point{{X: p.X + rng.NormFloat64()*0.3, Y: p.Y + rng.NormFloat64()*0.3}}}
	}
	if len(r.valsPerW) == 0 {
		for i := 0; i < 16; i++ {
			a := walk(rng.Intn(len(ds.Objects)))
			op++
			if err := r.appendOp(op, &a); err != nil {
				return err
			}
		}
	}
	if len(r.subs) == 0 {
		all := make([]int, len(r.cands))
		for i := range all {
			all[i] = i
		}
		for _, q := range []load.SubQuery{{Candidates: all, Tau: r.tau, K: 5, Algorithm: "pin"}, {Candidates: all, Tau: r.tau, K: 3, Algorithm: "pin-par"}} {
			if err := r.subscribe(q); err != nil {
				return err
			}
		}
		for i := 0; i < 8; i++ {
			ids := rng.Perm(len(ds.Objects))[:1+rng.Intn(min(8, len(ds.Objects)))]
			var batch []load.Append
			for _, id := range ids {
				batch = append(batch, walk(id))
			}
			op++
			if err := r.ingest(op, batch); err != nil {
				return err
			}
		}
	}
	return nil
}

// status reads the in-process server's /v1/status.
func (r *replay) status() (map[string]any, error) {
	req := httptest.NewRequest(http.MethodGet, "/v1/status", nil)
	w := httptest.NewRecorder()
	r.srv.ServeHTTP(w, req)
	out := map[string]any{}
	return out, json.Unmarshal(w.Body.Bytes(), &out)
}
