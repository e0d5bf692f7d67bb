package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"pinocchio/internal/core"
	"pinocchio/internal/geo"
	"pinocchio/internal/obs"
	"pinocchio/internal/optimize"
	"pinocchio/internal/probfn"
	"pinocchio/internal/subscribe"
)

// RectJSON is an axis-aligned rectangle on the wire.
type RectJSON struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

func rectJSON(r geo.Rect) RectJSON {
	return RectJSON{MinX: r.Min.X, MinY: r.Min.Y, MaxX: r.Max.X, MaxY: r.Max.Y}
}

func (r RectJSON) rect() geo.Rect {
	return geo.Rect{Min: geo.Point{X: r.MinX, Y: r.MinY}, Max: geo.Point{X: r.MaxX, Y: r.MaxY}}
}

// OptimizeRequest is the POST /v1/optimize body: the candidate-free
// placement question. Zero values select the paper's defaults
// (power-law ρ=0.9 λ=1.0); Tau is required.
type OptimizeRequest struct {
	// PF names the probability family (probfn.Families); Rho is the
	// probability at distance zero, Lambda the family's shape
	// parameter.
	PF     string  `json:"pf"`
	Rho    float64 `json:"rho"`
	Lambda float64 `json:"lambda"`
	// Tau is the influence threshold, required in (0,1).
	Tau float64 `json:"tau"`
	// TopR is how many top sweep regions to report (default 8).
	TopR int `json:"top_r"`
	// MaxRefine caps branch-and-bound cell expansions (default
	// optimize.DefaultMaxRefine; negative skips refinement — sweep
	// bound only).
	MaxRefine int `json:"max_refine"`
	// Bounds optionally constrains the placement to a rectangle.
	Bounds *RectJSON `json:"bounds,omitempty"`
	// TimeoutMs bounds the optimization; capped at MaxTimeout, which
	// also applies when 0. Negative values are rejected with 400.
	TimeoutMs int `json:"timeout_ms"`
}

// RegionJSON is one swept region with its cover count on the wire.
type RegionJSON struct {
	Rect  RectJSON `json:"rect"`
	Count int      `json:"count"`
}

// OptimizeResponse is the POST /v1/optimize result. The bound
// invariant: inf(p) ≤ UpperBound at every feasible point p; when
// Resolved, BestPoint is a proven global optimum.
type OptimizeResponse struct {
	Best          PointJSON `json:"best"`
	BestInfluence int       `json:"best_influence"`
	BestCell      RectJSON  `json:"best_cell"`
	UpperBound    int       `json:"upper_bound"`
	Gap           int       `json:"gap"`
	Resolved      bool      `json:"resolved"`
	SweepMax      int       `json:"sweep_max"`
	IAMax         int       `json:"ia_max"`
	// Regions are the top sweep regions by upper-bound cover;
	// IARegions carry guaranteed-influence floors.
	Regions   []RegionJSON `json:"regions,omitempty"`
	IARegions []RegionJSON `json:"ia_regions,omitempty"`
	PF        string       `json:"pf"`
	Tau       float64      `json:"tau"`
	Objects   int          `json:"objects"`
	Epoch     int64        `json:"epoch"`
	ElapsedMs float64      `json:"elapsed_ms"`
	TraceID   string       `json:"trace_id,omitempty"`
	// Cost is this run's work ledger: swept rects, sweep events,
	// refinement cells and exact solves.
	Cost *optimize.Cost `json:"cost,omitempty"`
}

func regionsJSON(rs []optimize.Region) []RegionJSON {
	if len(rs) == 0 {
		return nil
	}
	out := make([]RegionJSON, len(rs))
	for i, r := range rs {
		out[i] = RegionJSON{Rect: rectJSON(r.Rect), Count: r.Count}
	}
	return out
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	// Optimize runs are solver-class work: the same admission gate as
	// queries, shed with 429 at capacity.
	select {
	case s.inflight <- struct{}{}:
		recordInflight(+1)
		s.inflightNow.Add(1)
		defer func() {
			<-s.inflight
			recordInflight(-1)
			s.inflightNow.Add(-1)
		}()
	default:
		recordShed()
		s.shedTotal.Add(1)
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests,
			"server at capacity (%d queries in flight)", s.cfg.MaxInflight)
		return
	}

	req := OptimizeRequest{
		PF:     subscribe.DefaultPF,
		Rho:    subscribe.DefaultRho,
		Lambda: subscribe.DefaultLambda,
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	pf, err := probfn.ByName(req.PF, req.Rho, req.Lambda)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !(req.Tau > 0 && req.Tau < 1) {
		writeErr(w, http.StatusBadRequest, "tau %v outside (0,1)", req.Tau)
		return
	}
	if req.TopR < 0 {
		writeErr(w, http.StatusBadRequest, "top_r %d must be non-negative", req.TopR)
		return
	}
	var bounds *geo.Rect
	if req.Bounds != nil {
		b := req.Bounds.rect()
		if b.Min.X > b.Max.X || b.Min.Y > b.Max.Y {
			writeErr(w, http.StatusBadRequest, "inverted bounds %+v", *req.Bounds)
			return
		}
		bounds = &b
	}
	timeout, ok := s.timeoutFor(w, req.TimeoutMs, s.cfg.MaxTimeout)
	if !ok {
		return
	}

	tr := traceFrom(r.Context())
	tr.SetAlgorithm("optimize")

	sn := s.snapshotNow()
	tr.SetEpoch(sn.epoch)
	if len(sn.objects) == 0 {
		writeErr(w, http.StatusConflict, "nothing to optimize over: 0 objects")
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	resp, err := s.solveOptimize(ctx, sn, &req, pf, bounds)
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeErr(w, http.StatusServiceUnavailable,
				"optimize aborted after %v: %v", elapsed.Round(time.Millisecond), err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "optimize failed: %v", err)
		return
	}
	resp.ElapsedMs = float64(elapsed) / float64(time.Millisecond)
	recordOptimize(resp.Resolved, elapsed, resp.Cost)
	s.addOptimizeWork(resp.Cost)
	writeJSON(w, http.StatusOK, resp)
}

// solveOptimize runs the candidate-free placement over the snapshot.
// Rect extraction parallelizes over the shard partitions (it is pure
// per-object work); the sweep and refinement are global — per-shard
// sweep maxima are NOT mergeable (the same caveat as the VO
// shortcuts), only the rect sets are.
func (s *Server) solveOptimize(ctx context.Context, sn *snapshot, req *OptimizeRequest, pf probfn.Func, bounds *geo.Rect) (*OptimizeResponse, error) {
	tr := traceFrom(ctx)
	root := tr.StartSpan("optimize")

	// Scatter: one CollectRects per shard partition, concatenated into
	// a single global rect set. Each shard's extraction gets its own
	// child span and the gather records straggler stats, same as the
	// scattered solve path.
	sp := root.Child("collect-rects")
	parts := make([][]optimize.ObjectRects, len(sn.parts))
	durs := make([]time.Duration, len(sn.parts))
	var wg sync.WaitGroup
	for i, ps := range sn.parts {
		if len(ps.objects) == 0 {
			continue
		}
		cs := sp.Child("shard")
		cs.SetAttr("shard", i)
		cs.SetAttr("objects", len(ps.objects))
		wg.Add(1)
		go func() {
			defer wg.Done()
			shardStart := time.Now()
			parts[i] = optimize.CollectRects(ps.objects, pf, req.Tau)
			durs[i] = time.Since(shardStart)
			cs.End()
		}()
	}
	wg.Wait()
	core.RecordScatter(sp, durs)
	sp.End()
	var rects []optimize.ObjectRects
	if len(parts) == 1 {
		rects = parts[0]
	} else {
		rects = make([]optimize.ObjectRects, 0, len(sn.objects))
		for _, pr := range parts {
			rects = append(rects, pr...)
		}
	}

	cost := &optimize.Cost{}
	cost.AddShardRectSets(int64(len(sn.parts)))
	p := &optimize.Problem{
		PF:        pf,
		Tau:       req.Tau,
		Bounds:    bounds,
		TopR:      req.TopR,
		MaxRefine: req.MaxRefine,
		Rects:     rects,
		Ctx:       ctx,
		Obs:       root,
		TraceID:   obs.TraceIDFrom(ctx),
		Cost:      cost,
	}
	res, err := optimize.Optimize(p)
	if err != nil {
		return nil, err
	}
	return &OptimizeResponse{
		Best:          PointJSON{X: res.BestPoint.X, Y: res.BestPoint.Y},
		BestInfluence: res.BestInfluence,
		BestCell:      rectJSON(res.BestCell),
		UpperBound:    res.UpperBound,
		Gap:           res.Gap,
		Resolved:      res.Resolved,
		SweepMax:      res.SweepMax,
		IAMax:         res.IAMax,
		Regions:       regionsJSON(res.Regions),
		IARegions:     regionsJSON(res.IARegions),
		PF:            pf.Name(),
		Tau:           req.Tau,
		Objects:       res.Objects,
		Epoch:         sn.epoch,
		TraceID:       p.TraceID,
		Cost:          cost,
	}, nil
}
