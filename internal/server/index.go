package server

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"pinocchio/internal/core"
	"pinocchio/internal/obs"
	"pinocchio/internal/probfn"
)

// indexGrid is the τ grid the index intervals snap to: an entry built
// for τ covers τ's whole 1/64 cell, and a τ outside an entry widens it
// to the union of the two intervals, so a sweep over many τ values
// settles after a few builds.
const indexGrid = 64

// gridCell returns the 1/indexGrid cell containing tau, endpoints
// snapped outward.
func gridCell(tau float64) (lo, hi float64) {
	return math.Floor(tau*indexGrid) / indexGrid, math.Ceil(tau*indexGrid) / indexGrid
}

// indexKey names one cached influence index: the shard snapshot it was
// built over — which pins the objects and the candidate set, so a key
// can never alias another population — and the PF.
type indexKey struct {
	snap *shardSnap
	pf   string
}

// pfKey renders the PF parameters of a query as an index key.
func pfKey(family string, rho, lambda float64) string {
	return fmt.Sprintf("%s|%g|%g", family, rho, lambda)
}

// indexEntry is one LRU node. ix is nil until the entry's first build
// lands; building is non-nil while a build is in flight and is closed
// when it ends; el is the entry's list element while it is cached.
type indexEntry struct {
	key      indexKey
	ix       *core.Index
	bytes    int64
	building chan struct{}
	el       *list.Element
}

// indexCache is the LRU of influence indexes, bounded by entry count
// (Config.PlanCacheSize). Each entry belongs to a shard snapshot: when
// a shard publishes a newer snapshot, drop releases the old one's
// entries, so memory follows the live population. With max <= 0 every
// build is evicted as it lands: get builds for its callers and keeps
// nothing.
type indexCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[indexKey]*indexEntry
	bytes int64
}

func newIndexCache(max int) *indexCache {
	return &indexCache{max: max, ll: list.New(), items: make(map[indexKey]*indexEntry)}
}

// get returns an index of key covering tau. On a miss it runs build on
// the caller's goroutine over tau's grid cell, widened to the union
// with the cached entry's interval; concurrent callers needing the same
// entry wait for that build instead of repeating it, and give up when
// ctx ends. built reports whether this call ran a build.
func (c *indexCache) get(ctx context.Context, key indexKey, tau float64, build func(lo, hi float64) (*core.Index, error)) (ix *core.Index, built bool, err error) {
	for {
		c.mu.Lock()
		e := c.items[key]
		if e != nil && e.ix != nil && e.ix.Covers(tau) {
			c.ll.MoveToFront(e.el)
			ix = e.ix
			c.mu.Unlock()
			return ix, false, nil
		}
		if e != nil && e.building != nil {
			wait := e.building
			c.mu.Unlock()
			select {
			case <-wait:
				continue
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		lo, hi := gridCell(tau)
		if e == nil {
			e = &indexEntry{key: key}
			if !key.snap.retired {
				e.el = c.ll.PushFront(e)
				c.items[key] = e
			}
		} else {
			olo, ohi := e.ix.Interval()
			lo, hi = math.Min(lo, olo), math.Max(hi, ohi)
		}
		done := make(chan struct{})
		e.building = done
		c.mu.Unlock()

		ix, err = build(lo, hi)

		c.mu.Lock()
		e.building = nil
		close(done)
		switch {
		case err == nil:
			if e.el != nil {
				c.bytes += ix.Bytes() - e.bytes
				c.ll.MoveToFront(e.el)
			}
			e.ix, e.bytes = ix, ix.Bytes()
			c.evict()
		case e.ix == nil && e.el != nil:
			c.remove(e)
		}
		c.mu.Unlock()
		return ix, err == nil, err
	}
}

// evict removes least recently used entries beyond capacity, skipping
// entries with a build in flight. Caller holds c.mu.
func (c *indexCache) evict() {
	for el := c.ll.Back(); el != nil && c.ll.Len() > c.max; {
		prev := el.Prev()
		if e := el.Value.(*indexEntry); e.building == nil {
			c.remove(e)
		}
		el = prev
	}
}

// remove unlinks e. Caller holds c.mu.
func (c *indexCache) remove(e *indexEntry) {
	c.ll.Remove(e.el)
	delete(c.items, e.key)
	c.bytes -= e.bytes
	e.el = nil
}

// drop retires a shard snapshot that a newer one replaced: its entries
// leave the cache, and builds still running over it (for queries that
// took the snapshot before the swap) stay uncached.
func (c *indexCache) drop(snap *shardSnap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap.retired = true
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*indexEntry); e.key.snap == snap {
			c.remove(e)
		}
		el = next
	}
}

// stats reports the cached entry count and the bytes their tables hold.
func (c *indexCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}

// indexServes reports whether a query is answered by indexInfluences
// (engine vectors or influence indexes): the full-vector and
// bound-ordered solvers, whose answers both reproduce exactly, with
// the index cache enabled. EXPLAIN requests, NA and PIN-VO* run their
// solver live, and so does every query when the index cache is
// disabled, which keeps such a server an independent reference.
func (s *Server) indexServes(algo string, explain bool) bool {
	if s.cfg.PlanCacheSize <= 0 || explain {
		return false
	}
	switch algo {
	case "pin", "pin-vo", "pin-par":
		return true
	}
	return false
}

// indexInfluences answers (pf, τ) over the snapshot by summing one
// influence vector per shard, one shard after another on the caller's
// goroutine. At the engine's own PF/τ each shard's vector is its
// snapshot's engine vector, read in O(m); at any other pair it comes
// from the shard's index of PF pf (key pfk), built or widened on a
// miss. With several shards this is the scatter path: it counts in
// scatter_solves/merges, gets a shard-N span per shard and a straggler
// record on sp. The returned Stats describe this request's work: r·m
// pairs, plus the counters of any build it ran.
func (s *Server) indexInfluences(ctx context.Context, sn *snapshot, pfk string, pf probfn.Func, tau float64, sp *obs.Span) ([]int, core.Stats, error) {
	m := len(sn.candPts)
	inf := make([]int, m)
	st := core.Stats{PairsTotal: int64(len(sn.objects)) * int64(m)}
	// pf comes from probfn.ByName, whose families are all comparable
	// structs, so this interface comparison cannot panic.
	engine := pf == s.cfg.PF && tau == s.cfg.Tau
	scatter := len(sn.parts) > 1
	if scatter {
		s.scatterSolves.Add(1)
	}
	durs := make([]time.Duration, len(sn.parts))
	var distinctN map[int]struct{}
	miss := false
	for i, ps := range sn.parts {
		if len(ps.objects) == 0 {
			continue
		}
		start := time.Now()
		psp := sp
		if scatter {
			psp = sp.Child(fmt.Sprintf("shard-%d", i))
			psp.SetAttr("shard", i)
			psp.SetAttr("objects", len(ps.objects))
		}
		var ix *core.Index
		var built bool
		var err error
		if engine {
			for c, v := range ps.inf {
				inf[c] += v
			}
		} else {
			ix, built, err = s.indexes.get(ctx, indexKey{snap: ps, pf: pfk}, tau, func(lo, hi float64) (*core.Index, error) {
				bstart := time.Now()
				ix, err := core.BuildIndex(&core.Problem{
					Objects:    ps.objects,
					Candidates: sn.candPts,
					PF:         pf,
					Ctx:        ctx,
					Obs:        psp,
				}, lo, hi, sn.candTree())
				if err == nil {
					recordPlanBuild(time.Since(bstart))
				}
				return ix, err
			})
			if err == nil {
				recordPlanCache(!built)
				ix.AddInfluences(tau, inf)
			}
		}
		if scatter {
			psp.End()
		}
		if err != nil {
			return nil, st, err
		}
		if built {
			miss = true
			bst := ix.Stats()
			bst.PairsTotal = 0
			st.Merge(bst)
			if distinctN == nil {
				distinctN = map[int]struct{}{}
			}
			for _, o := range ps.objects {
				distinctN[o.N()] = struct{}{}
			}
		}
		durs[i] = time.Since(start)
	}
	// DistinctN counts position counts over every object a build
	// touched, not the per-shard maximum Merge keeps.
	st.DistinctN = len(distinctN)
	if scatter {
		core.RecordScatter(sp, durs)
		s.recordShardScatter(durs)
	}
	switch {
	case engine:
		// No index was consulted: the trace carries no plan-cache outcome.
	case miss:
		traceFrom(ctx).SetPlanCache("miss")
	default:
		traceFrom(ctx).SetPlanCache("hit")
	}
	return inf, st, nil
}
