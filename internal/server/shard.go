// Shard-per-core serving (DESIGN.md §13): the object population Ω is
// partitioned across N shards by dynamic.ShardOf, each shard owning
// its own engine, epoch, WAL stream and snapshot (and, through the
// snapshot, its engine influence vector and influence indexes). Object
// mutations lock exactly one shard, so writers on different shards run
// concurrently instead of serializing behind one global lock;
// candidate mutations (which every shard must see — each engine holds
// the full candidate set) lock all shards in ascending order under the
// topology write lock. Queries assemble a combined snapshot from the
// per-shard snapshots and sum per-shard influence — from each shard
// snapshot's engine vector at the engine's PF/τ, from its influence
// index at any other PF/τ, or for live full-vector solves through
// core.SolveSharded (influence is additive over any partition of Ω).
//
// Every applied mutation, on one shard or all, sends the subscription
// manager one BatchNote at the new global epoch; each subscription
// solved below that epoch re-solves against the next snapshot.
//
// Consistency: a combined snapshot is NOT one instant of wall time —
// shard A's half may be older than shard B's — but every mutation
// touches exactly one shard's objects, so any combination of
// per-shard states is a state some serialization of the mutations
// passes through; candidate mutations, which cross shards, exclude
// snapshot assembly via topoMu, so the candidate set is never torn.
// The global epoch is the sum of the per-shard epochs: every applied
// record raises it, but (5,3) and (4,4) are different populations with
// the same sum, so no cache is keyed on it — influence indexes belong
// to the shard snapshot they were built over.
package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pinocchio/internal/core"
	"pinocchio/internal/dynamic"
	"pinocchio/internal/geo"
	"pinocchio/internal/object"
	"pinocchio/internal/store"
	"pinocchio/internal/subscribe"
)

// shard is one slice of the object population: an engine holding that
// slice (plus the full candidate set), its mutation epoch, its durable
// stream and its cached object snapshot.
type shard struct {
	idx int

	// mu is this shard's single-writer/many-reader gate. Lock order:
	// topoMu before any shard lock, shard locks in ascending index
	// order; object ops take only their own shard's lock.
	mu     sync.RWMutex
	engine *dynamic.Engine
	epoch  int64

	// store is this shard's WAL stream + checkpoint chain; nil when
	// the server is not durable.
	store *store.Store

	// snap caches the shard's object snapshot; rebuilt when the epoch
	// moved. indexes is the server's index cache, told to drop a
	// snapshot's indexes when a newer snapshot replaces it.
	snap    atomic.Pointer[shardSnap]
	indexes *indexCache

	// Scatter attribution: cumulative wall time, solve count and peak
	// duration of this shard's sub-solves, fed by solveScattered from
	// core.SolveSharded's per-part timings and surfaced per shard in
	// /v1/status — which shard the stragglers live on, over all time.
	scatterSolves atomic.Int64
	scatterNS     atomic.Int64
	scatterMaxNS  atomic.Int64
}

// shardSnap is one immutable view of a shard's objects under one
// candidate set; it owns the influence indexes built over it.
type shardSnap struct {
	epoch   int64
	cs      *candSet
	objects []*object.Object
	// inf is the shard engine's influence vector at the engine's PF/τ,
	// aligned to cs.ids. It is read under the same lock as objects, so
	// both describe one epoch.
	inf []int

	// retired is set, under the index cache's mutex, once a newer
	// snapshot replaced this one: builds over it stay uncached.
	retired bool
}

// snapNow returns the shard's current snapshot, reusing the cached one
// while the epoch and candidate set have not moved. The snapshot is
// published with CompareAndSwap under the shard's read lock, which
// pins the epoch, so every reader at one epoch shares one snapshot —
// and therefore one set of index builds. Caller holds topoMu, so cs
// is the engine's candidate set.
func (sh *shard) snapNow(cs *candSet) *shardSnap {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	old := sh.snap.Load()
	if old != nil && old.epoch == sh.epoch && old.cs == cs {
		return old
	}
	sp := &shardSnap{
		epoch:   sh.epoch,
		cs:      cs,
		objects: sh.engine.SnapshotObjects(),
		inf:     sh.engine.InfluenceVector(cs.ids),
	}
	if !sh.snap.CompareAndSwap(old, sp) {
		// A concurrent reader at this epoch published first.
		return sh.snap.Load()
	}
	if old != nil {
		sh.indexes.drop(old)
	}
	return sp
}

// candSet is the shared candidate view: ids, points and the lazily
// built R-tree. It is rebuilt only when a candidate mutation moves
// candGen — object mutations leave it untouched, so the slices keep
// their identity and a shard's snapshot (with its indexes) survives
// other shards' object churn.
type candSet struct {
	gen      int64
	ids      []int
	pts      []geo.Point
	treeOnce sync.Once
	tree     *core.CandTree
}

// candTree returns the shared candidate R-tree, building it on first
// use.
func (cs *candSet) candTree() *core.CandTree {
	cs.treeOnce.Do(func() {
		cs.tree = core.NewCandTree(cs.pts, 0)
	})
	return cs.tree
}

// shardFor routes an object id to its owning shard.
func (s *Server) shardFor(id int) *shard {
	return s.shards[dynamic.ShardOf(id, len(s.shards))]
}

// candSetLocked returns the current candidate view, rebuilding it from
// shard 0 when a candidate mutation moved candGen. Caller holds
// topoMu (read or write), which orders the read of candGen against
// candidate mutations; every shard holds an identical candidate set,
// so shard 0 speaks for all. Publishing with CompareAndSwap makes
// concurrent readers at one generation share one view.
func (s *Server) candSetLocked() *candSet {
	gen := atomic.LoadInt64(&s.candGen)
	old := s.cands.Load()
	if old != nil && old.gen == gen {
		return old
	}
	sh := s.shards[0]
	sh.mu.RLock()
	ids, pts := sh.engine.SnapshotCandidates()
	sh.mu.RUnlock()
	cs := &candSet{gen: gen, ids: ids, pts: pts}
	if !s.cands.CompareAndSwap(old, cs) {
		return s.cands.Load()
	}
	return cs
}

// snapshotNow assembles the combined population view: the shared
// candidate set plus every shard's object snapshot, merged by id so
// the object order matches what a single unsharded engine would
// report. The combined snapshot is cached and reused until any part
// (or the candidate set) changes.
func (s *Server) snapshotNow() *snapshot {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	cs := s.candSetLocked()
	parts := make([]*shardSnap, len(s.shards))
	for i, sh := range s.shards {
		parts[i] = sh.snapNow(cs)
	}
	old := s.snap.Load()
	if old.assembledFrom(cs, parts) {
		return old
	}
	var epoch int64
	for _, ps := range parts {
		epoch += ps.epoch
	}
	sn := &snapshot{
		epoch:   epoch,
		cs:      cs,
		candIDs: cs.ids,
		candPts: cs.pts,
		parts:   parts,
	}
	if len(parts) == 1 {
		sn.objects = parts[0].objects
	} else {
		total := 0
		for _, ps := range parts {
			total += len(ps.objects)
		}
		sn.objects = make([]*object.Object, 0, total)
		for _, ps := range parts {
			sn.objects = append(sn.objects, ps.objects...)
		}
		// Each part is already sorted by id (SnapshotObjects), so this
		// is a k-way merge done lazily; ids are unique across shards.
		sort.Slice(sn.objects, func(i, j int) bool { return sn.objects[i].ID < sn.objects[j].ID })
	}
	// Publish unless a newer snapshot got there first: per-shard epochs
	// only grow, so a smaller sum means an older population.
	if old == nil || sn.epoch >= old.epoch {
		if !s.snap.CompareAndSwap(old, sn) {
			if cur := s.snap.Load(); cur.assembledFrom(cs, parts) {
				return cur
			}
		}
	}
	return sn
}

// assembledFrom reports whether sn combines exactly these parts under
// candidate set cs. Nil-safe.
func (sn *snapshot) assembledFrom(cs *candSet, parts []*shardSnap) bool {
	if sn == nil || sn.cs != cs || len(sn.parts) != len(parts) {
		return false
	}
	for i := range parts {
		if sn.parts[i] != parts[i] {
			return false
		}
	}
	return true
}

// mutate applies one mutation record, routing it to the shard(s) that
// own it: object records lock exactly one shard, candidate records
// lock every shard under the topology write lock (each engine holds
// the full candidate set, and all assign the same id — same op stream,
// deterministic engines), and ingest batches split into one sub-record
// per involved shard. With durable stores each (sub-)record is
// appended to its shard's WAL before it touches that shard's engine,
// inside the shard's critical section, so per-shard log order equals
// per-shard application order — the invariant recovery relies on.
//
// Returns the engine-assigned id (meaningful for add_candidate), the
// global epoch after the mutation (Σ shard epochs; candidate records
// advance it by the shard count), and the WAL sequence the record was
// logged at on its — for candidate records: first — shard. Every
// applied record sends the subscription manager one BatchNote at that
// epoch.
func (s *Server) mutate(ctx context.Context, rec *store.Record) (id int, epoch int64, seq uint64, err error) {
	start := time.Now()
	tr := traceFrom(ctx)
	root := tr.StartSpan("mutate")
	root.SetAttr("op", rec.Op.String())
	var walDur time.Duration
	switch rec.Op {
	case store.OpAddCandidate, store.OpRemoveCandidate:
		id, epoch, seq, walDur, err = s.mutateAllShards(rec)
	case store.OpIngestBatch:
		id, epoch, seq, walDur, err = s.mutateIngest(rec)
	default:
		id, epoch, seq, walDur, err = s.mutateOneShard(s.shardFor(int(rec.ID)), rec)
	}
	// Also on error: a record rejected midway may already have applied
	// ops, each of which reset the gauge to one shard's count.
	s.recordObjects()
	if walDur > 0 {
		// The WAL-append stage on the request's own trace; the same
		// duration rides the BatchNote into the notify pipeline's trace,
		// so both trees agree on where durability time went.
		root.Child("wal-append").Accumulate(walDur)
	}
	if err != nil {
		return 0, epoch, 0, err
	}
	recordMutation(rec.Op.String(), epoch, time.Since(start))
	tr.SetEpoch(epoch)
	tr.SetWALSeq(seq)
	if s.subs != nil {
		note := subscribe.BatchNote{Epoch: epoch, At: start, WALDur: walDur, WALSeq: seq}
		if tr != nil {
			note.TraceID = tr.ID
		}
		s.subs.Notify(note)
	}
	s.maybeCheckpoint()
	return id, epoch, seq, err
}

// mutateOneShard is the single-shard path (all object records): log to
// the shard's stream, apply to its engine, bump its epoch and fold the
// shard's population change into the object total. Rejected records
// stay in the log — replay rejects them identically.
func (s *Server) mutateOneShard(sh *shard, rec *store.Record) (id int, epoch int64, seq uint64, walDur time.Duration, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.store != nil {
		walStart := time.Now()
		if seq, err = sh.store.Append(rec); err != nil {
			return 0, s.gepoch.Load(), 0, 0, err
		}
		walDur = time.Since(walStart)
	}
	before := sh.engine.Objects()
	id, err = rec.Apply(sh.engine)
	s.objects.Add(int64(sh.engine.Objects() - before))
	if err != nil {
		return id, s.gepoch.Load(), seq, walDur, err
	}
	sh.epoch++
	return id, s.gepoch.Add(1), seq, walDur, nil
}

// mutateAllShards is the candidate-record path: every shard applies
// the record so every engine keeps the full candidate set. All shard
// locks are taken (ascending, under the topology write lock, which
// also excludes snapshot assembly so no query sees a torn candidate
// set) and the record is logged and applied per shard. The engines
// run the same deterministic candidate-id sequence, so all shards
// return the same id; a WAL append failure on shard k poisons that
// shard's stream (wal semantics) and surfaces as a 500 after shards
// 0..k-1 already applied — the store layer's poisoning keeps the
// divergence from ever being silently logged past.
func (s *Server) mutateAllShards(rec *store.Record) (id int, epoch int64, seq uint64, walDur time.Duration, err error) {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	applied := false
	for i, sh := range s.shards {
		if sh.store != nil {
			walStart := time.Now()
			sq, aerr := sh.store.Append(rec)
			walDur += time.Since(walStart)
			if aerr != nil {
				return 0, s.gepoch.Load(), 0, walDur, aerr
			}
			if i == 0 {
				seq = sq
			}
		}
		sid, aerr := rec.Apply(sh.engine)
		if i == 0 {
			id, err = sid, aerr
		} else if (aerr == nil) != (err == nil) {
			// Engines disagreeing on a candidate op would mean their
			// candidate sets diverged — an invariant violation, not a
			// client error.
			return 0, s.gepoch.Load(), 0, walDur, fmt.Errorf("server: shard %d disagrees on %s (shard 0: %v, shard %d: %v)", i, rec.Op, err, i, aerr)
		}
		if aerr == nil {
			sh.epoch++
			epoch = s.gepoch.Add(1)
			applied = true
		}
	}
	if !applied {
		epoch = s.gepoch.Load()
	}
	if err == nil {
		atomic.AddInt64(&s.candGen, 1)
	}
	return id, epoch, seq, walDur, err
}

// mutateIngest splits an ingest batch by owning shard. A batch that
// lands on one shard keeps the exact single-shard semantics (logged
// even if rejected). A batch that spans shards is pre-validated
// against every involved engine BEFORE anything is logged — otherwise
// shard A's stream could record its half while shard B rejects the
// other, and replay would apply a half the live path refused. After
// validation each shard logs and applies only its own appends, one
// epoch bump per involved shard.
func (s *Server) mutateIngest(rec *store.Record) (id int, epoch int64, seq uint64, walDur time.Duration, err error) {
	n := len(s.shards)
	groups := make(map[int][]store.Append)
	for _, a := range rec.Appends {
		si := dynamic.ShardOf(int(a.ID), n)
		groups[si] = append(groups[si], a)
	}
	if len(groups) == 1 {
		for si := range groups {
			return s.mutateOneShard(s.shards[si], rec)
		}
	}
	idxs := make([]int, 0, len(groups))
	for si := range groups {
		idxs = append(idxs, si)
	}
	sort.Ints(idxs)
	for _, si := range idxs {
		s.shards[si].mu.Lock()
	}
	defer func() {
		for _, si := range idxs {
			s.shards[si].mu.Unlock()
		}
	}()
	// Pre-validate: every append's object must exist on its shard (the
	// HTTP layer already rejected empty appends/positions). The shard
	// locks are held, so validity is stable through the applies below.
	for _, si := range idxs {
		for _, a := range groups[si] {
			if _, oerr := s.shards[si].engine.Object(int(a.ID)); oerr != nil {
				return 0, s.gepoch.Load(), 0, 0, oerr
			}
		}
	}
	for _, si := range idxs {
		sh := s.shards[si]
		sub := &store.Record{Op: store.OpIngestBatch, Appends: groups[si]}
		if sh.store != nil {
			walStart := time.Now()
			sq, aerr := sh.store.Append(sub)
			walDur += time.Since(walStart)
			if aerr != nil {
				return 0, s.gepoch.Load(), 0, walDur, aerr
			}
			if seq == 0 {
				seq = sq
			}
		}
		if _, aerr := sub.Apply(sh.engine); aerr != nil {
			// Unreachable after pre-validation short of an engine edge
			// (object.Extended); the sub-record is logged and replay
			// rejects it identically, so per-shard consistency holds.
			return 0, s.gepoch.Load(), 0, walDur, aerr
		}
		sh.epoch++
		epoch = s.gepoch.Add(1)
	}
	return 0, epoch, seq, walDur, nil
}

// scatters reports whether algo's query against the current topology
// runs as a scatter-gather across shards: more than one shard, and a
// solver that computes a full influence vector (the VO family's
// early exit depends on the global vector, so it runs over the
// combined snapshot instead).
func (s *Server) scatters(algo string) bool {
	if len(s.shards) <= 1 {
		return false
	}
	switch algo {
	case "na", "pin", "pin-par":
		return true
	}
	return false
}

// solveLive runs algo's solver live: scattered one sub-problem per
// shard for full-vector solvers on a sharded server, over the combined
// snapshot otherwise. workers applies to pin-par (per shard when
// scattered).
func (s *Server) solveLive(sn *snapshot, algo string, workers int, p *core.Problem) (*core.Result, error) {
	switch {
	case s.scatters(algo):
		return s.solveScattered(sn, algo, workers, p)
	case algo == "pin-par":
		return core.PinocchioParallel(p, workers)
	}
	return core.Solve(algorithms[algo], p)
}

// solveScattered runs a full-vector solver live as one sub-problem per
// shard and merges the results through core.SolveSharded. p is the
// parent problem over the combined snapshot (its Cost, Ctx and Obs are
// threaded into the parts); workers applies per shard for pin-par.
func (s *Server) solveScattered(sn *snapshot, algo string, workers int, p *core.Problem) (*core.Result, error) {
	parts := make([]*core.Problem, len(sn.parts))
	for i, ps := range sn.parts {
		if len(ps.objects) == 0 {
			continue
		}
		parts[i] = &core.Problem{
			Objects:    ps.objects,
			Candidates: sn.candPts,
			PF:         p.PF,
			Tau:        p.Tau,
		}
	}
	s.scatterSolves.Add(1)
	res, err := core.SolveSharded(p, parts, func(_ int, part *core.Problem) (*core.Result, error) {
		if algo == "pin-par" {
			return core.PinocchioParallel(part, workers)
		}
		return core.Solve(algorithms[algo], part)
	})
	if err == nil {
		s.recordShardScatter(res.ShardDurations)
	}
	return res, err
}

// recordShardScatter counts one merged scatter and folds its per-shard
// wall times into the shards' attribution counters.
func (s *Server) recordShardScatter(durs []time.Duration) {
	s.scatterMerges.Add(1)
	for i, d := range durs {
		if d <= 0 || i >= len(s.shards) {
			continue
		}
		sh := s.shards[i]
		sh.scatterSolves.Add(1)
		sh.scatterNS.Add(int64(d))
		// Racy max is fine: a concurrent larger value winning is the
		// correct outcome either way.
		if old := sh.scatterMaxNS.Load(); int64(d) > old {
			sh.scatterMaxNS.CompareAndSwap(old, int64(d))
		}
	}
}
