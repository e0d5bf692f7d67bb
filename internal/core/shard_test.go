package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pinocchio/internal/dynamic"
	"pinocchio/internal/object"
)

// shardParts partitions p's objects by the production router
// (dynamic.ShardOf over the object id) into n part problems sharing
// p's candidates, PF and τ — exactly what the serving layer's scatter
// path builds from its per-shard snapshots.
func shardParts(p *Problem, n int) []*Problem {
	buckets := make([][]*object.Object, n)
	for _, o := range p.Objects {
		s := dynamic.ShardOf(o.ID, n)
		buckets[s] = append(buckets[s], o)
	}
	parts := make([]*Problem, n)
	for i, objs := range buckets {
		parts[i] = &Problem{
			Objects:    objs,
			Candidates: p.Candidates,
			PF:         p.PF,
			Tau:        p.Tau,
		}
	}
	return parts
}

// TestSolveShardedParity is the sharded-vs-unsharded oracle: for
// random instances and every full-vector solver, the merged result
// across N ∈ {1, 2, NumCPU, 5} shards must be byte-identical to the
// unsharded solve — Influences, the full Stats struct (PairsTotal,
// prune buckets, probes, DistinctN), and the Cost ledger including the
// per-candidate verdict table. Run under -race (scripts/ci.sh) it also
// exercises the concurrent scatter.
func TestSolveShardedParity(t *testing.T) {
	solvers := []struct {
		name  string
		solve func(*Problem) (*Result, error)
	}{
		{"na", func(p *Problem) (*Result, error) { return Solve(AlgNA, p) }},
		{"pin", func(p *Problem) (*Result, error) { return Solve(AlgPinocchio, p) }},
		{"pin-par", func(p *Problem) (*Result, error) { return PinocchioParallel(p, 3) }},
	}
	shardCounts := []int{1, 2, runtime.NumCPU(), 5}

	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 6; trial++ {
		base := randomProblem(rng, 40+rng.Intn(120), 30+rng.Intn(50), 0.3+0.2*float64(trial%3))
		for _, sv := range solvers {
			ref := &Problem{Objects: base.Objects, Candidates: base.Candidates, PF: base.PF, Tau: base.Tau,
				Cost: &Cost{}}
			ref.Cost.EnableVerdicts(len(ref.Candidates))
			want, err := sv.solve(ref)
			if err != nil {
				t.Fatalf("trial %d %s: unsharded: %v", trial, sv.name, err)
			}
			for _, n := range shardCounts {
				p := &Problem{Objects: base.Objects, Candidates: base.Candidates, PF: base.PF, Tau: base.Tau,
					Cost: &Cost{}}
				p.Cost.EnableVerdicts(len(p.Candidates))
				got, err := SolveSharded(p, shardParts(p, n), func(_ int, part *Problem) (*Result, error) {
					return sv.solve(part)
				})
				if err != nil {
					t.Fatalf("trial %d %s shards=%d: %v", trial, sv.name, n, err)
				}
				if !reflect.DeepEqual(got.Influences, want.Influences) {
					t.Fatalf("trial %d %s shards=%d: influence vectors diverged", trial, sv.name, n)
				}
				if got.BestIndex != want.BestIndex || got.BestInfluence != want.BestInfluence {
					t.Fatalf("trial %d %s shards=%d: best (%d,%d), want (%d,%d)",
						trial, sv.name, n, got.BestIndex, got.BestInfluence, want.BestIndex, want.BestInfluence)
				}
				if got.Stats != want.Stats {
					t.Fatalf("trial %d %s shards=%d: stats %+v, want %+v",
						trial, sv.name, n, got.Stats, want.Stats)
				}
				// Cost buckets must partition PairsTotal identically;
				// PlanSource legitimately differs (none vs the parent's),
				// so compare the numeric ledger and the verdict table.
				gc, wc := p.Cost, ref.Cost
				if gc.PairsTotal != wc.PairsTotal || gc.PrunedIA != wc.PrunedIA ||
					gc.PrunedNIBBox != wc.PrunedNIBBox || gc.PrunedNIBArc != wc.PrunedNIBArc ||
					gc.ValidatedLive != wc.ValidatedLive ||
					gc.SkippedByBounds != wc.SkippedByBounds || gc.PositionProbes != wc.PositionProbes {
					t.Fatalf("trial %d %s shards=%d: cost %v, want %v", trial, sv.name, n, gc, wc)
				}
				if gc.AccountedPairs() != gc.PairsTotal {
					t.Fatalf("trial %d %s shards=%d: accounting leak: %d of %d pairs",
						trial, sv.name, n, gc.AccountedPairs(), gc.PairsTotal)
				}
				if !reflect.DeepEqual(gc.Verdicts(), wc.Verdicts()) {
					t.Fatalf("trial %d %s shards=%d: verdict tables diverged", trial, sv.name, n)
				}
			}
		}
	}
}

// TestSolveShardedEmptyShards: a partition where some shards hold no
// objects (n far beyond the object count) must still merge exactly —
// empty parts are skipped, not solved.
func TestSolveShardedEmptyShards(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := randomProblem(rng, 7, 25, 0.6)
	want, err := Solve(AlgPinocchio,
		&Problem{Objects: base.Objects, Candidates: base.Candidates, PF: base.PF, Tau: base.Tau})
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{Objects: base.Objects, Candidates: base.Candidates, PF: base.PF, Tau: base.Tau}
	got, err := SolveSharded(p, shardParts(p, 64), func(_ int, part *Problem) (*Result, error) {
		return Solve(AlgPinocchio, part)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Influences, want.Influences) || got.Stats != want.Stats {
		t.Fatalf("sparse partition diverged: %+v vs %+v", got.Stats, want.Stats)
	}
}

// TestShardOfStability: the router is a pure function of (id, n) —
// recovery and the live path must agree forever — and spreads a dense
// id range without striping artifacts.
func TestShardOfStability(t *testing.T) {
	if got := dynamic.ShardOf(42, 1); got != 0 {
		t.Fatalf("ShardOf(42, 1) = %d, want 0", got)
	}
	if got := dynamic.ShardOf(-7, 4); got < 0 || got > 3 {
		t.Fatalf("ShardOf(-7, 4) = %d out of range", got)
	}
	counts := make([]int, 8)
	for id := 0; id < 8000; id++ {
		s := dynamic.ShardOf(id, 8)
		if s != dynamic.ShardOf(id, 8) {
			t.Fatalf("ShardOf unstable for id %d", id)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("shard %d holds %d of 8000 ids: router is skewed %v", s, c, counts)
		}
	}
}
