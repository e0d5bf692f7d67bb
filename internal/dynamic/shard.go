package dynamic

// shard.go is the object router for the shard-per-core engine: every
// layer that partitions Ω (the serving layer's per-shard engines, the
// per-shard WAL streams, recovery) must agree on which shard owns an
// object, so the mapping lives here, next to the engine it partitions.
//
// Influence is additive over objects — inf(c) = Σ_k inf_k(c) for any
// partition of Ω (the observation behind the paper's PIN-PAR result,
// Fig. 12) — so routing objects by id hash and summing the per-shard
// influence vectors reproduces the unsharded answer exactly.

import (
	"errors"
	"fmt"
	"sync"

	"pinocchio/internal/geo"
	"pinocchio/internal/object"
)

// ShardOf routes an object id to one of n shards. The id is mixed
// through the splitmix64 finalizer before reduction so dense id ranges
// (the common case: dataset user ids are sequential) spread evenly
// instead of striping, and negative ids hash like any other bit
// pattern. n <= 1 always routes to shard 0.
func ShardOf(id, n int) int {
	if n <= 1 {
		return 0
	}
	z := uint64(int64(id))
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// Seed loads an initial population into per-shard engines, one
// goroutine per engine: each adds every candidate in input order, so
// candidate ids are 0..len(candidates)-1 on every shard, and then the
// objects ShardOf routes to it, in input order. Adding objects after
// the candidates is Algorithm 2's object-major order: AddObject finds
// an object's candidates with one R-tree query over its NIB box, where
// the reverse order would classify every object for each candidate.
// The engines share only read-only inputs. A shard stops at its first
// failing object; Seed joins the shards' errors in shard order.
func Seed(engines []*Engine, objects []*object.Object, candidates []geo.Point) error {
	if len(engines) == 0 {
		return errors.New("dynamic: no engines to seed")
	}
	routed := make([][]*object.Object, len(engines))
	for _, o := range objects {
		k := ShardOf(o.ID, len(engines))
		routed[k] = append(routed[k], o)
	}
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for k, eng := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range candidates {
				eng.AddCandidate(c)
			}
			for _, o := range routed[k] {
				if err := eng.AddObject(o.ID, o.Positions); err != nil {
					errs[k] = fmt.Errorf("seeding object %d: %w", o.ID, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Add accumulates o's operation counters into s; the serving layer
// sums per-shard engine stats into one status block with it.
func (s *Stats) Add(o Stats) {
	s.Validations += o.Validations
	s.PositionProbes += o.PositionProbes
	s.PrunedByIA += o.PrunedByIA
	s.PrunedByNIB += o.PrunedByNIB
}
