package optimize

// Cost is the optimize work ledger, the candidate-free counterpart of
// core.Cost: every counter a placement request touches, so the bench
// and EXPLAIN surfaces can compare a sweep against dense candidate
// enumeration pair for pair. All methods are nil-receiver safe; a nil
// ledger costs nothing on the hot path.
type Cost struct {
	// Objects is the population size optimized over; SweptRects and
	// IARects the rectangle counts entering each sweep layer (after
	// bounds clipping).
	Objects    int64 `json:"objects"`
	SweptRects int64 `json:"swept_rects"`
	IARects    int64 `json:"ia_rects"`
	// SweepEvents is the total sweep edge count, YSlots the size of
	// the compressed slot universe across both layers.
	SweepEvents int64 `json:"sweep_events"`
	YSlots      int64 `json:"y_slots"`

	// RefineCells counts branch-and-bound cell expansions,
	// RefineSolves exact point evaluations. PairsVisited is the sum of
	// cover-set sizes over exact evaluations and CellTests the
	// per-object cell bound tests — together the optimizer's
	// object-pair work, the number compared against a dense grid's
	// objects × candidates. PositionProbes counts PF evaluations.
	RefineCells    int64 `json:"refine_cells"`
	RefineSolves   int64 `json:"refine_solves"`
	PairsVisited   int64 `json:"pairs_visited"`
	CellTests      int64 `json:"cell_tests"`
	PositionProbes int64 `json:"position_probes"`

	// ShardRectSets is how many per-shard rect extractions fed the
	// global sweep (1 on the unsharded path).
	ShardRectSets int64 `json:"shard_rect_sets,omitempty"`
}

// PairWork is the object-pair total to hold against a dense grid's
// objects × candidates product.
func (c *Cost) PairWork() int64 {
	if c == nil {
		return 0
	}
	return c.PairsVisited + c.CellTests
}

func (c *Cost) addObjects(n int64) {
	if c != nil {
		c.Objects += n
	}
}

func (c *Cost) addSwept(nib, ia int64) {
	if c != nil {
		c.SweptRects += nib
		c.IARects += ia
	}
}

func (c *Cost) addSweep(events, slots int64) {
	if c != nil {
		c.SweepEvents += events
		c.YSlots += slots
	}
}

func (c *Cost) addCell() {
	if c != nil {
		c.RefineCells++
	}
}

func (c *Cost) addSolve(pairs int64) {
	if c != nil {
		c.RefineSolves++
		c.PairsVisited += pairs
	}
}

func (c *Cost) addCellTests(n int64) {
	if c != nil {
		c.CellTests += n
	}
}

func (c *Cost) addProbes(n int64) {
	if c != nil {
		c.PositionProbes += n
	}
}

// AddShardRectSets records how many per-shard extractions fed the
// sweep; the serving layer calls it once per scatter.
func (c *Cost) AddShardRectSets(n int64) {
	if c != nil {
		c.ShardRectSets += n
	}
}
