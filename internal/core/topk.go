package core

import "sort"

// Ranked is a candidate with its exact influence, as used by the
// Top-K precision experiments (Tables 3 and 4).
type Ranked struct {
	Index     int
	Influence int
}

// Rank orders candidates by influence descending, ties by ascending
// index — the ranking every exact solver and the top-t solver agree on.
func Rank(influences []int) []Ranked {
	ranked := make([]Ranked, len(influences))
	for i, inf := range influences {
		ranked[i] = Ranked{Index: i, Influence: inf}
	}
	sort.SliceStable(ranked, func(a, b int) bool {
		if ranked[a].Influence != ranked[b].Influence {
			return ranked[a].Influence > ranked[b].Influence
		}
		return ranked[a].Index < ranked[b].Index
	})
	return ranked
}

// RankAll computes the exact influence of every candidate with the
// PINOCCHIO pruning machinery and returns candidates sorted by
// influence descending, ties broken by ascending index for
// determinism.
func RankAll(p *Problem) ([]Ranked, error) {
	res, err := Pinocchio(p)
	if err != nil {
		return nil, err
	}
	return Rank(res.Influences), nil
}

// TopK returns the indices of the k most influential candidates (all
// of them when k exceeds the candidate count).
func TopK(p *Problem, k int) ([]int, error) {
	ranked, err := RankAll(p)
	if err != nil {
		return nil, err
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	if k < 0 {
		k = 0
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ranked[i].Index
	}
	return out, nil
}

// Algorithm identifies one of the solvers for harness code that sweeps
// over them.
type Algorithm int

// The solvers compared throughout §6.
const (
	AlgNA Algorithm = iota
	AlgPinocchio
	AlgPinocchioVO
	AlgPinocchioVOStar
)

// String implements fmt.Stringer, using the paper's labels.
func (a Algorithm) String() string {
	switch a {
	case AlgNA:
		return "NA"
	case AlgPinocchio:
		return "PIN"
	case AlgPinocchioVO:
		return "PIN-VO"
	case AlgPinocchioVOStar:
		return "PIN-VO*"
	default:
		return "unknown"
	}
}

// Solve dispatches to the selected algorithm, stamping the problem's
// trace ID onto the span tree and attaching that tree to the result.
func Solve(a Algorithm, p *Problem) (*Result, error) {
	p.stampTrace()
	var res *Result
	var err error
	switch a {
	case AlgNA:
		res, err = NA(p)
	case AlgPinocchio:
		res, err = Pinocchio(p)
	case AlgPinocchioVO:
		res, err = PinocchioVO(p)
	case AlgPinocchioVOStar:
		res, err = PinocchioVOStar(p)
	default:
		return nil, errUnknownAlgorithm(a)
	}
	if res != nil {
		res.Trace = p.Obs
	}
	return res, err
}

type errUnknownAlgorithm Algorithm

func (e errUnknownAlgorithm) Error() string {
	return "core: unknown algorithm"
}

// Algorithms lists the four solvers in the order the paper's figures
// plot them.
func Algorithms() []Algorithm {
	return []Algorithm{AlgNA, AlgPinocchio, AlgPinocchioVO, AlgPinocchioVOStar}
}
