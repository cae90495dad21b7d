// Package pd implements a batched primal-dual algorithm for (weighted)
// SetCover in the element-arrival model: the universe is revealed in batches
// of elements, and the algorithm maintains a fractional primal solution
// x ∈ [0,1]^m (how much of each set is bought) and dual variables y_e on the
// revealed elements, raising duals until every revealed element is
// fractionally covered. It is the classic online/streaming primal-dual
// scheme (Buchbinder–Naor style) the paper's Section 1 cites as the
// multipass LP-based alternative to greedy thresholding.
//
// Per batch B of elements, the update is:
//
//	while some e ∈ B has Σ_{j: e∈S_j} x_j < 1:
//	    y_e += ε for every undercovered e ∈ B   (simultaneously)
//	    x_j  = (exp(ln(1+d)/c_j · Y_j) − 1) / d  for every touched set j
//
// where d = m, c_j is set j's cost (1 unweighted), and Y_j = Σ_{e∈S_j} y_e
// over revealed elements. x_j is a pure function of Y_j, so only sets whose
// dual sum changed are recomputed, once per round. x_j reaches 1 exactly
// when Y_j = c_j, which bounds the rounds per batch by
// ceil(max_e min_{j∋e} c_j / ε) + 2 — the convergence cap below is not a
// tunable, it is that bound.
//
// Every Y_j starts at 0 and only grows by += ε, so the loop keeps the raise
// count r_j instead and turns it back into Y_j through one table of k-fold
// sums built by the same repeated addition; on unweighted repositories x_j
// then depends on r_j alone and is tabulated per count, so the rounds run
// on the counts alone and skip, in one step, every round in which no
// element can reach coverage (see raiseCounts). Elements whose coverage sum
// reached 1 leave the batch's active list for good (see raiseBatch). Every
// x_j, Y_j and coverage sum it computes equals, bit for bit, the one the
// plain loop (add ε to a float Y_j per raise, sum every batch element every
// round) would compute.
//
// The fractional solution is rounded by frequency: every element is covered
// by at most f sets (f tracked from the gathered incidence), so each revealed
// element has some covering set with x_j ≥ 1/f, and picking every set with
// x_j ≥ 1/f yields an integral cover by construction (the standard
// f-approximation rounding; f·(1+ε')-competitive against the LP).
//
// Streaming costs: each element batch spends ONE pass over the repository to
// gather the batch's incidence lists (which sets contain which batch
// elements), plus one final verification pass — ceil(n/ElemBatch) + 1 passes
// total. Working memory is 2m words for (x, Y) plus the current batch's
// incidence, charged to the Tracker and released per batch. ModeTrivial
// (every element its own singleton batch) is the degenerate baseline the
// dedicated batched mode is measured against in experiment E19: identical
// update rule, n passes instead of n/ElemBatch.
package pd

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// AlgorithmName identifies the batched primal-dual in Stats reports.
const AlgorithmName = "primal-dual"

// DefaultEpsilon is the dual increment when Options.Epsilon is zero. Smaller
// ε tracks the LP tighter at proportionally more rounds per batch.
const DefaultEpsilon = 1e-3

// DefaultElemBatch is the element-batch size when Options.ElemBatch is zero
// (dedicated mode): n/256 repository passes on typical universes.
const DefaultElemBatch = 256

// Mode selects how the universe is revealed.
type Mode int

const (
	// ModeDedicated reveals ElemBatch elements per batch and raises the
	// duals of ALL undercovered batch elements simultaneously each round —
	// the batched algorithm proper.
	ModeDedicated Mode = iota
	// ModeTrivial reveals one element per batch (ElemBatch is ignored): the
	// degenerate baseline with n incidence passes. Results generally differ
	// from ModeDedicated — simultaneous dual raises share credit across a
	// batch — which is exactly the comparison experiment E19 draws.
	ModeTrivial
)

func (m Mode) String() string {
	switch m {
	case ModeDedicated:
		return "dedicated"
	case ModeTrivial:
		return "trivial"
	default:
		return fmt.Sprintf("pd.Mode(%d)", int(m))
	}
}

// ParseMode parses "dedicated" or "trivial" (CLI flag surface).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "dedicated":
		return ModeDedicated, nil
	case "trivial":
		return ModeTrivial, nil
	}
	return 0, fmt.Errorf("pd: unknown mode %q (want dedicated or trivial)", s)
}

// ErrDualStall reports an ε so small that the repeated dual sums stop
// growing before some element can be covered: the solve could never end.
var ErrDualStall = errors.New("pd: dual sums stall below coverage")

// Options configures BatchedPrimalDual. The zero value is usable: dedicated
// mode, ε = DefaultEpsilon, ElemBatch = DefaultElemBatch, engine defaults.
type Options struct {
	// Mode selects dedicated (batched) or trivial (per-element) reveal.
	Mode Mode
	// Epsilon is the dual increment; zero means DefaultEpsilon. Must be
	// finite and positive otherwise.
	Epsilon float64
	// ElemBatch is the number of elements revealed per batch in dedicated
	// mode; zero means DefaultElemBatch. Ignored by ModeTrivial.
	ElemBatch int
	// Engine configures the shared pass executor. Results are identical at
	// every setting (single sequential observer per pass).
	Engine engine.Options
}

// Result extends Stats with primal-dual diagnostics.
type Result struct {
	setcover.Stats
	// Batches is the number of element batches processed.
	Batches int
	// Rounds is the total number of dual-update rounds across all batches.
	Rounds int
	// MaxFrequency is f, the largest number of sets covering any element —
	// the rounding threshold is 1/f and f bounds the rounding loss.
	MaxFrequency int
	// CoverWeight is the total cost of the reported cover (its cardinality
	// on unweighted repositories).
	CoverWeight float64
}

// BatchedPrimalDual runs the batched primal-dual algorithm over the
// repository. On repositories carrying per-set costs (stream.Weighted) it
// solves weighted SetCover; otherwise every set costs 1.
func BatchedPrimalDual(repo stream.Repository, opts Options) (Result, error) {
	res := Result{Stats: setcover.Stats{Algorithm: AlgorithmName}}
	n, m := repo.UniverseSize(), repo.NumSets()
	passes0 := repo.Passes()

	eps := opts.Epsilon
	if eps == 0 {
		eps = DefaultEpsilon
	}
	if !(eps > 0) || eps > math.MaxFloat64 {
		return res, fmt.Errorf("pd: epsilon %v out of (0, +Inf)", opts.Epsilon)
	}
	res.Extra = eps
	batch := opts.ElemBatch
	if batch <= 0 {
		batch = DefaultElemBatch
	}
	if opts.Mode == ModeTrivial {
		batch = 1
	}

	if n == 0 {
		res.Valid = true
		return res, nil
	}
	if m == 0 {
		return res, setcover.ErrInfeasible
	}

	eng := engine.New(opts.Engine)
	tracker := stream.NewTracker()
	weightOf := stream.WeightFunc(repo)
	costOf := func(j int) float64 {
		if weightOf == nil {
			return 1
		}
		return weightOf(j)
	}
	// fail closes out a run that stops early, with the resources it used.
	fail := func(err error) (Result, error) {
		res.Passes = repo.Passes() - passes0
		res.SpaceWords = tracker.Peak()
		return res, err
	}

	// Primal x and the raise counts live for the whole run: 2m words.
	du := newDuals(m, eps, weightOf)
	ys := stallSum(eps)
	tracker.Grow(2 * int64(m))

	maxFreq := 0
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		res.Batches++

		// One pass: gather the incidence lists of the batch elements.
		// Set IDs fit int32 (the SCB1 dimension limit), halving the
		// footprint of the dominant per-batch structure.
		inc := make([][]int32, hi-lo)
		var incWords int64
		if err := eng.Run(repo, engine.Func(func(sets []setcover.Set) {
			for _, s := range sets {
				es := s.Elems
				i := sort.Search(len(es), func(i int) bool { return int(es[i]) >= lo })
				for ; i < len(es) && int(es[i]) < hi; i++ {
					inc[es[i]-setcover.Elem(lo)] = append(inc[es[i]-setcover.Elem(lo)], int32(s.ID))
				}
			}
		})); err != nil {
			return fail(fmt.Errorf("pd: %w", err))
		}
		// Charge the incidence plus the round cap's input: the costliest
		// cheapest-option over the batch.
		maxMinCost := 0.0
		for i, sets := range inc {
			if len(sets) == 0 {
				return fail(fmt.Errorf("%w: element %d in no set", setcover.ErrInfeasible, lo+i))
			}
			if len(sets) > maxFreq {
				maxFreq = len(sets)
			}
			minC := math.Inf(1)
			for _, j := range sets {
				if c := costOf(int(j)); c < minC {
					minC = c
				}
			}
			if minC > maxMinCost {
				maxMinCost = minC
			}
			incWords += stream.WordsForElems(len(sets))
		}
		tracker.Grow(incWords)

		// An element still undercovered after ceil(minCost/ε) rounds would
		// have pushed its cheapest set's Y past its cost, forcing x ≥ 1 — so
		// the cap is unreachable unless the arithmetic is broken, and
		// hitting it is a loud bug, not a tuning problem. A cap beyond the
		// int range (ε tiny against the costs) fails before the first round.
		steps := math.Ceil(maxMinCost / eps)
		if !(steps < math.MaxInt64) {
			return fail(fmt.Errorf("pd: batch [%d,%d) needs a round cap of %.4g, beyond the int range (eps=%g)", lo, hi, steps+2, eps))
		}
		// The cap also assumes the sums reach maxMinCost one ε at a time,
		// but they stop growing at ys. Below maxMinCost, an element whose
		// coverage with every one of its sets at ys is under 1 can never be
		// covered, as x only grows with Y.
		if ys <= maxMinCost {
			for i, sets := range inc {
				cov := 0.0
				for _, j := range sets {
					cov += du.xAt(costOf(int(j)), ys)
				}
				if cov < 1 {
					return fail(fmt.Errorf("%w: batch [%d,%d): sums of eps=%g stop growing at %g, where element %d reaches coverage %.4g",
						ErrDualStall, lo, hi, eps, ys, lo+i, cov))
				}
			}
		}
		roundCap := int(steps) + 2
		rounds, ok := du.raiseCounts(inc, roundCap)
		res.Rounds += rounds
		if !ok {
			return fail(fmt.Errorf("pd: batch [%d,%d) did not converge in %d rounds (eps=%g)", lo, hi, roundCap, eps))
		}
		tracker.Shrink(incWords)
	}

	// Frequency rounding: every revealed element has Σ x over its ≤ maxFreq
	// covering sets ≥ 1, so one of them clears 1/maxFreq.
	threshold := 1 / float64(maxFreq)
	var cover []int
	picked := bitset.New(m)
	for j := 0; j < m; j++ {
		if du.x[j] >= threshold {
			cover = append(cover, j)
			picked.Set(j)
		}
	}
	tracker.Grow(stream.WordsForIDs(len(cover)))

	// Verification pass: the cover is complete by construction, but this
	// repository reports Valid only after checking against the actual stream.
	uncovered := bitset.New(n)
	uncovered.Fill()
	tracker.Grow(stream.WordsForBitset(n))
	if err := eng.Run(repo, engine.Func(func(sets []setcover.Set) {
		for _, s := range sets {
			if picked.Test(s.ID) {
				uncovered.SubtractSlice(s.Elems)
			}
		}
	})); err != nil {
		return fail(fmt.Errorf("pd: %w", err))
	}

	res.Cover = cover
	res.Valid = uncovered.Empty()
	res.Passes = repo.Passes() - passes0
	res.SpaceWords = tracker.Peak()
	res.MaxFrequency = maxFreq
	res.CoverWeight = stream.CoverWeight(repo, cover)
	if !res.Valid {
		return res, fmt.Errorf("pd: rounded cover leaves %d elements uncovered", uncovered.Count())
	}
	return res, nil
}
