// Package setcover defines the shared vocabulary of the repository: the
// SetCover problem instance, solutions, validation, and the statistics every
// streaming algorithm reports (cover size, passes, peak space).
//
// An instance follows the paper's model (Section 1): a ground set
// U = {0, ..., N-1} of n elements known in advance, and a family F of m sets
// stored in a read-only repository (see internal/stream). m >= n in the
// regime the paper studies, but nothing here requires it.
package setcover

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/bitset"
)

// Elem is an element of the universe, an index in [0, Instance.N).
// int32 keeps stored projections compact, which matters because projection
// storage is exactly what the paper's space bounds count.
type Elem = int32

// Set is a member of the family F. ID is the set's position in the stream
// (unique within an instance); Elems lists its elements in strictly
// increasing order.
type Set struct {
	ID    int
	Elems []Elem
}

// Size returns |S|, the cardinality of the set.
func (s Set) Size() int { return len(s.Elems) }

// Contains reports whether e is a member of the set using binary search.
func (s Set) Contains(e Elem) bool {
	i := sort.Search(len(s.Elems), func(i int) bool { return s.Elems[i] >= e })
	return i < len(s.Elems) && s.Elems[i] == e
}

// Instance is a SetCover input: N elements and a family of sets.
//
// Weights optionally assigns a positive cost to each set (Weights[i] is the
// cost of Sets[i]). nil means the unweighted problem — every set costs 1 —
// and every algorithm in this repository reduces byte-identically to its
// unweighted behavior on a nil (or all-ones) weight vector. When present,
// Weights must satisfy ValidateWeights (finite, strictly positive, length m).
type Instance struct {
	N       int
	Sets    []Set
	Weights []float64
}

// M returns the number of sets in the family.
func (in *Instance) M() int { return len(in.Sets) }

// Weighted reports whether the instance carries a per-set cost vector.
func (in *Instance) Weighted() bool { return in.Weights != nil }

// Weight returns the cost of set id: Weights[id] when weights are present,
// 1 otherwise (the unweighted problem).
func (in *Instance) Weight(id int) float64 {
	if in.Weights == nil {
		return 1
	}
	return in.Weights[id]
}

// CoverWeight returns the total cost of the sets whose IDs are listed in
// cover (out-of-range IDs are ignored, matching CoverageOf). On unweighted
// instances it equals the number of in-range IDs.
func (in *Instance) CoverWeight(cover []int) float64 {
	total := 0.0
	for _, id := range cover {
		if id < 0 || id >= len(in.Sets) {
			continue
		}
		total += in.Weight(id)
	}
	return total
}

// ValidateWeights is the trust-boundary check for a per-set cost vector:
// every weight must be a finite, strictly positive float64. NaN and ±Inf
// poison every cost-effectiveness comparison, a zero or negative cost makes
// "cheapest cover" degenerate (take everything free), so all are rejected
// here — at decode and request validation time — rather than surfacing as
// solver misbehavior. m < 0 skips the length check.
func ValidateWeights(weights []float64, m int) error {
	if m >= 0 && len(weights) != m {
		return fmt.Errorf("setcover: %d weights for %d sets", len(weights), m)
	}
	for i, w := range weights {
		// A single comparison covers NaN (all comparisons false), zero, and
		// negatives; +Inf needs its own check.
		if !(w > 0) || w > math.MaxFloat64 {
			return fmt.Errorf("setcover: weight %d is %v (want finite > 0)", i, w)
		}
	}
	return nil
}

// Normalize sorts and deduplicates every set's element list and assigns
// sequential IDs. Generators call it so the rest of the code can rely on the
// sorted-unique invariant.
func (in *Instance) Normalize() {
	for i := range in.Sets {
		es := in.Sets[i].Elems
		sort.Slice(es, func(a, b int) bool { return es[a] < es[b] })
		out := es[:0]
		for j, e := range es {
			if j == 0 || e != es[j-1] {
				out = append(out, e)
			}
		}
		in.Sets[i].Elems = out
		in.Sets[i].ID = i
	}
}

// Validate checks structural invariants: element ranges, sorted-unique
// element lists, and IDs matching positions. It returns the first violation.
func (in *Instance) Validate() error {
	if in.N < 0 {
		return fmt.Errorf("setcover: negative universe size %d", in.N)
	}
	for i, s := range in.Sets {
		if s.ID != i {
			return fmt.Errorf("setcover: set at position %d has ID %d", i, s.ID)
		}
		for j, e := range s.Elems {
			if e < 0 || int(e) >= in.N {
				return fmt.Errorf("setcover: set %d: element %d out of range [0,%d)", i, e, in.N)
			}
			if j > 0 && e <= s.Elems[j-1] {
				return fmt.Errorf("setcover: set %d: elements not sorted-unique at position %d", i, j)
			}
		}
	}
	if in.Weights != nil {
		if err := ValidateWeights(in.Weights, len(in.Sets)); err != nil {
			return err
		}
	}
	return nil
}

// ErrInfeasible is returned when no subfamily of F covers U.
var ErrInfeasible = errors.New("setcover: instance has uncoverable elements")

// Coverable reports whether every element of U appears in at least one set,
// i.e., whether a feasible cover exists.
func (in *Instance) Coverable() bool {
	seen := bitset.New(in.N)
	for _, s := range in.Sets {
		for _, e := range s.Elems {
			seen.Set(int(e))
		}
	}
	return seen.Count() == in.N
}

// CoverageOf returns the set of elements covered by the sets whose IDs are
// listed in cover.
func (in *Instance) CoverageOf(cover []int) *bitset.Bitset {
	covered := bitset.New(in.N)
	for _, id := range cover {
		if id < 0 || id >= len(in.Sets) {
			continue
		}
		for _, e := range in.Sets[id].Elems {
			covered.Set(int(e))
		}
	}
	return covered
}

// IsCover reports whether the given set IDs cover the whole universe.
func (in *Instance) IsCover(cover []int) bool {
	return in.CoverageOf(cover).Count() == in.N
}

// CoverageFraction returns the fraction of U covered by the given set IDs,
// in [0, 1]. An empty universe counts as fully covered. Used by the
// ε-Partial Set Cover variants (Section 1's related-work problem), where a
// solution is feasible when the fraction reaches 1-ε.
func (in *Instance) CoverageFraction(cover []int) float64 {
	if in.N == 0 {
		return 1
	}
	return float64(in.CoverageOf(cover).Count()) / float64(in.N)
}

// IsPartialCover reports whether the given set IDs cover at least a (1-eps)
// fraction of U.
func (in *Instance) IsPartialCover(cover []int, eps float64) bool {
	uncovered := in.N - in.CoverageOf(cover).Count()
	return float64(uncovered) <= eps*float64(in.N)
}

// MaxSetSize returns max_{S in F} |S| (the sparsity parameter s of Section 6).
func (in *Instance) MaxSetSize() int {
	mx := 0
	for _, s := range in.Sets {
		if len(s.Elems) > mx {
			mx = len(s.Elems)
		}
	}
	return mx
}

// Bitsets materializes every set as a bitset over U. This costs m*ceil(n/64)
// words and is only used by offline components (solvers, ground truth), never
// by the streaming algorithms themselves.
func (in *Instance) Bitsets() []*bitset.Bitset {
	out := make([]*bitset.Bitset, len(in.Sets))
	for i, s := range in.Sets {
		out[i] = bitset.FromSlice(in.N, s.Elems)
	}
	return out
}

// Stats is the resource/quality report every algorithm in this repository
// returns. It mirrors the three columns of the paper's Figure 1.1.
type Stats struct {
	Algorithm string // human-readable name
	Cover     []int  // set IDs of the reported solution
	Valid     bool   // whether Cover actually covers U (verified)
	// Passes is the number of sequential scans this solve began: the
	// difference of the repository's lifetime pass counter between entry
	// and return. Solves sharing one handle concurrently still count each
	// other's passes; serve checks a handle out to one solve at a time.
	Passes     int
	SpaceWords int64   // peak read-write memory charged, in 64-bit words
	Extra      float64 // algorithm-specific scalar (e.g., delta), 0 if unused
}

// CoverSize returns |Cover|.
func (st Stats) CoverSize() int { return len(st.Cover) }

// Ratio returns |Cover| / opt, the approximation ratio against a known
// optimum. It returns 0 if opt <= 0 or the cover is invalid.
func (st Stats) Ratio(opt int) float64 {
	if opt <= 0 || !st.Valid {
		return 0
	}
	return float64(len(st.Cover)) / float64(opt)
}

// String renders a one-line summary.
func (st Stats) String() string {
	return fmt.Sprintf("%-22s cover=%-5d passes=%-3d space=%-9d valid=%v",
		st.Algorithm, len(st.Cover), st.Passes, st.SpaceWords, st.Valid)
}

// Verify recomputes Valid against the instance and returns the updated stats.
func (st Stats) Verify(in *Instance) Stats {
	st.Valid = in.IsCover(st.Cover)
	return st
}
