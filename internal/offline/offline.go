// Package offline provides in-memory SetCover solvers used as the
// algOfflineSC subroutine of the paper's algorithms (Figures 1.3 and 4.1)
// and as ground truth for approximation-ratio measurements.
//
// Two solvers are provided, matching the paper's two computational regimes
// (Section 2.1): Greedy with ρ = ln n under polynomial time, and Exact with
// ρ = 1 under "exponential computational power". The exact solver is a
// branch-and-bound that is fast at the sub-instance sizes iterSetCover
// produces and doubles as the OPT oracle for the Section 5/6 reduction
// checks.
//
// GreedyPicks, the selection loop behind Greedy, is the repository's one
// exact-greedy kernel: maxcover.Greedy and the scdyn dynamic solver call it
// too (DESIGN.md §9).
package offline

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/setcover"
)

// Solver solves a SetCover instance held entirely in memory and returns the
// IDs (positions) of the chosen sets.
type Solver interface {
	// Name identifies the solver in reports.
	Name() string
	// Rho returns the solver's approximation guarantee on instances with n
	// elements (ln n for greedy, 1 for exact).
	Rho(n int) float64
	// Solve returns set IDs covering the instance's universe. It returns
	// setcover.ErrInfeasible if some element is in no set.
	Solve(in *setcover.Instance) ([]int, error)
}

// Greedy is the classic greedy algorithm: repeatedly pick the set covering
// the most yet-uncovered elements. ρ = H(n) <= ln n + 1.
type Greedy struct{}

// Name implements Solver.
func (Greedy) Name() string { return "greedy" }

// Rho implements Solver.
func (Greedy) Rho(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Log(float64(n)) + 1
}

// Solve implements Solver: the picks of GreedyPicks from an empty cover.
// On weighted instances the pick rule is max cost-effectiveness (the classic
// weighted greedy, ρ = H(n)); on unweighted ones it is max marginal gain.
// Ties go to the smallest set ID, which makes the trajectory identical to a
// streaming greedy that scans sets in stream order and keeps the first
// strict maximum.
func (Greedy) Solve(in *setcover.Instance) ([]int, error) {
	covered := bitset.New(in.N)
	var cover []int
	for _, p := range GreedyPicks(in.Sets, in.Weights, covered, len(in.Sets)) {
		cover = append(cover, p.ID)
	}
	if covered.Count() < in.N {
		return nil, setcover.ErrInfeasible
	}
	return cover, nil
}

// Pick is one selection of a greedy trace. Its marginal gain is len(Newly).
type Pick struct {
	ID int
	// Newly lists the elements of the set that no earlier pick covered.
	Newly []setcover.Elem
}

// GreedyPicks is the repository's exact-greedy selection loop. Starting from
// the elements already in covered, it repeatedly picks the set of maximum
// cost-effectiveness gain/w, ties to the smallest ID, until no set gains
// anything or budget picks are made. It returns the picks in order and
// leaves their elements set in covered.
//
// sets[id] is the set with ID id (its ID field is not read); a set with no
// elements is absent. weights[id] is its cost, and nil means unit costs.
// Ratios are compared by cross-multiplication, g₁·w₂ against g₂·w₁, never by
// division, so unit weights reduce exactly to the pure-gain comparison.
//
// Gains stay exact: a CSR index maps each uncovered element to the sets
// containing it, and a pick decrements the gain of every set holding one of
// its newly covered elements, so a selection round reads cached integers and
// never walks a set. Each set waits on the intrusive list of a level (a head
// per level, a link per set), so moving it to another level is O(1). Gains
// only decay, so a set's true level never exceeds its list's.
//
// A unit-cost set waits at its exact gain. When a level becomes the top, its
// sets still at that gain are sorted by ID once, and each round takes them
// from the front, dropping dead sets and sinking decayed ones, until one is
// still at the top gain: the smallest ID of maximum gain. A round costs the
// sets it removes plus one, so tied gains cost linear time. A weighted set
// waits at its density level ⌊log₂(gain/w)⌋ (SNIPPETS.md Snippet 3). A round
// walks the top level, sinks the sets that decayed below it, and takes the
// best ratio among the rest; every set on a lower level has a strictly
// smaller ratio.
func GreedyPicks(sets []setcover.Set, weights []float64, covered *bitset.Bitset, budget int) []Pick {
	if !slices.ContainsFunc(weights, func(w float64) bool { return w != 1 }) {
		weights = nil
	}
	// level is a weighted set's exact ⌊log₂(g/w)⌋, the largest l with
	// g ≥ w·2^l: with g = fg·2^eg and w = fw·2^ew (mantissas in [½, 1)),
	// g/w lies in [2^(eg-ew), 2^(eg-ew+1)) exactly when fg ≥ fw.
	level := func(id int, g int32) int {
		fg, eg := math.Frexp(float64(g))
		fw, ew := math.Frexp(weights[id])
		if fg < fw {
			return eg - ew - 1
		}
		return eg - ew
	}
	gains := make([]int32, len(sets))
	// beats reports whether weighted set a has a better ratio than set b.
	beats := func(a, b int32) bool {
		x, y := float64(gains[a])*weights[b], float64(gains[b])*weights[a]
		return x > y || x == y && a < b
	}

	// The index holds only uncovered incidences: a decrement can only come
	// from an element a later pick covers. It is built in two passes, count
	// then fill, so it costs one int32 per incidence and nothing more. The
	// count pass leaves start[e] at the end of e's range and the fill pass
	// counts it back down, so index[start[e]:start[e+1]] lists the sets
	// holding e. From an empty cover every incidence is uncovered, and
	// both passes skip the membership test.
	n := covered.Len()
	start := make([]int32, n+1)
	fresh := covered.Empty()
	for id, s := range sets {
		if fresh {
			gains[id] = int32(len(s.Elems))
			for _, e := range s.Elems {
				start[e]++
			}
			continue
		}
		for _, e := range s.Elems {
			if !covered.Test(int(e)) {
				gains[id]++
				start[e]++
			}
		}
	}
	for e := 1; e <= n; e++ {
		start[e] += start[e-1]
	}
	index := make([]int32, start[n])
	for id, s := range sets {
		if gains[id] == 0 {
			continue
		}
		for _, e := range s.Elems {
			if fresh || !covered.Test(int(e)) {
				start[e]--
				index[start[e]] = int32(id)
			}
		}
	}

	// List b holds the sets at level lo+b: head[b] and tail[b] are its first
	// and last set, -1 when it is empty, and next[id] is the set after id.
	// A list keeps arrival order, the sets placed here by ascending ID and
	// every later one at the tail. That order is part of a weighted pick:
	// when float products round two ratios to a tie, beats need not be
	// transitive, and a walk in another order could pick another set. Unit
	// levels are the gains, 1 to the largest, so there are never more levels
	// than index entries. A weighted set's level bottoms out at gain 1, so lo
	// is the lowest one any set can reach.
	lo, hi := 1, 0
	if weights == nil {
		for _, g := range gains {
			hi = max(hi, int(g))
		}
	} else {
		lo, hi = math.MaxInt, math.MinInt
		for id, g := range gains {
			if g > 0 {
				lo, hi = min(lo, level(id, 1)), max(hi, level(id, g))
			}
		}
	}
	var head, tail []int32
	if lo <= hi {
		head, tail = make([]int32, hi-lo+1), make([]int32, hi-lo+1)
	}
	for b := range head {
		head[b], tail[b] = -1, -1
	}
	next := make([]int32, len(sets))
	push := func(b int, id int32) {
		if tail[b] < 0 {
			head[b] = id
		} else {
			next[tail[b]] = id
		}
		tail[b], next[id] = id, -1
	}
	for id, g := range gains {
		if g == 0 {
			continue
		}
		if weights == nil {
			push(int(g)-lo, int32(id))
		} else {
			push(level(id, g)-lo, int32(id))
		}
	}

	var picks []Pick
	take := func(best int32) {
		newly := make([]setcover.Elem, 0, gains[best])
		for _, e := range sets[best].Elems {
			if !covered.Test(int(e)) {
				covered.Set(int(e))
				newly = append(newly, e)
			}
		}
		for _, e := range newly {
			for _, id := range index[start[e]:start[e+1]] {
				gains[id]--
			}
		}
		picks = append(picks, Pick{ID: int(best), Newly: newly})
	}

	if weights == nil {
		// run[r:] are the sets that were at the top gain lo+top when level
		// top became the top, by ID, less those already taken. Every level
		// above top is empty and gains only fall, so no set joins top while
		// it is the top, and run stays sorted.
		var run []int32
		for top, r := len(head), 0; len(picks) < budget; {
			if r == len(run) {
				// Level top is drained. Empty the next level down with sets
				// into run: drop dead sets and sink decayed ones.
				top--
				for top >= 0 && head[top] < 0 {
					top--
				}
				if top < 0 {
					break // no set gains anything
				}
				run, r = run[:0], 0
				for id := head[top]; id >= 0; {
					nxt := next[id]
					if g := int(gains[id]); g == lo+top {
						run = append(run, id)
					} else if g > 0 {
						push(g-lo, id)
					}
					id = nxt
				}
				head[top], tail[top] = -1, -1
				slices.Sort(run)
				continue
			}
			id := run[r]
			r++
			if g := int(gains[id]); g == lo+top {
				take(id)
			} else if g > 0 {
				push(g-lo, id)
			}
		}
		return picks
	}

	for top := len(head) - 1; len(picks) < budget; {
		for top >= 0 && head[top] < 0 {
			top--
		}
		if top < 0 {
			break // no set gains anything
		}
		// Drop dead sets (a picked set has gain 0), sink decayed ones, and
		// take the best ratio among the sets still at the top level.
		best, prev := int32(-1), int32(-1)
		for id := head[top]; id >= 0; {
			nxt := next[id]
			b := -1 // a dead set goes to no list
			if g := gains[id]; g > 0 {
				b = level(int(id), g) - lo
			}
			if b == top {
				if best < 0 || beats(id, best) {
					best = id
				}
				prev = id
			} else {
				if prev < 0 {
					head[top] = nxt
				} else {
					next[prev] = nxt
				}
				if b >= 0 {
					push(b, id)
				}
			}
			id = nxt
		}
		tail[top] = prev // the last set kept, or -1
		if best >= 0 {
			take(best)
		}
	}
	return picks
}

// Exact is an optimal branch-and-bound solver (ρ = 1). Worst case is
// exponential; in practice the instances it sees here (offline sub-problems
// of iterSetCover, reduction gadgets of Sections 5–6) solve in milliseconds.
//
// Exact minimizes CARDINALITY and ignores Instance.Weights: it is the
// paper's unit-cost OPT oracle (Section 2.1), and the reductions it relies
// on (dominance, the counting lower bound) are cardinality arguments. On a
// weighted instance it still returns a valid cover — just the fewest-sets
// one, not the cheapest. Use Greedy for weighted sub-instances.
//
// Strategy: first apply the OPT-preserving dominance reductions of Reduce,
// then branch on the uncovered element contained in the fewest sets
// (fail-first), trying its candidate sets in decreasing-gain order; prune
// with a greedy upper bound and the counting lower bound
// ceil(#uncovered / max set size).
type Exact struct {
	// MaxNodes optionally bounds the search; 0 means unlimited. If the bound
	// is hit, Solve returns ErrBudget.
	MaxNodes int64
	// NoReduce disables the dominance preprocessing (used by tests to
	// exercise the raw branch-and-bound).
	NoReduce bool
}

// ErrBudget is returned by Exact.Solve when MaxNodes is exhausted.
var ErrBudget = fmt.Errorf("offline: exact solver node budget exhausted")

// Name implements Solver.
func (Exact) Name() string { return "exact" }

// Rho implements Solver.
func (Exact) Rho(int) float64 { return 1 }

// Solve implements Solver.
func (e Exact) Solve(in *setcover.Instance) ([]int, error) {
	if in.N == 0 {
		return nil, nil
	}
	if !e.NoReduce {
		red := Reduce(in)
		if red.RemovedSets > 0 || red.RemovedElems > 0 {
			inner := Exact{MaxNodes: e.MaxNodes, NoReduce: true}
			cover, err := inner.Solve(red.Instance)
			if err != nil {
				return nil, err
			}
			out := make([]int, len(cover))
			for i, id := range cover {
				out[i] = red.OrigSetID[id]
			}
			sort.Ints(out)
			return out, nil
		}
	}
	sets := in.Bitsets()

	// coveredBy[e] = IDs of sets containing e.
	coveredBy := make([][]int, in.N)
	for id, s := range in.Sets {
		for _, el := range s.Elems {
			coveredBy[el] = append(coveredBy[el], id)
		}
	}
	for el, ids := range coveredBy {
		if len(ids) == 0 {
			return nil, fmt.Errorf("%w: element %d", setcover.ErrInfeasible, el)
		}
	}

	// Greedy upper bound seeds the incumbent.
	incumbent, err := Greedy{}.Solve(in)
	if err != nil {
		return nil, err
	}
	best := append([]int(nil), incumbent...)

	maxSize := in.MaxSetSize()
	uncovered := bitset.New(in.N)
	uncovered.Fill()

	var nodes int64
	var cur []int
	var rec func() error
	rec = func() error {
		nodes++
		if e.MaxNodes > 0 && nodes > e.MaxNodes {
			return ErrBudget
		}
		rem := uncovered.Count()
		if rem == 0 {
			if len(cur) < len(best) {
				best = append(best[:0], cur...)
			}
			return nil
		}
		// Counting lower bound.
		lb := (rem + maxSize - 1) / maxSize
		if len(cur)+lb >= len(best) {
			return nil
		}
		// Fail-first: element with fewest live candidate sets.
		pivot, pivotCands := -1, math.MaxInt
		uncovered.ForEach(func(el int) bool {
			c := 0
			for _, id := range coveredBy[el] {
				if sets[id].Intersects(uncovered) {
					c++
				}
			}
			if c < pivotCands {
				pivotCands, pivot = c, el
			}
			return pivotCands > 1 // can't do better than 1
		})
		// Candidates covering the pivot, largest marginal gain first.
		cands := append([]int(nil), coveredBy[pivot]...)
		sort.Slice(cands, func(a, b int) bool {
			return sets[cands[a]].IntersectionCount(uncovered) > sets[cands[b]].IntersectionCount(uncovered)
		})
		for _, id := range cands {
			gain := sets[id].IntersectionCount(uncovered)
			if gain == 0 {
				continue
			}
			saved := uncovered.Clone()
			uncovered.Subtract(sets[id])
			cur = append(cur, id)
			if err := rec(); err != nil {
				return err
			}
			cur = cur[:len(cur)-1]
			uncovered.CopyFrom(saved)
		}
		return nil
	}
	if err := rec(); err != nil {
		return nil, err
	}
	sort.Ints(best)
	return best, nil
}

// OptSize returns |OPT| for the instance using the exact solver. It is the
// ground-truth helper used by experiments and reduction checks.
func OptSize(in *setcover.Instance) (int, error) {
	cover, err := Exact{}.Solve(in)
	if err != nil {
		return 0, err
	}
	return len(cover), nil
}
