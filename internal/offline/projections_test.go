package offline

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// restrictRef is the map-and-Normalize construction Projections replaced,
// kept as the reference: store each set's projection onto addMask, then
// renumber the members of solveMask through a map, drop stored elements no
// longer in solveMask and projections left empty, and re-sort. It returns
// the sub-instance and the stream ID of each of its sets.
func restrictRef(sets []setcover.Set, weight func(int) float64, addMask, solveMask *bitset.Bitset) (*setcover.Instance, []int) {
	var stored [][]setcover.Elem
	var storedIDs []int
	for _, s := range sets {
		var proj []setcover.Elem
		for _, e := range s.Elems {
			if addMask.Test(int(e)) {
				proj = append(proj, e)
			}
		}
		if len(proj) > 0 {
			stored = append(stored, proj)
			storedIDs = append(storedIDs, s.ID)
		}
	}
	newIdx := make(map[setcover.Elem]setcover.Elem)
	next := setcover.Elem(0)
	solveMask.ForEach(func(i int) bool {
		newIdx[setcover.Elem(i)] = next
		next++
		return true
	})
	sub := &setcover.Instance{N: int(next)}
	var origIDs []int
	for i, proj := range stored {
		var elems []setcover.Elem
		for _, e := range proj {
			if ni, ok := newIdx[e]; ok {
				elems = append(elems, ni)
			}
		}
		if len(elems) > 0 {
			sub.Sets = append(sub.Sets, setcover.Set{ID: len(sub.Sets), Elems: elems})
			origIDs = append(origIDs, storedIDs[i])
			if weight != nil {
				sub.Weights = append(sub.Weights, weight(storedIDs[i]))
			}
		}
	}
	sub.Normalize()
	return sub, origIDs
}

// captureSolver records a deep copy of the sub-instance it is handed and
// picks every set in reverse order, so the caller's ID mapping and order
// are both observable.
type captureSolver struct {
	sub *setcover.Instance
}

func (*captureSolver) Name() string    { return "capture" }
func (*captureSolver) Rho(int) float64 { return 1 }

func (c *captureSolver) Solve(in *setcover.Instance) ([]int, error) {
	c.sub = &setcover.Instance{N: in.N, Weights: slices.Clone(in.Weights)}
	ids := make([]int, 0, len(in.Sets))
	for i, s := range in.Sets {
		c.sub.Sets = append(c.sub.Sets, setcover.Set{ID: s.ID, Elems: slices.Clone(s.Elems)})
		ids = append(ids, len(in.Sets)-1-i)
	}
	return ids, nil
}

func randomMask(rng *rand.Rand, n int, p float64) *bitset.Bitset {
	m := bitset.New(n)
	for e := 0; e < n; e++ {
		if rng.Float64() < p {
			m.Set(e)
		}
	}
	return m
}

// randomFamily draws m sorted-unique sets over [0, n) with stream IDs
// 0..m-1, the shape every stream set has.
func randomFamily(rng *rand.Rand, n, m int) []setcover.Set {
	sets := make([]setcover.Set, m)
	p := rng.Float64()
	for id := range sets {
		var es []setcover.Elem
		for e := 0; e < n; e++ {
			if rng.Float64() < p {
				es = append(es, setcover.Elem(e))
			}
		}
		sets[id] = setcover.Set{ID: id, Elems: es}
	}
	return sets
}

// wantCharge is what Add must charge for a projection of k elements.
func wantCharge(k int, weighted bool) int64 {
	if k == 0 {
		return 0
	}
	w := stream.WordsForElems(k) + 1
	if weighted {
		w++
	}
	return w
}

// Property: the sub-instance Projections hands its solver equals the one
// the map-and-Normalize code builds, including when the mask loses members
// between Add and Solve (iterSetCover's L shrinks during pass 1); Solve
// returns stream IDs in the solver's order and leaves the store empty; Add
// charges the packed projection plus its ID word, plus a cost word when
// weighted; and a set that is added and popped at once (the Size Test's
// heavy set) leaves nothing behind: no element, ID or cost.
func TestPropProjectionsMatchRestrict(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	costs := func(id int) float64 { return 1 + float64(id%7)/4 }
	for trial := 0; trial < 400; trial++ {
		n, m := 1+rng.Intn(200), rng.Intn(30)
		sets := randomFamily(rng, n, m)
		var weight func(int) float64
		store := &Projections{}
		if trial%2 == 1 {
			weight = costs
			store = NewProjections(weight)
		}
		addMask := randomMask(rng, n, rng.Float64())
		solveMask := addMask.Clone()
		if trial%3 == 0 {
			for e := 0; e < n; e++ {
				if rng.Intn(3) == 0 {
					solveMask.Clear(e)
				}
			}
		}

		// Fill twice: Reset must leave nothing of the first fill behind.
		// Each fill also adds a set that is not in the family at a random
		// position and pops it at once.
		for fill := 0; fill < 2; fill++ {
			store.Reset()
			stored := 0
			popAt := rng.Intn(len(sets) + 1)
			for i := 0; i <= len(sets); i++ {
				if i == popAt {
					extra := randomFamily(rng, n, 1)[0]
					if ms := addMask.Slice(); len(ms) > 0 {
						extra.Elems = append(extra.Elems, setcover.Elem(ms[rng.Intn(len(ms))]))
						slices.Sort(extra.Elems)
						extra.Elems = slices.Compact(extra.Elems)
					}
					k := addMask.IntersectionWithSlice(extra.Elems)
					if got, want := store.Add(m+1+fill, extra.Elems, addMask), wantCharge(k, weight != nil); got != want {
						t.Fatalf("trial %d: Add(extra set) charged %d words, want %d", trial, got, want)
					}
					if k > 0 {
						store.Pop()
					}
					if store.Elems() != stored {
						t.Fatalf("trial %d: Elems() = %d after Pop, want %d", trial, store.Elems(), stored)
					}
				}
				if i == len(sets) {
					break
				}
				s := sets[i]
				k := addMask.IntersectionWithSlice(s.Elems)
				if got, want := store.Add(s.ID, s.Elems, addMask), wantCharge(k, weight != nil); got != want {
					t.Fatalf("trial %d: Add(set %d) charged %d words, want %d", trial, s.ID, got, want)
				}
				stored += k
			}
			if store.Elems() != stored {
				t.Fatalf("trial %d: Elems() = %d, want %d", trial, store.Elems(), stored)
			}
		}

		var solver captureSolver
		got, err := store.Solve(solveMask, &solver)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		if store.Elems() != 0 {
			t.Fatalf("trial %d: Elems() = %d after Solve, want an empty store", trial, store.Elems())
		}
		want, origIDs := restrictRef(sets, weight, addMask, solveMask)
		sub := solver.sub
		if sub.N != solveMask.Count() || sub.N != want.N {
			t.Fatalf("trial %d: sub-instance N = %d, want |mask| = %d", trial, sub.N, solveMask.Count())
		}
		if len(sub.Sets) != len(want.Sets) {
			t.Fatalf("trial %d: %d sets, reference has %d", trial, len(sub.Sets), len(want.Sets))
		}
		for i, s := range sub.Sets {
			if s.ID != i || len(s.Elems) == 0 || !slices.Equal(s.Elems, want.Sets[i].Elems) {
				t.Fatalf("trial %d: set %d = %+v, reference %+v", trial, i, s, want.Sets[i])
			}
		}
		if !slices.Equal(sub.Weights, want.Weights) {
			t.Fatalf("trial %d: weights %v, reference %v", trial, sub.Weights, want.Weights)
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("trial %d: sub-instance invalid: %v", trial, err)
		}

		// Membership against the family itself: rank r of the mask is in
		// projected set i iff that element is in the original set.
		members := solveMask.Slice()
		for i, s := range sub.Sets {
			orig := sets[origIDs[i]]
			for r, e := range members {
				if slices.Contains(s.Elems, setcover.Elem(r)) != orig.Contains(e) {
					t.Fatalf("trial %d: element %d (rank %d) membership in set %d diverges", trial, e, r, orig.ID)
				}
			}
		}

		// The solver picked every set in reverse; Solve maps each pick to
		// its stream ID and keeps that order.
		wantIDs := slices.Clone(origIDs)
		slices.Reverse(wantIDs)
		if !slices.Equal(got, wantIDs) {
			t.Fatalf("trial %d: Solve returned %v, want stream IDs %v", trial, got, wantIDs)
		}
	}
}

// A solver error reaches the caller unchanged, with no IDs.
func TestProjectionsSolveError(t *testing.T) {
	mask := bitset.FromSlice(4, []int32{0, 1, 3})
	store := NewProjections(nil)
	store.Add(7, []setcover.Elem{0, 1, 2}, mask)
	ids, err := store.Solve(mask, Greedy{})
	if !errors.Is(err, setcover.ErrInfeasible) || ids != nil {
		t.Fatalf("Solve = %v, %v; want nil, ErrInfeasible (element 3 is in no set)", ids, err)
	}
}
