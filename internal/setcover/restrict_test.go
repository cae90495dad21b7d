package setcover_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/offline"
	"repro/internal/setcover"
)

// Restricting an instance to a mask of its elements, the "store r ∩ L"
// step of Figure 1.3, is done by offline.Projections. These tests pin that
// operation on whole instances: the universe becomes the mask renumbered
// by rank, empty projections are dropped, and each projected set keeps the
// ID of the set it came from.

// keepAll records the sub-instance it is handed and picks all of its sets
// in order, so the IDs Solve returns are the original ID of each set.
type keepAll struct {
	sub *setcover.Instance
}

func (*keepAll) Name() string    { return "keep-all" }
func (*keepAll) Rho(int) float64 { return 1 }

func (k *keepAll) Solve(in *setcover.Instance) ([]int, error) {
	k.sub = in
	ids := make([]int, len(in.Sets))
	for i := range ids {
		ids[i] = i
	}
	return ids, nil
}

// restrict stores every set of in through mask and returns the
// sub-instance the store solves, with the original ID of each of its sets.
func restrict(t *testing.T, in *setcover.Instance, mask *bitset.Bitset) (*setcover.Instance, []int) {
	t.Helper()
	var weight func(int) float64
	if in.Weights != nil {
		weight = func(id int) float64 { return in.Weights[id] }
	}
	store := offline.NewProjections(weight)
	for _, s := range in.Sets {
		store.Add(s.ID, s.Elems, mask)
	}
	var k keepAll
	origIDs, err := store.Solve(mask, &k)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return k.sub, origIDs
}

func TestRestrict(t *testing.T) {
	in := &setcover.Instance{
		N: 6,
		Sets: []setcover.Set{
			{Elems: []setcover.Elem{0, 1, 2}},
			{Elems: []setcover.Elem{2, 3}},
			{Elems: []setcover.Elem{3, 4, 5}},
			{Elems: []setcover.Elem{0, 5}},
		},
	}
	in.Normalize()
	mask := bitset.FromSlice(6, []int32{2, 3, 5})
	proj, origIDs := restrict(t, in, mask)
	if proj.N != 3 {
		t.Fatalf("proj.N = %d, want 3", proj.N)
	}
	// Every original set intersects {2,3,5}, so all four project non-empty.
	if len(proj.Sets) != 4 || len(origIDs) != 4 {
		t.Fatalf("projected %d sets (orig %v), want 4", len(proj.Sets), origIDs)
	}
	if err := proj.Validate(); err != nil {
		t.Fatalf("projected instance invalid: %v", err)
	}
	// Set 0 = {0,1,2} projects to {2} -> new index of 2 is 0.
	if len(proj.Sets[0].Elems) != 1 || proj.Sets[0].Elems[0] != 0 {
		t.Fatalf("projection of set 0 = %v, want [0]", proj.Sets[0].Elems)
	}
	// Empty projections are dropped.
	mask2 := bitset.FromSlice(6, []int32{4})
	proj2, orig2 := restrict(t, in, mask2)
	if len(proj2.Sets) != 1 || orig2[0] != 2 {
		t.Fatalf("restrict to {4}: sets=%d orig=%v, want 1 set from orig 2", len(proj2.Sets), orig2)
	}
}

// Property: restriction preserves membership — element e survives into set
// s's projection iff e is in the mask and in s.
func TestPropRestrictMembership(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		in := &setcover.Instance{N: n}
		for i := 0; i < 10; i++ {
			var es []setcover.Elem
			for e := 0; e < n; e++ {
				if rng.Intn(2) == 0 {
					es = append(es, setcover.Elem(e))
				}
			}
			in.Sets = append(in.Sets, setcover.Set{Elems: es})
		}
		in.Normalize()
		mask := bitset.New(n)
		for e := 0; e < n; e++ {
			if rng.Intn(2) == 0 {
				mask.Set(e)
			}
		}
		proj, origIDs := restrict(t, in, mask)
		// Rebuild old->new element mapping.
		old2new := map[int]setcover.Elem{}
		next := setcover.Elem(0)
		mask.ForEach(func(i int) bool { old2new[i] = next; next++; return true })
		for pi, ps := range proj.Sets {
			orig := in.Sets[origIDs[pi]]
			want := map[setcover.Elem]bool{}
			for _, e := range orig.Elems {
				if mask.Test(int(e)) {
					want[old2new[int(e)]] = true
				}
			}
			if len(want) != len(ps.Elems) {
				return false
			}
			for _, e := range ps.Elems {
				if !want[e] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
