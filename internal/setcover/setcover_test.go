package setcover

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func small() *Instance {
	in := &Instance{
		N: 6,
		Sets: []Set{
			{Elems: []Elem{0, 1, 2}},
			{Elems: []Elem{2, 3}},
			{Elems: []Elem{3, 4, 5}},
			{Elems: []Elem{0, 5}},
		},
	}
	in.Normalize()
	return in
}

func TestSetContains(t *testing.T) {
	s := Set{Elems: []Elem{1, 4, 9}}
	for _, e := range []Elem{1, 4, 9} {
		if !s.Contains(e) {
			t.Errorf("Contains(%d) = false", e)
		}
	}
	for _, e := range []Elem{0, 2, 10} {
		if s.Contains(e) {
			t.Errorf("Contains(%d) = true", e)
		}
	}
	if s.Size() != 3 {
		t.Fatalf("Size = %d", s.Size())
	}
}

func TestNormalizeSortsDedupsAndAssignsIDs(t *testing.T) {
	in := &Instance{N: 5, Sets: []Set{
		{ID: 99, Elems: []Elem{3, 1, 3, 0}},
		{ID: -1, Elems: []Elem{4}},
	}}
	in.Normalize()
	if in.Sets[0].ID != 0 || in.Sets[1].ID != 1 {
		t.Fatal("Normalize did not assign sequential IDs")
	}
	got := in.Sets[0].Elems
	want := []Elem{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("Validate after Normalize: %v", err)
	}
}

func TestValidateFailures(t *testing.T) {
	cases := []struct {
		name string
		in   Instance
	}{
		{"negative n", Instance{N: -1}},
		{"bad id", Instance{N: 3, Sets: []Set{{ID: 1, Elems: []Elem{0}}}}},
		{"out of range", Instance{N: 3, Sets: []Set{{ID: 0, Elems: []Elem{3}}}}},
		{"unsorted", Instance{N: 3, Sets: []Set{{ID: 0, Elems: []Elem{2, 1}}}}},
		{"duplicate", Instance{N: 3, Sets: []Set{{ID: 0, Elems: []Elem{1, 1}}}}},
	}
	for _, c := range cases {
		if err := c.in.Validate(); err == nil {
			t.Errorf("%s: Validate returned nil", c.name)
		}
	}
}

func TestCoverableAndIsCover(t *testing.T) {
	in := small()
	if !in.Coverable() {
		t.Fatal("instance should be coverable")
	}
	if !in.IsCover([]int{0, 2}) {
		t.Fatal("{0,2} should be a cover")
	}
	if in.IsCover([]int{0, 1}) {
		t.Fatal("{0,1} misses 4,5")
	}
	bad := &Instance{N: 3, Sets: []Set{{ID: 0, Elems: []Elem{0}}}}
	if bad.Coverable() {
		t.Fatal("elements 1,2 are uncoverable")
	}
}

func TestIsCoverIgnoresBogusIDs(t *testing.T) {
	in := small()
	if in.IsCover([]int{-5, 100}) {
		t.Fatal("bogus IDs cover nothing")
	}
	if !in.IsCover([]int{0, 2, -5, 100}) {
		t.Fatal("bogus IDs must not invalidate a real cover")
	}
}

func TestMAndCoverageHelpers(t *testing.T) {
	in := small()
	if in.M() != 4 {
		t.Fatalf("M = %d, want 4", in.M())
	}
	if f := in.CoverageFraction([]int{0}); f != 0.5 {
		t.Fatalf("CoverageFraction = %v, want 0.5 (3 of 6)", f)
	}
	if !in.IsPartialCover([]int{0, 2}, 0) {
		t.Fatal("full cover satisfies eps=0")
	}
	if !in.IsPartialCover([]int{0}, 0.5) {
		t.Fatal("half coverage satisfies eps=0.5")
	}
	if in.IsPartialCover([]int{0}, 0.1) {
		t.Fatal("half coverage does not satisfy eps=0.1")
	}
	empty := &Instance{N: 0}
	if empty.CoverageFraction(nil) != 1 || !empty.IsPartialCover(nil, 0) {
		t.Fatal("empty universe is trivially covered")
	}
}

func TestMaxSetSize(t *testing.T) {
	in := small()
	if got := in.MaxSetSize(); got != 3 {
		t.Fatalf("MaxSetSize = %d, want 3", got)
	}
	if got := (&Instance{N: 1}).MaxSetSize(); got != 0 {
		t.Fatalf("MaxSetSize of empty family = %d, want 0", got)
	}
}

func TestBitsets(t *testing.T) {
	in := small()
	bs := in.Bitsets()
	if len(bs) != 4 {
		t.Fatalf("len = %d", len(bs))
	}
	if !bs[1].Equal(bitset.FromSlice(6, []int32{2, 3})) {
		t.Fatalf("bitset mismatch: %v", bs[1])
	}
}

func TestStats(t *testing.T) {
	in := small()
	st := Stats{Algorithm: "x", Cover: []int{0, 2}}
	st = st.Verify(in)
	if !st.Valid {
		t.Fatal("Verify should mark {0,2} valid")
	}
	if st.CoverSize() != 2 {
		t.Fatalf("CoverSize = %d", st.CoverSize())
	}
	if r := st.Ratio(2); r != 1.0 {
		t.Fatalf("Ratio = %v, want 1", r)
	}
	if r := st.Ratio(0); r != 0 {
		t.Fatalf("Ratio(0) = %v, want 0", r)
	}
	bad := Stats{Cover: []int{0}}.Verify(in)
	if bad.Valid || bad.Ratio(1) != 0 {
		t.Fatal("invalid cover should have ratio 0")
	}
	if !strings.Contains(st.String(), "cover=2") {
		t.Fatalf("String = %q", st.String())
	}
}

func TestIORoundTrip(t *testing.T) {
	in := small()
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != in.N || len(back.Sets) != len(in.Sets) {
		t.Fatalf("round trip dims mismatch: %d/%d vs %d/%d", back.N, len(back.Sets), in.N, len(in.Sets))
	}
	for i := range in.Sets {
		a, b := in.Sets[i].Elems, back.Sets[i].Elems
		if len(a) != len(b) {
			t.Fatalf("set %d mismatch: %v vs %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("set %d mismatch: %v vs %v", i, a, b)
			}
		}
	}
}

func TestReadCommentsAndEmptySets(t *testing.T) {
	src := `
# a comment
setcover 4 2

0 1 0
# another comment
1
`
	in, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.N != 4 || len(in.Sets) != 2 {
		t.Fatalf("parsed n=%d m=%d", in.N, len(in.Sets))
	}
	if len(in.Sets[1].Elems) != 0 {
		t.Fatalf("set 1 should be empty, got %v", in.Sets[1].Elems)
	}
	if len(in.Sets[0].Elems) != 2 || in.Sets[0].Elems[0] != 0 {
		t.Fatalf("set 0 should be normalized to [0 1], got %v", in.Sets[0].Elems)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                     // empty
		"nonsense 3 1\n0 0\n",  // bad header
		"setcover 3 2\n0 0\n",  // missing set line
		"setcover 3 1\n5 0\n",  // out-of-order ID
		"setcover 3 1\n0 x\n",  // bad element
		"setcover 3 1\n0 7\n",  // element out of range
		"setcover -1 0\n",      // negative n
		"setcover 3 1\nzz 1\n", // bad id token
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", src)
		}
	}
}

// Property: random instances round-trip through the text format.
func TestPropIORoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		m := rng.Intn(30)
		in := &Instance{N: n}
		for i := 0; i < m; i++ {
			var es []Elem
			for e := 0; e < n; e++ {
				if rng.Intn(3) == 0 {
					es = append(es, Elem(e))
				}
			}
			in.Sets = append(in.Sets, Set{Elems: es})
		}
		in.Normalize()
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		if back.N != in.N || len(back.Sets) != len(in.Sets) {
			return false
		}
		for i := range in.Sets {
			if len(back.Sets[i].Elems) != len(in.Sets[i].Elems) {
				return false
			}
			for j := range in.Sets[i].Elems {
				if back.Sets[i].Elems[j] != in.Sets[i].Elems[j] {
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
