package bitset

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Naive reference implementations the word-wise ops are cross-checked
// against: scalar, one element at a time, no masks — slow but obviously
// correct.

func naiveIntersectionWithSlice(b *Bitset, elems []int32) int {
	c := 0
	for _, e := range elems {
		if b.Test(int(e)) {
			c++
		}
	}
	return c
}

func naiveSubtractSlice(b *Bitset, elems []int32) int {
	removed := 0
	for _, e := range elems {
		if b.Test(int(e)) {
			b.Clear(int(e))
			removed++
		}
	}
	return removed
}

func naiveAndNotCount(b, other *Bitset) int {
	c := 0
	b.ForEach(func(i int) bool {
		if !other.Test(i) {
			c++
		}
		return true
	})
	return c
}

func naiveUnionInPlace(b, other *Bitset) int {
	added := 0
	other.ForEach(func(i int) bool {
		if !b.Test(i) {
			added++
			b.Set(i)
		}
		return true
	})
	return added
}

// randomBitset fills a fresh bitset of capacity n with each bit set with
// probability p.
func randomBitset(rng *rand.Rand, n int, p float64) *Bitset {
	b := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i)
		}
	}
	return b
}

// randomUniqueElems draws k distinct elements of [0, n), sorted when asked —
// the shape every normalized set has — or shuffled, which the slice
// ops must also accept.
func randomUniqueElems(rng *rand.Rand, n, k int, sorted bool) []int32 {
	perm := rng.Perm(n)
	out := make([]int32, 0, k)
	for _, e := range perm[:k] {
		out = append(out, int32(e))
	}
	if sorted {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	return out
}

// TestSliceOpsCrossCheck drives the slice ops through many
// random capacities (deliberately straddling word boundaries), densities, and
// element orderings, comparing every result AND the resulting bitset state
// against the naive scalar reference.
func TestSliceOpsCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	capacities := []int{1, 2, 63, 64, 65, 127, 128, 129, 1000}
	for _, n := range capacities {
		for trial := 0; trial < 50; trial++ {
			b := randomBitset(rng, n, rng.Float64())
			k := rng.Intn(n + 1)
			sorted := trial%2 == 0
			elems := randomUniqueElems(rng, n, k, sorted)

			if got, want := b.IntersectionWithSlice(elems), naiveIntersectionWithSlice(b, elems); got != want {
				t.Fatalf("n=%d sorted=%v: IntersectionWithSlice=%d, naive=%d", n, sorted, got, want)
			}
			if got, want := b.IntersectsSlice(elems), naiveIntersectionWithSlice(b, elems) > 0; got != want {
				t.Fatalf("n=%d sorted=%v: IntersectsSlice=%v, naive=%v", n, sorted, got, want)
			}
			members := []int32{-1} // a prefix AppendMembers must keep
			for _, e := range elems {
				if b.Test(int(e)) {
					members = append(members, e)
				}
			}
			if got := b.AppendMembers([]int32{-1}, elems); !slices.Equal(got, members) {
				t.Fatalf("n=%d sorted=%v: AppendMembers=%v, naive=%v", n, sorted, got, members)
			}

			fast, slow := b.Clone(), b.Clone()
			gotRemoved := fast.SubtractSlice(elems)
			wantRemoved := naiveSubtractSlice(slow, elems)
			if gotRemoved != wantRemoved {
				t.Fatalf("n=%d sorted=%v: SubtractSlice removed %d, naive %d", n, sorted, gotRemoved, wantRemoved)
			}
			if !fast.Equal(slow) {
				t.Fatalf("n=%d sorted=%v: SubtractSlice state diverges from naive", n, sorted)
			}
		}
	}
}

// TestWordOpsCrossCheck cross-checks the bitset-vs-bitset word-wise ops
// (AndNotCount, UnionInPlace) against element-at-a-time references.
func TestWordOpsCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 64, 65, 200, 1000} {
		for trial := 0; trial < 50; trial++ {
			a := randomBitset(rng, n, rng.Float64())
			c := randomBitset(rng, n, rng.Float64())

			if got, want := a.AndNotCount(c), naiveAndNotCount(a, c); got != want {
				t.Fatalf("n=%d: AndNotCount=%d, naive=%d", n, got, want)
			}
			// AndNotCount must not mutate either operand.
			if got := a.AndNotCount(c); got != naiveAndNotCount(a, c) {
				t.Fatalf("n=%d: AndNotCount mutated an operand", n)
			}

			fast, slow := a.Clone(), a.Clone()
			gotAdded := fast.UnionInPlace(c)
			wantAdded := naiveUnionInPlace(slow, c)
			if gotAdded != wantAdded {
				t.Fatalf("n=%d: UnionInPlace added %d, naive %d", n, gotAdded, wantAdded)
			}
			if !fast.Equal(slow) {
				t.Fatalf("n=%d: UnionInPlace state diverges from naive", n)
			}
			// Identity: |a| + added == |a ∪ c|.
			if fast.Count() != slow.Count() || fast.Count() != a.Count()+gotAdded {
				t.Fatalf("n=%d: UnionInPlace count identity broken", n)
			}
		}
	}
}

// TestForEachMatchesSlice pins the iterate-set-bits order against Slice and
// NextSet: all three enumerations must agree exactly.
func TestForEachMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 64, 129, 500} {
		b := randomBitset(rng, n, 0.3)
		var viaForEach []int32
		b.ForEach(func(i int) bool {
			viaForEach = append(viaForEach, int32(i))
			return true
		})
		viaSlice := b.Slice()
		if len(viaForEach) != len(viaSlice) {
			t.Fatalf("n=%d: ForEach yields %d elements, Slice %d", n, len(viaForEach), len(viaSlice))
		}
		for i := range viaSlice {
			if viaForEach[i] != viaSlice[i] {
				t.Fatalf("n=%d: enumeration order diverges at %d", n, i)
			}
		}
		cur, idx := b.NextSet(0), 0
		for cur >= 0 {
			if idx >= len(viaSlice) || int32(cur) != viaSlice[idx] {
				t.Fatalf("n=%d: NextSet walk diverges at %d", n, idx)
			}
			idx++
			cur = b.NextSet(cur + 1)
		}
		if idx != len(viaSlice) {
			t.Fatalf("n=%d: NextSet walk ended after %d of %d", n, idx, len(viaSlice))
		}
	}
}

// TestRanksMatchSlice pins Ranks against the enumeration order: the k-th
// member of Slice has rank k, and a non-member's rank counts the members
// below it.
func TestRanksMatchSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 63, 64, 65, 129, 500} {
		for _, p := range []float64{0, 0.3, 1} {
			b := randomBitset(rng, n, p)
			ranks := b.Ranks()
			below := 0
			for i := 0; i < n; i++ {
				r, ok := ranks.Rank(i)
				if r != below || ok != b.Test(i) {
					t.Fatalf("n=%d p=%v: Rank(%d) = (%d, %v), want (%d, %v)", n, p, i, r, ok, below, b.Test(i))
				}
				if ok {
					below++
				}
			}
		}
	}
}

// BenchmarkIntersectionWithSliceDense measures the size-test hot loop on a
// dense sorted set, 32 elements per word, and reports ns per element.
func BenchmarkIntersectionWithSliceDense(b *testing.B) {
	const n = 1 << 16
	bs := New(n)
	for i := 0; i < n; i += 2 {
		bs.Set(i)
	}
	elems := make([]int32, 0, n/2)
	for i := 0; i < n; i += 2 {
		elems = append(elems, int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bs.IntersectionWithSlice(elems) != len(elems) {
			b.Fatal("wrong count")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(elems)), "ns/elem")
}

// BenchmarkSliceKernelsSparse runs the three slice kernels over 4096 sorted
// sets of 16 elements of [0, 5000) — nearly every element in its own word,
// the light sets of the byte-skewed scan family — against a half-full
// bitset, and reports ns per element. IntersectsSlice runs against an empty
// bitset, so it never exits early.
func BenchmarkSliceKernelsSparse(b *testing.B) {
	const n, k, sets = 5000, 16, 4096
	rng := rand.New(rand.NewSource(5))
	half := randomBitset(rng, n, 0.5)
	family := make([][]int32, sets)
	for i := range family {
		family[i] = randomUniqueElems(rng, n, k, true)
	}
	for _, c := range []struct {
		name string
		op   func(bs *Bitset, elems []int32) int
	}{
		{"IntersectionWithSlice", (*Bitset).IntersectionWithSlice},
		{"IntersectsSlice", func(bs *Bitset, elems []int32) int {
			if bs.IntersectsSlice(elems) {
				return 1
			}
			return 0
		}},
		{"SubtractSlice", (*Bitset).SubtractSlice},
	} {
		b.Run(c.name, func(b *testing.B) {
			bs := half.Clone()
			if c.name == "IntersectsSlice" {
				bs.Reset()
			}
			sink := 0
			for b.Loop() {
				for _, elems := range family {
					sink += c.op(bs, elems)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sets*k), "ns/elem")
			if sink < 0 {
				b.Fatal("negative count")
			}
		})
	}
}
