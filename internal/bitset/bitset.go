// Package bitset provides a dense, fixed-capacity bitset used throughout the
// repository to represent subsets of the universe U = {0, ..., n-1}.
//
// The streaming set cover algorithms manipulate element sets constantly
// (uncovered-element tracking, set projections, sampling masks), so the
// representation matters: a dense []uint64 gives O(n/64) words, O(1) member
// test, and word-parallel union/intersection/difference, which is what the
// space accounting in internal/stream charges for.
package bitset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Bitset is a fixed-capacity set of integers in [0, Len()).
// The zero value is an empty bitset of capacity 0; use New to create one with
// a given capacity. Methods that combine two bitsets panic if the capacities
// differ, since mixing universes is always a programming error in this
// code base.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty bitset with capacity for integers in [0, n).
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromSlice returns a bitset of capacity n containing every value in elems.
func FromSlice(n int, elems []int32) *Bitset {
	b := New(n)
	for _, e := range elems {
		b.Set(int(e))
	}
	return b
}

// Len returns the capacity (universe size) of the bitset.
func (b *Bitset) Len() int { return b.n }

// Words returns the number of 64-bit words backing the bitset. This is the
// quantity charged to space trackers when a bitset is stored.
func (b *Bitset) Words() int { return len(b.words) }

// Set adds i to the set.
func (b *Bitset) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear removes i from the set.
func (b *Bitset) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether i is in the set.
func (b *Bitset) Test(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (b *Bitset) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, b.n))
	}
}

// Count returns the number of elements in the set.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (b *Bitset) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Fill adds every integer in [0, Len()) to the set.
func (b *Bitset) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// Reset removes all elements.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trim zeroes the bits beyond capacity in the last word.
func (b *Bitset) trim() {
	if b.n%wordBits != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << (uint(b.n) % wordBits)) - 1
	}
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitset{words: w, n: b.n}
}

// CopyFrom overwrites the receiver with the contents of other.
func (b *Bitset) CopyFrom(other *Bitset) {
	b.sameLen(other)
	copy(b.words, other.words)
}

// Union sets b = b ∪ other.
func (b *Bitset) Union(other *Bitset) {
	b.sameLen(other)
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// UnionInPlace sets b = b ∪ other and returns how many elements were newly
// added (|other \ b| before the merge) — the word-wise "new elements covered"
// count the coverage-tracking hot loops need, in one sweep instead of a
// Count-diff before and after.
func (b *Bitset) UnionInPlace(other *Bitset) int {
	b.sameLen(other)
	added := 0
	for i, w := range other.words {
		added += bits.OnesCount64(w &^ b.words[i])
		b.words[i] |= w
	}
	return added
}

// Intersect sets b = b ∩ other.
func (b *Bitset) Intersect(other *Bitset) {
	b.sameLen(other)
	for i, w := range other.words {
		b.words[i] &= w
	}
}

// Subtract sets b = b \ other.
func (b *Bitset) Subtract(other *Bitset) {
	b.sameLen(other)
	for i, w := range other.words {
		b.words[i] &^= w
	}
}

// IntersectionCount returns |b ∩ other| without allocating.
func (b *Bitset) IntersectionCount(other *Bitset) int {
	b.sameLen(other)
	c := 0
	for i, w := range other.words {
		c += bits.OnesCount64(b.words[i] & w)
	}
	return c
}

// AndNotCount returns |b \ other| without allocating or mutating either set:
// the word-wise "how much of b is NOT already covered by other" primitive.
func (b *Bitset) AndNotCount(other *Bitset) int {
	b.sameLen(other)
	c := 0
	for i, w := range b.words {
		c += bits.OnesCount64(w &^ other.words[i])
	}
	return c
}

// Intersects reports whether b ∩ other is non-empty.
func (b *Bitset) Intersects(other *Bitset) bool {
	b.sameLen(other)
	for i, w := range other.words {
		if b.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether b ⊆ other.
func (b *Bitset) SubsetOf(other *Bitset) bool {
	b.sameLen(other)
	for i, w := range b.words {
		if w&^other.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether b and other contain exactly the same elements.
func (b *Bitset) Equal(other *Bitset) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range b.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

func (b *Bitset) sameLen(other *Bitset) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", b.n, other.n))
	}
}

// ForEach calls fn for each element in increasing order. If fn returns false
// the iteration stops early.
func (b *Bitset) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the elements in increasing order as int32s (the element type
// used by package setcover).
func (b *Bitset) Slice() []int32 {
	out := make([]int32, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, int32(i))
		return true
	})
	return out
}

// NextSet returns the smallest element >= i, or -1 if none exists.
func (b *Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i / wordBits
	w := b.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// IntersectionWithSlice counts how many of the UNIQUE elements in elems are
// members of b. It is the hot path of the streaming "size test", so each
// element costs one load, one shift and one mask, with no branch on the
// data: sparse sets, whose elements fall in distinct words, pay the same per
// element as dense ones. Duplicated elements would be counted twice and are
// excluded by the setcover.Set normalization contract every caller already
// relies on.
func (b *Bitset) IntersectionWithSlice(elems []int32) int {
	c := 0
	for _, e := range elems {
		c += int(b.words[uint32(e)/wordBits] >> (uint32(e) % wordBits) & 1)
	}
	return c
}

// IntersectsSlice reports whether any of the unique elements of elems is a
// member of b — IntersectionWithSlice with an early exit, for callers that
// only branch on "covers anything new at all".
func (b *Bitset) IntersectsSlice(elems []int32) bool {
	for _, e := range elems {
		if b.words[uint32(e)/wordBits]>>(uint32(e)%wordBits)&1 != 0 {
			return true
		}
	}
	return false
}

// AppendMembers appends the members of b among elems to dst, in order, and
// returns the extended slice. Like IntersectionWithSlice it costs one load,
// one shift and one mask per element, with no branch on the data: every
// element is written and only members advance the output.
func (b *Bitset) AppendMembers(dst, elems []int32) []int32 {
	dst = slices.Grow(dst, len(elems))
	out := dst[len(dst) : len(dst)+len(elems)]
	k := 0
	for _, e := range elems {
		out[k] = e
		k += int(b.words[uint32(e)/wordBits] >> (uint32(e) % wordBits) & 1)
	}
	return dst[:len(dst)+k]
}

// SubtractSlice removes every element of elems from b and returns how many
// were actually removed (i.e., were present). Like IntersectionWithSlice it
// costs one load, one mask and one store per element, with no branch on the
// data. elems must be unique.
func (b *Bitset) SubtractSlice(elems []int32) int {
	removed := 0
	for _, e := range elems {
		wi, bit := uint32(e)/wordBits, uint32(e)%wordBits
		w := b.words[wi]
		removed += int(w >> bit & 1)
		b.words[wi] = w &^ (1 << bit)
	}
	return removed
}

// Ranks numbers the members of a bitset 0..Count()-1 in increasing order:
// the rank of a member is the number of members below it.
type Ranks struct {
	words  []uint64
	before []int32 // before[w] counts the members in words[:w]
}

// Ranks builds b's rank directory, one prefix popcount per word. The
// directory reads b's words in place and is valid until b changes.
func (b *Bitset) Ranks() Ranks {
	before := make([]int32, len(b.words))
	c := int32(0)
	for i, w := range b.words {
		before[i] = c
		c += int32(bits.OnesCount64(w))
	}
	return Ranks{words: b.words, before: before}
}

// Rank returns the number of members below i and whether i is a member.
// i must be in [0, Len()).
func (r Ranks) Rank(i int) (int, bool) {
	w, bit := r.words[i/wordBits], uint(i)%wordBits
	return int(r.before[i/wordBits]) + bits.OnesCount64(w&(1<<bit-1)), w>>bit&1 != 0
}

// String renders the set as {e1, e2, ...} for debugging.
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
