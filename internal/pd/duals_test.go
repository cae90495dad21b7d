package pd

import (
	"encoding/binary"
	"math"
	"testing"
)

// raiseSeed encodes a batch of elems elements over sets sets in
// FuzzRaiseBatch's input layout: bit e·sets+j of the bitmap says element e
// contains set j, and set j's start count follows the bitmap as two
// little-endian bytes.
func raiseSeed(elems, sets int, member func(e, j int) bool, count func(j int) uint16) (uint16, []byte) {
	bitmap := (elems*sets + 7) / 8
	data := make([]byte, bitmap+2*sets)
	for e := 0; e < elems; e++ {
		for j := 0; j < sets; j++ {
			if i := e*sets + j; member(e, j) {
				data[i/8] |= 1 << (i % 8)
			}
		}
	}
	for j := 0; j < sets; j++ {
		binary.LittleEndian.PutUint16(data[bitmap+2*j:], count(j))
	}
	return uint16(elems - 1 + 16*(sets-1)), data
}

// FuzzRaiseBatch holds raiseCounts to raiseBatch, the general loop, on one
// unweighted batch decoded from the fuzz input:
//   - 1–16 elements over 1–32 sets from shape, membership from the bitmap of
//     data (an element left with no set gets set e mod sets);
//   - each set's start count from two bytes after the bitmap: an even value
//     v is the count v/2 mod 1024, an odd one maxTable−300 + (v/2 mod 600),
//     so counts start on both sides of the tables' end;
//   - the family size m = sets + famQ, which enters the rounds only through
//     d = m, as sets outside the batch are never read;
//   - ε = 10⁻³·500^(int16(epsQ)/2¹⁵), in [2·10⁻⁶, 0.5]. Only ε below
//     1/maxTable leaves an element undercovered while one of its sets
//     counts past the tables, so the hand-off needs the small end;
//   - the round cap capQ mod 4096, so caps fall before, inside and after
//     the stretches in which no element leaves.
//
// Both loops run on states built alike, with each x_j computed from its
// start count, and must return the same rounds and outcome and leave every
// count and, bit for bit, every x_j of the batch's sets the same.
func FuzzRaiseBatch(f *testing.F) {
	// batch-paper's d and ε from zero counts: elements 0–7 share sets 0–11
	// and first reach coverage at round 92, as the first element of
	// batch-paper's first batch does; elements 8–15 share sets 12–17 and
	// follow at round 102.
	shape, data := raiseSeed(16, 18, func(e, j int) bool { return (e < 8) == (j < 12) }, func(int) uint16 { return 0 })
	f.Add(shape, uint16(12000-18), uint16(0), uint16(1002), data)
	// A cap inside the first stretch.
	f.Add(shape, uint16(12000-18), uint16(0), uint16(50), data)
	// A stretch that crosses maxTable: at ε = 2·10⁻⁶ set 0, shared by every
	// element, starts at maxTable−250 (the odd value 2·50+1); set j > 0
	// starts at 7j (the even value 14j).
	shape, data = raiseSeed(6, 9, func(e, j int) bool { return j == 0 || j == e+1 }, func(j int) uint16 {
		if j == 0 {
			return 2*50 + 1
		}
		return uint16(14 * j)
	})
	f.Add(shape, uint16(91), uint16(0x8000), uint16(4000), data)
	f.Fuzz(func(t *testing.T, shape, famQ, epsQ, capQ uint16, data []byte) {
		elems, sets := int(shape%16)+1, int(shape/16%32)+1
		bitmap := (elems*sets + 7) / 8
		inc := make([][]int32, elems)
		for e := range inc {
			for j := 0; j < sets; j++ {
				if i := e*sets + j; i/8 < len(data) && data[i/8]>>(i%8)&1 == 1 {
					inc[e] = append(inc[e], int32(j))
				}
			}
			if len(inc[e]) == 0 {
				inc[e] = []int32{int32(e % sets)}
			}
		}
		d := float64(sets + int(famQ))
		eps := 1e-3 * math.Pow(500, float64(int16(epsQ))/(1<<15))
		roundCap := int(capQ) % 4096
		build := func() *duals {
			du := newDuals(sets, eps, nil)
			du.d, du.lnFactor = d, math.Log(1+d)
			for j := range du.r {
				var v uint16
				if k := bitmap + 2*j; k+1 < len(data) {
					v = binary.LittleEndian.Uint16(data[k:])
				}
				if v&1 == 0 {
					du.r[j] = int(v>>1) % 1024
				} else {
					du.r[j] = maxTable - 300 + int(v>>1)%600
				}
				du.x[j] = du.recompute(int32(j))
			}
			return du
		}
		got, want := build(), build()
		gotRounds, gotOK := got.raiseCounts(inc, roundCap)
		wantRounds, wantOK := want.raiseBatch(inc, roundCap)
		if gotRounds != wantRounds || gotOK != wantOK {
			t.Fatalf("eps=%g d=%g cap=%d: raiseCounts (%d, %v), raiseBatch (%d, %v)",
				eps, d, roundCap, gotRounds, gotOK, wantRounds, wantOK)
		}
		for j := 0; j < sets; j++ {
			if got.r[j] != want.r[j] || math.Float64bits(got.x[j]) != math.Float64bits(want.x[j]) {
				t.Fatalf("eps=%g d=%g cap=%d: set %d ends at count %d x %v, raiseBatch at %d x %v",
					eps, d, roundCap, j, got.r[j], got.x[j], want.r[j], want.x[j])
			}
		}
	})
}
