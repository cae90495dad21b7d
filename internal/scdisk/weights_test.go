package scdisk

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"testing"

	"repro/internal/setcover"
)

// weightedInstance is testInstance plus a log-skewed cost vector.
func weightedInstance(t testing.TB) *setcover.Instance {
	t.Helper()
	in := testInstance(t)
	ws := make([]float64, in.M())
	for i := range ws {
		ws[i] = math.Exp(float64(i%17)/4 - 2) // deterministic, positive, skewed
	}
	in.Weights = ws
	return in
}

// A weighted file must round-trip the cost vector on both the positional-read
// and mmap backends, and still be a valid plain SCB1 stream for readers that
// predate SCWT.
func TestWeightRoundTrip(t *testing.T) {
	in := weightedInstance(t)
	path := writeTemp(t, in)
	for _, mm := range []bool{false, true} {
		var opts []OpenOption
		if mm {
			opts = append(opts, ReadOnlyMmap())
		}
		d, err := Open(path, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !d.HasWeights() {
			t.Fatalf("mmap=%v: weights not detected", mm)
		}
		got := d.Weights()
		if len(got) != in.M() {
			t.Fatalf("mmap=%v: %d weights, want %d", mm, len(got), in.M())
		}
		for i, w := range got {
			if w != in.Weights[i] {
				t.Fatalf("mmap=%v: weight %d = %v, want %v", mm, i, w, in.Weights[i])
			}
			if d.Weight(i) != w {
				t.Fatalf("mmap=%v: Weight(%d) disagrees with Weights()", mm, i)
			}
		}
		lo, hi, ok := d.WeightRange()
		if !ok || lo > hi || !(lo > 0) {
			t.Fatalf("mmap=%v: WeightRange = %v, %v, %v", mm, lo, hi, ok)
		}
		d.Close()
	}

	// Back-compat: the SCWT section rides behind the SCIX footer, and
	// setcover.ReadBinary stops after the m-th set.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := setcover.ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sameInstance(t, in, back)
}

// An unweighted open of the same family must report no weights — and a
// weight edit must change the digest, so a weighted and an unweighted (or
// differently weighted) variant of one family can never alias each other in
// a digest-keyed result cache.
func TestWeightEditChangesDigest(t *testing.T) {
	plain := testInstance(t)
	weighted := weightedInstance(t)
	rebumped := weightedInstance(t)
	rebumped.Weights[3] *= 2

	digests := make(map[string]string)
	for name, in := range map[string]*setcover.Instance{
		"plain": plain, "weighted": weighted, "rebumped": rebumped,
	} {
		d, err := Open(writeTemp(t, in))
		if err != nil {
			t.Fatal(err)
		}
		if (name != "plain") != d.HasWeights() {
			t.Fatalf("%s: HasWeights = %v", name, d.HasWeights())
		}
		if digests[name], err = d.Digest(); err != nil {
			t.Fatal(err)
		}
		d.Close()
	}
	if digests["plain"] == digests["weighted"] || digests["weighted"] == digests["rebumped"] || digests["plain"] == digests["rebumped"] {
		t.Fatalf("digest collision across weight variants: %v", digests)
	}
}

// A detected-but-invalid weight section must fail the open loudly (weights
// change covers — silently dropping them would solve the wrong problem).
func TestCorruptWeightSectionFailsOpen(t *testing.T) {
	in := weightedInstance(t)
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), good...))
		if _, err := NewRepoBytes(b); err == nil {
			t.Errorf("%s: corrupt weight section opened cleanly", name)
		}
	}
	// The 12-byte SCWT trailer is the last thing in the file:
	// uint64 LE offset + "SCW1".
	offPos := len(good) - 12
	mutate("offset past EOF", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[offPos:], uint64(len(b)))
		return b
	})
	mutate("offset into set data", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[offPos:], 2)
		return b
	})
	mutate("bad section magic", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[offPos:])
		b[off] ^= 0xff
		return b
	})
	mutate("NaN weight", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[offPos:])
		pos := int(off) + len(weightMagic) + uvarintLen(uint64(in.M()))
		binary.LittleEndian.PutUint64(b[pos:], math.Float64bits(math.NaN()))
		return b
	})
	mutate("negative weight", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[offPos:])
		pos := int(off) + len(weightMagic) + uvarintLen(uint64(in.M()))
		binary.LittleEndian.PutUint64(b[pos:], math.Float64bits(-1))
		return b
	})
	mutate("truncated section", func(b []byte) []byte {
		// Drop 8 bytes of weight payload but keep the trailer: the section
		// length no longer matches the declared count.
		trailer := append([]byte(nil), b[len(b)-12:]...)
		return append(b[:len(b)-20], trailer...)
	})
}

// FuzzWeightSection throws mutated weighted files at the opener, targeting
// the SCWT trailer/section decoder specifically. Invariants:
//
//   - opening never panics, on either read path, and both paths agree on
//     acceptance and on the decoded weight vector;
//   - an accepted file's weights are ALWAYS a valid cost model — exactly m
//     finite positive values (setcover.ValidateWeights) — never a partially
//     decoded or NaN-bearing vector (fail-loud: weights change covers, so a
//     detected-but-invalid section must reject the open, not degrade).
//
// The seed corpus is a valid weighted indexed file, its unweighted sibling,
// and a plain file whose set data happens to end in the trailer magic.
func FuzzWeightSection(f *testing.F) {
	in := &setcover.Instance{N: 40, Sets: []setcover.Set{
		{Elems: []setcover.Elem{0, 3, 7}},
		{Elems: []setcover.Elem{1, 5}},
		{Elems: []setcover.Elem{2, 4, 8, 16, 32}},
	}}
	in.Normalize()
	var unweighted bytes.Buffer
	if err := Write(&unweighted, in); err != nil {
		f.Fatal(err)
	}
	in.Weights = []float64{0.5, 2, 1e-3}
	var weighted bytes.Buffer
	if err := Write(&weighted, in); err != nil {
		f.Fatal(err)
	}
	f.Add(weighted.Bytes())
	f.Add(unweighted.Bytes())
	f.Add(append(append([]byte(nil), unweighted.Bytes()...), []byte("SCW1")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewRepo(bytes.NewReader(data), int64(len(data)))
		db, berr := NewRepoBytes(data)
		if (err == nil) != (berr == nil) {
			t.Fatalf("read paths disagree at open: readat err=%v, bytes err=%v", err, berr)
		}
		if err != nil {
			return // rejected at open: fine
		}
		if d.HasWeights() != db.HasWeights() {
			t.Fatal("read paths disagree on weight presence")
		}
		if !d.HasWeights() {
			return
		}
		ws, bws := d.Weights(), db.Weights()
		if err := setcover.ValidateWeights(ws, d.NumSets()); err != nil {
			t.Fatalf("accepted file carries invalid weights: %v", err)
		}
		if len(ws) != len(bws) {
			t.Fatalf("read paths decode %d vs %d weights", len(ws), len(bws))
		}
		for i := range ws {
			if ws[i] != bws[i] {
				t.Fatalf("read paths disagree on weight %d: %v vs %v", i, ws[i], bws[i])
			}
		}
		if lo, hi, ok := d.WeightRange(); !ok || !(lo > 0) || hi < lo {
			t.Fatalf("weighted repo reports WeightRange %v, %v, %v", lo, hi, ok)
		}
	})
}
