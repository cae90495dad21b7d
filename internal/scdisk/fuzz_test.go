package scdisk

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/setcover"
	"repro/internal/stream"
)

// FuzzNewRepo throws arbitrary bytes at the repository opener — the SCB1
// header parse plus the SCIX footer/trailer detection and validation path.
// The invariants under fuzz:
//
//   - NewRepo never panics and never over-allocates from claimed dimensions
//     (the codec's capped preallocation);
//   - when it accepts the bytes WITH an index, the index must be usable: a
//     segmented read over every chunk must yield exactly the sets a plain
//     sequential pass yields, or fail — it must never silently diverge
//     (seeking with a wrong index would decode garbage mid-set);
//   - a file that opens must also drain without panicking, with any decode
//     failure surfacing through the reader error, not a short healthy pass;
//   - a positional-read pass whose window starts at one byte — so every set
//     goes through the window's slide-and-grow refill — yields exactly the
//     byte-backed stream, failing where it fails with the same error.
//
// The seed corpus covers a valid indexed file, a valid plain file, and the
// empty input; the fuzzer mutates from there into the interesting middle
// ground (trailer magic present, index bytes lying).
func FuzzNewRepo(f *testing.F) {
	in := &setcover.Instance{N: 50, Sets: []setcover.Set{
		{Elems: []setcover.Elem{0, 3, 7}},
		{Elems: []setcover.Elem{1}},
		{Elems: []setcover.Elem{2, 4, 8, 16, 32}},
	}}
	in.Normalize()
	var indexed bytes.Buffer
	if err := Write(&indexed, in); err != nil {
		f.Fatal(err)
	}
	var plain bytes.Buffer
	if err := setcover.WriteBinary(&plain, in); err != nil {
		f.Fatal(err)
	}
	f.Add(indexed.Bytes())
	f.Add(plain.Bytes())
	f.Add([]byte{})
	f.Add([]byte("SCB1"))
	f.Add(headerOnlySCB1)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewRepo(bytes.NewReader(data), int64(len(data)))
		db, berr := NewRepoBytes(data)
		if (err == nil) != (berr == nil) {
			t.Fatalf("read paths disagree at open: readat err=%v, bytes err=%v", err, berr)
		}
		if err != nil {
			return // rejected at open: fine
		}
		// Sequential drain: must terminate (the reader is bounded by m and
		// the section size) and never panic. The byte-backed repo decodes the
		// same bytes from its mapped span — it must agree with the
		// positional-read path on acceptance and, when both are healthy, set
		// for set.
		seq, seqErr := drainSeq(d)
		bseq, bseqErr := drainSeq(db)
		if (seqErr == nil) != (bseqErr == nil) {
			t.Fatalf("read paths disagree on decode failure: readat=%v, bytes=%v", seqErr, bseqErr)
		}
		if seqErr == nil {
			compareStreams(t, "byte-backed sequential", seq, bseq)
		}
		small := d.Begin().(*reader)
		small.win = make([]byte, 0, 1)
		sseq, sseqErr := drainReader(small)
		if fmt.Sprint(sseqErr) != fmt.Sprint(bseqErr) {
			t.Fatalf("one-byte window and byte-backed pass fail differently: %v vs %v", sseqErr, bseqErr)
		}
		compareStreams(t, "one-byte window", bseq, sseq)

		if !d.HasIndex() {
			return
		}
		// The index claims to know where every set starts: segmented chunks
		// must reproduce the sequential stream (or fail), set for set — under
		// the fixed-width cut AND under byte-balanced plans of several
		// granularities, on both read paths.
		m := d.NumSets()
		plans := [][]int{fixedChunks(m, 2)}
		for _, target := range []int{1, 3, m} {
			b := planByteChunks(d.offs, target)
			if len(b) < 1 || b[0] != 0 || b[len(b)-1] != m {
				t.Fatalf("planByteChunks(target=%d) span broken: %v", target, b)
			}
			for i := 1; i < len(b); i++ {
				if b[i] <= b[i-1] {
					t.Fatalf("planByteChunks(target=%d) not increasing: %v", target, b)
				}
			}
			plans = append(plans, b)
		}
		for _, repo := range []*Repo{d, db} {
			for _, bounds := range plans {
				seg, segErr := drainPlanned(t, repo, bounds)
				if seqErr != nil || segErr != nil {
					continue // either path failed loudly: acceptable for corrupt data
				}
				compareStreams(t, "segmented", seq, seg)
			}
		}
	})
}

// fixedChunks is the count-uniform boundary list: chunks of `chunk` sets.
func fixedChunks(m, chunk int) []int {
	b := []int{0}
	for start := chunk; start < m; start += chunk {
		b = append(b, start)
	}
	return append(b, m)
}

// drainSeq copies out a full sequential pass.
func drainSeq(d *Repo) ([]setcover.Set, error) { return drainReader(d.Begin()) }

// drainReader copies out every set a reader yields.
func drainReader(it stream.Reader) ([]setcover.Set, error) {
	var seq []setcover.Set
	batch := make([]setcover.Set, 64)
	for k := it.NextBatch(batch); k > 0; k = it.NextBatch(batch) {
		for _, s := range batch[:k] {
			cp := append([]setcover.Elem(nil), s.Elems...)
			seq = append(seq, setcover.Set{ID: s.ID, Elems: cp})
		}
	}
	return seq, it.Err()
}

// drainPlanned decodes every chunk of one boundary list through a segment
// source, concatenated in order.
func drainPlanned(t *testing.T, d *Repo, bounds []int) ([]setcover.Set, error) {
	t.Helper()
	src, ok := d.BeginSegmented()
	if !ok {
		t.Fatal("HasIndex but BeginSegmented declined")
	}
	var seg, sets []setcover.Set
	var arena []setcover.Elem
	for c := 0; c+1 < len(bounds); c++ {
		var err error
		sets, arena, err = src.DecodeSegment(bounds[c], bounds[c+1], sets[:0], arena)
		for _, s := range sets {
			cp := append([]setcover.Elem(nil), s.Elems...)
			seg = append(seg, setcover.Set{ID: s.ID, Elems: cp})
		}
		if err != nil {
			return seg, err
		}
	}
	return seg, nil
}

// compareStreams fails unless the two decoded streams agree set for set.
func compareStreams(t *testing.T, label string, want, got []setcover.Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s pass yielded %d sets, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || len(want[i].Elems) != len(got[i].Elems) {
			t.Fatalf("%s: set %d diverges from reference", label, i)
		}
		for j := range want[i].Elems {
			if want[i].Elems[j] != got[i].Elems[j] {
				t.Fatalf("%s: set %d element %d diverges", label, i, j)
			}
		}
	}
}
