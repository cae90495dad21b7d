package scdisk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// testInstance is a small planted instance shared by the format tests.
func testInstance(t testing.TB) *setcover.Instance {
	t.Helper()
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 200, M: 450, K: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// writeTemp writes the instance in the indexed format and returns the path.
func writeTemp(t testing.TB, in *setcover.Instance) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst.scb")
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	return path
}

func sameInstance(t *testing.T, want, got *setcover.Instance) {
	t.Helper()
	if want.N != got.N || len(want.Sets) != len(got.Sets) {
		t.Fatalf("dims mismatch: n=%d/%d m=%d/%d", want.N, got.N, len(want.Sets), len(got.Sets))
	}
	for i := range want.Sets {
		a, b := want.Sets[i].Elems, got.Sets[i].Elems
		if len(a) != len(b) {
			t.Fatalf("set %d: size %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("set %d differs at %d: %d vs %d", i, j, a[j], b[j])
			}
		}
	}
}

// The indexed file must still be a valid plain SCB1 stream: the footer is
// strictly additive and setcover.ReadBinary ignores it.
func TestIndexedFileBackCompatWithReadBinary(t *testing.T) {
	in := testInstance(t)
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := setcover.ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameInstance(t, in, back)

	// And the set data region must be byte-identical to WriteBinary.
	var plain bytes.Buffer
	if err := setcover.WriteBinary(&plain, in); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), plain.Bytes()) {
		t.Fatal("indexed file does not start with the plain SCB1 encoding")
	}
}

// A full pass over the Repo must reproduce the instance exactly, via both the
// Next and NextBatch paths.
func TestRepoRoundTrip(t *testing.T) {
	in := testInstance(t)
	d, err := Open(writeTemp(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.UniverseSize() != in.N || d.NumSets() != in.M() {
		t.Fatalf("dims: n=%d m=%d", d.UniverseSize(), d.NumSets())
	}
	if !d.HasIndex() {
		t.Fatal("Writer output should carry the index footer")
	}

	got := &setcover.Instance{N: d.UniverseSize()}
	if got.Sets, err = drainSeq(d); err != nil {
		t.Fatal(err)
	}
	sameInstance(t, in, got)

	got2 := &setcover.Instance{N: d.UniverseSize()}
	it2 := d.Begin().(*reader)
	batch := make([]setcover.Set, 0, 7) // deliberately not a divisor of m
	for {
		k := it2.NextBatch(batch[:0])
		if k == 0 {
			break
		}
		for _, s := range batch[:k] {
			cp := append([]setcover.Elem(nil), s.Elems...)
			got2.Sets = append(got2.Sets, setcover.Set{ID: s.ID, Elems: cp})
		}
		it2.Recycle(batch[:k])
	}
	sameInstance(t, in, got2)

	if d.Passes() != 2 {
		t.Fatalf("passes = %d, want 2", d.Passes())
	}
	if err := it2.Err(); err != nil {
		t.Fatal(err)
	}
}

// A plain SCB1 file (no footer) opens and streams fine; only SetSpan is lost.
func TestRepoOnPlainSCB1(t *testing.T) {
	in := testInstance(t)
	var buf bytes.Buffer
	if err := setcover.WriteBinary(&buf, in); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plain.scb")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.HasIndex() {
		t.Fatal("plain SCB1 should have no index")
	}
	if _, _, _, ok := d.SetSpan(0); ok {
		t.Fatal("SetSpan should be unavailable without the index")
	}
	got := &setcover.Instance{N: d.UniverseSize()}
	if got.Sets, err = drainSeq(d); err != nil {
		t.Fatal(err)
	}
	sameInstance(t, in, got)
}

// SetSpan must report consistent extents.
func TestBeginAtAndSetSpan(t *testing.T) {
	in := testInstance(t)
	d, err := Open(writeTemp(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var sum int64
	for i := range in.Sets {
		off, length, card, ok := d.SetSpan(i)
		if !ok {
			t.Fatalf("SetSpan(%d) missing", i)
		}
		if card != len(in.Sets[i].Elems) {
			t.Fatalf("SetSpan(%d) card %d, want %d", i, card, len(in.Sets[i].Elems))
		}
		if i == 0 {
			sum = off
		} else if off != sum {
			t.Fatalf("SetSpan(%d) offset %d, want %d", i, off, sum)
		}
		sum += length
	}
}

// The streaming Writer must produce the same bytes as the batch Write.
func TestStreamingWriterMatchesBatchWrite(t *testing.T) {
	in := testInstance(t)
	var batch, streamed bytes.Buffer
	if err := Write(&batch, in); err != nil {
		t.Fatal(err)
	}
	sw, err := NewWriter(&streamed, in.N, in.M())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range in.Sets {
		if err := sw.WriteSet(s.Elems); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), streamed.Bytes()) {
		t.Fatal("streaming writer output differs from batch Write")
	}
}

func TestWriterRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteSet([]setcover.Elem{3, 3}); err == nil {
		t.Fatal("duplicate elements should be rejected")
	}
	buf.Reset()
	sw, _ = NewWriter(&buf, 10, 2)
	if err := sw.WriteSet([]setcover.Elem{10}); err == nil {
		t.Fatal("out-of-range element should be rejected")
	}
	buf.Reset()
	sw, _ = NewWriter(&buf, 10, 1)
	if err := sw.WriteSet([]setcover.Elem{1}); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteSet([]setcover.Elem{2}); err == nil {
		t.Fatal("writing more than m sets should be rejected")
	}
	buf.Reset()
	sw, _ = NewWriter(&buf, 10, 2)
	if err := sw.WriteSet([]setcover.Elem{1}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err == nil {
		t.Fatal("closing before m sets should be rejected")
	}
}

// Corrupt set data must surface through Err, not panic, and must stop the
// pass.
func TestCorruptDataSurfacesError(t *testing.T) {
	in := testInstance(t)
	var buf bytes.Buffer
	if err := setcover.WriteBinary(&buf, in); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	truncated := data[:len(data)/2]
	d, err := NewRepo(bytes.NewReader(truncated), int64(len(truncated)))
	if err != nil {
		t.Fatal(err)
	}
	sets, err := drainSeq(d)
	if len(sets) >= in.M() {
		t.Fatalf("truncated file still yielded %d sets", len(sets))
	}
	if err == nil {
		t.Fatal("reader.Err should report the failure")
	}
}

// expectPlainDegrade opens data and asserts it is treated as a plain SCB1
// stream (no index) whose sequential passes still decode the instance.
func expectPlainDegrade(t *testing.T, data []byte, in *setcover.Instance) {
	t.Helper()
	d, err := NewRepo(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if d.HasIndex() {
		t.Fatal("invalid index should degrade to plain mode, not load")
	}
	got := &setcover.Instance{N: d.UniverseSize()}
	if got.Sets, err = drainSeq(d); err != nil {
		t.Fatal(err)
	}
	sameInstance(t, in, got)
}

// A trailer whose index does not validate must degrade the file to plain
// sequential mode — never reject it (the trailer magic alone cannot prove a
// footer exists) and never seek with a wrong index.
func TestCorruptIndexDegradesToPlain(t *testing.T) {
	in := testInstance(t)
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}

	// Trailer's index offset pointing at nonsense (but kept in bounds).
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)-12] ^= 0x01
	expectPlainDegrade(t, data, in)

	// A byte-length entry that understates a set's size passes every
	// per-entry bound but breaks the prefix sum: the index must be dropped
	// before a segmented pass could seek mid-set.
	data = append(data[:0], buf.Bytes()...)
	trailerOff := int64(len(data)) - trailerLen
	idxOff := int64(binary.LittleEndian.Uint64(data[trailerOff : trailerOff+8]))
	// First pair sits right after "SCIX" + varint(m); its byteLen is a
	// single-byte varint for this small instance.
	pos := idxOff + 4
	for data[pos]&0x80 != 0 { // skip varint(m)
		pos++
	}
	pos++
	if data[pos]&0x80 != 0 {
		t.Skip("first byteLen not a single-byte varint")
	}
	data[pos]-- // understate set 0's encoded length
	expectPlainDegrade(t, data, in)
}

// A plain SCB1 file whose set data coincidentally ends in the trailer magic
// must still open and stream: ReadBinary accepts it, so Repo must too.
func TestCoincidentalTrailerMagicStillOpens(t *testing.T) {
	// Gaps 83,67,88,49 encode to the bytes "SCX1" at the end of the file.
	in := &setcover.Instance{N: 1000}
	in.Sets = append(in.Sets,
		setcover.Set{Elems: []setcover.Elem{0, 1, 2}},
		setcover.Set{Elems: []setcover.Elem{5, 10, 500, 900}},
		setcover.Set{Elems: []setcover.Elem{0, 84, 152, 241, 291}},
	)
	in.Normalize()
	var buf bytes.Buffer
	if err := setcover.WriteBinary(&buf, in); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.HasSuffix(data, trailerMagic[:]) {
		t.Fatalf("test construction broken: file does not end in %q", trailerMagic[:])
	}
	if _, err := setcover.ReadBinary(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	expectPlainDegrade(t, data, in)
}

// headerOnlySCB1 is a plain SCB1 header with no set data: n = 8 and
// m = 4,194,304 (the varint 80 80 80 02), nine bytes in all.
var headerOnlySCB1 = []byte("SCB1\x08\x80\x80\x80\x02")

// A header that claims more sets than the file has bytes fails at open:
// every set takes at least its count byte, and solvers size their state by
// m before the first pass could find the data missing.
func TestHeaderClaimingMoreSetsThanBytesFailsOpen(t *testing.T) {
	if _, m, _, err := setcover.DecodeBinaryHeader(headerOnlySCB1); err != nil || m != 1<<22 {
		t.Fatalf("test construction broken: header decodes to m=%d, err=%v", m, err)
	}
	_, err := NewRepo(bytes.NewReader(headerOnlySCB1), int64(len(headerOnlySCB1)))
	if err == nil || !strings.Contains(err.Error(), "claims 4194304 sets but only 0 bytes") {
		t.Fatalf("NewRepo = %v, want the set-count bound error", err)
	}
	if _, err := NewRepoBytes(headerOnlySCB1); err == nil {
		t.Fatal("NewRepoBytes accepted the header-only file")
	}
	// One count byte per set is exactly enough: m empty sets open.
	ok := append([]byte("SCB1\x08\x03"), 0, 0, 0)
	if _, err := NewRepo(bytes.NewReader(ok), int64(len(ok))); err != nil {
		t.Fatalf("three empty sets: %v", err)
	}
}

// Concurrent passes must not interfere: each reader owns its window.
func TestConcurrentPasses(t *testing.T) {
	in := testInstance(t)
	d, err := Open(writeTemp(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const passes = 4
	errc := make(chan error, passes)
	for p := 0; p < passes; p++ {
		go func() {
			sets, err := drainSeq(d)
			if err != nil {
				errc <- err
				return
			}
			for i, s := range sets {
				if s.ID != i || len(s.Elems) != len(in.Sets[i].Elems) {
					errc <- errMismatch(i)
					return
				}
			}
			if len(sets) != in.M() {
				errc <- errMismatch(len(sets))
				return
			}
			errc <- nil
		}()
	}
	for p := 0; p < passes; p++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if d.Passes() != passes {
		t.Fatalf("passes = %d, want %d", d.Passes(), passes)
	}
}

type errMismatch int

func (e errMismatch) Error() string { return "mismatch at set " + string(rune('0'+int(e))) }

// The Repo must satisfy the model interfaces the engine probes for.
var (
	_ stream.Repository          = (*Repo)(nil)
	_ stream.Reader              = (*reader)(nil)
	_ stream.Recycler            = (*reader)(nil)
	_ stream.SegmentedRepository = (*Repo)(nil)
)

// A segmented pass must reproduce the instance exactly: chunks seeked via
// the index, decoded in order into one reused arena, must concatenate to the
// sequential stream, while counting exactly one pass.
func TestSegmentedPassRoundTrip(t *testing.T) {
	in := testInstance(t)
	d, err := Open(writeTemp(t, in))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	src, ok := d.BeginSegmented()
	if !ok {
		t.Fatal("indexed file should segment")
	}
	if d.Passes() != 1 {
		t.Fatalf("BeginSegmented counted %d passes, want 1", d.Passes())
	}
	const chunk = 37 // deliberately not a divisor of m
	got := &setcover.Instance{N: d.UniverseSize()}
	var sets []setcover.Set
	var arena []setcover.Elem
	for start := 0; start < in.M(); start += chunk {
		end := min(start+chunk, in.M())
		sets, arena, err = src.DecodeSegment(start, end, sets[:0], arena)
		if err != nil {
			t.Fatalf("segment [%d,%d): %v", start, end, err)
		}
		for _, s := range sets {
			got.Sets = append(got.Sets, setcover.Set{ID: s.ID, Elems: slices.Clone(s.Elems)})
		}
	}
	sameInstance(t, in, got)
	if d.Passes() != 1 {
		t.Fatalf("segment reads moved the pass counter to %d", d.Passes())
	}
}

// A plain SCB1 file cannot segment: BeginSegmented must decline without
// counting a pass, so the engine's fallback to Begin stays pass-exact.
func TestSegmentedUnavailableWithoutIndex(t *testing.T) {
	in := testInstance(t)
	var buf bytes.Buffer
	if err := setcover.WriteBinary(&buf, in); err != nil {
		t.Fatal(err)
	}
	d, err := NewRepo(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.BeginSegmented(); ok {
		t.Fatal("plain SCB1 should not segment")
	}
	if d.Passes() != 0 {
		t.Fatalf("declined BeginSegmented counted %d passes", d.Passes())
	}
}

// An arena over the byte cap is dropped on return, never kept: one huge set
// must not pin its arena for the repository's lifetime. An arena exactly at
// the cap is kept, and then nothing else fits beside it.
func TestElemPoolDropsOversizedBuffers(t *testing.T) {
	var l arenaList
	l.put(make([]setcover.Elem, 0, arenaListBytes/4+1))
	if len(l.free) != 0 || l.bytes != 0 {
		t.Fatalf("list kept an arena over the cap: %d arenas, %d bytes", len(l.free), l.bytes)
	}
	l.put(make([]setcover.Elem, 0, arenaListBytes/4))
	l.put(make([]setcover.Elem, 0, 16))
	if len(l.free) != 1 || l.bytes != arenaListBytes {
		t.Fatalf("list holds %d arenas and %d bytes, want the one at the cap (%d bytes)", len(l.free), l.bytes, arenaListBytes)
	}
	if a := l.get(); cap(a) != arenaListBytes/4 || l.bytes != 0 {
		t.Fatalf("get returned capacity %d and left %d bytes", cap(a), l.bytes)
	}
}

// Corrupt set data under a perfectly valid index must poison a segmented
// engine pass: the chunk that decodes it fails, the engine stops delivery in
// stream order, and Run reports the error — never a silently short stream.
func TestCorruptSetPoisonsSegmentedPass(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 60, M: 200, K: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)

	clean, err := NewRepo(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite set 97's cardinality varint with 120 > n: same byte length
	// (both single-byte varints), so the index still validates, but decode
	// must reject the set.
	off, _, _, ok := clean.SetSpan(97)
	if !ok {
		t.Fatal("SetSpan missing")
	}
	if data[off]&0x80 != 0 {
		t.Fatal("test construction broken: count varint not a single byte")
	}
	data[off] = 120

	d, err := NewRepo(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasIndex() {
		t.Fatal("index should still validate — only set data is corrupt")
	}
	for _, workers := range []int{1, 4} {
		seen := 0
		err := engine.New(engine.Options{Workers: workers, BatchSize: 16}).Run(d,
			engine.Func(func(batch []setcover.Set) {
				for _, s := range batch {
					if s.ID != seen {
						t.Fatalf("workers=%d: set %d delivered at position %d", workers, s.ID, seen)
					}
					seen++
				}
			}))
		if err == nil {
			t.Fatalf("workers=%d: corrupt set did not fail the pass (saw %d sets)", workers, seen)
		}
		if seen > 97 {
			t.Fatalf("workers=%d: observer saw %d sets, beyond the corrupt one at 97", workers, seen)
		}
	}
}

// flakyReaderAt fails every ReadAt overlapping [failFrom, ∞) while tripped,
// and serves normally once healed — the shape of a transient I/O fault.
type flakyReaderAt struct {
	r        io.ReaderAt
	failFrom int64
	tripped  bool
}

func (f *flakyReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if f.tripped && off+int64(len(p)) > f.failFrom {
		return 0, fmt.Errorf("flaky: injected I/O fault at offset %d", off)
	}
	return f.r.ReadAt(p, off)
}

// Pass failures are scoped to the pass: a failed pass must not make later,
// healthy passes on the same repository report failure.
func TestPassErrorScopedPerPass(t *testing.T) {
	in := testInstance(t)
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	flaky := &flakyReaderAt{r: bytes.NewReader(buf.Bytes()), failFrom: int64(buf.Len()) / 2}
	d, err := NewRepo(flaky, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}

	// Pass 1 hits the fault mid-stream and fails.
	flaky.tripped = true
	if _, err := drainSeq(d); err == nil {
		t.Fatal("pass over the tripped reader should fail")
	}

	// Pass 2, after the fault heals, must be clean: its reader carries no
	// error and decodes the whole family.
	flaky.tripped = false
	sets, err := drainSeq(d)
	if err != nil {
		t.Fatalf("healthy pass after a failed one reported %v", err)
	}
	if len(sets) != in.M() {
		t.Fatalf("healthy pass decoded %d of %d sets", len(sets), in.M())
	}
}
