package engine

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// totalElems is the ground-truth element count of an instance, summed the
// same way the engine's trace accounting does.
func totalElems(in *setcover.Instance) int64 {
	var n int64
	for _, s := range in.Sets {
		n += int64(len(s.Elems))
	}
	return n
}

// Every Run with a tracer installed must emit exactly one record per pass,
// with solve-local indices, full delivery counts, and the configured
// options stamped in.
func TestTraceEmittedPerPass(t *testing.T) {
	const n, m = 64, 500
	in := testInstance(n, m)
	repo := stream.NewSliceRepo(in)
	rec := &obs.Recorder{}
	e := New(Options{Workers: 4, BatchSize: 64, Tracer: rec})
	for pass := 0; pass < 3; pass++ {
		if err := e.Run(repo, &recorder{}); err != nil {
			t.Fatal(err)
		}
	}
	got := rec.Passes()
	if len(got) != 3 {
		t.Fatalf("got %d trace records, want 3", len(got))
	}
	for i, p := range got {
		if p.Index != i+1 {
			t.Fatalf("pass %d: Index = %d, want %d", i, p.Index, i+1)
		}
		if p.Kind != "sets" {
			t.Fatalf("Kind = %q, want sets", p.Kind)
		}
		if p.Items != m {
			t.Fatalf("Items = %d, want %d", p.Items, m)
		}
		if p.Elems != totalElems(in) {
			t.Fatalf("Elems = %d, want %d", p.Elems, totalElems(in))
		}
		if p.Workers != 4 || p.BatchSize != 64 {
			t.Fatalf("options not stamped: workers=%d batch=%d", p.Workers, p.BatchSize)
		}
		if p.Wall <= 0 {
			t.Fatalf("Wall = %v, want > 0", p.Wall)
		}
		if p.Err != nil {
			t.Fatalf("healthy pass carries error %v", p.Err)
		}
		// SliceRepo passes go through Begin → sequential mode.
		if p.Segmented {
			t.Fatalf("slice pass reported segmented")
		}
		if p.Bytes != 0 {
			t.Fatalf("in-memory pass reported %d bytes", p.Bytes)
		}
	}
}

// sizedSpanRepo is a spanSegRepo that reports the data-section size of the
// disk repository it wraps, so the engine cuts its segmented passes by bytes.
type sizedSpanRepo struct {
	*spanSegRepo
	d *scdisk.Repo
}

func (r sizedSpanRepo) DataBytes() int64 { return r.d.DataBytes() }

// A disk-backed pass at Workers > 1 must report the segmented decode mode,
// the data-section byte size, and the number of chunks it decoded — one per
// segChunkBytes of data, so this file of a few segChunkBytes takes several;
// the same pass at Workers = 1 must report sequential mode with the same
// byte size and no chunks or chunk wait. Either way covers the whole stream.
func TestTraceSegmentedModeAndBytes(t *testing.T) {
	const m = 20000
	in := testInstance(32, m)
	path := filepath.Join(t.TempDir(), "trace.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	d, err := scdisk.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.DataBytes() <= 2*segChunkBytes {
		t.Fatalf("DataBytes = %d, want > %d for a multi-chunk pass", d.DataBytes(), 2*segChunkBytes)
	}

	for _, tc := range []struct {
		workers       int
		wantSegmented bool
	}{
		{workers: 4, wantSegmented: true},
		{workers: 1, wantSegmented: false},
	} {
		rec := &obs.Recorder{}
		repo := sizedSpanRepo{spanSegRepo: &spanSegRepo{Repository: d}, d: d}
		e := New(Options{Workers: tc.workers, BatchSize: 64, Tracer: rec})
		if err := e.Run(repo, &recorder{}); err != nil {
			t.Fatal(err)
		}
		got := rec.Passes()
		if len(got) != 1 {
			t.Fatalf("workers=%d: %d records, want 1", tc.workers, len(got))
		}
		p := got[0]
		if p.Segmented != tc.wantSegmented {
			t.Fatalf("workers=%d: Segmented = %v, want %v", tc.workers, p.Segmented, tc.wantSegmented)
		}
		if p.Bytes != d.DataBytes() {
			t.Fatalf("workers=%d: Bytes = %d, want %d", tc.workers, p.Bytes, d.DataBytes())
		}
		if p.Items != m || p.Elems != totalElems(in) {
			t.Fatalf("workers=%d: Items=%d Elems=%d, want %d/%d",
				tc.workers, p.Items, p.Elems, m, totalElems(in))
		}
		if p.Chunks != len(repo.spans) {
			t.Fatalf("workers=%d: Chunks = %d, but %d segments were decoded", tc.workers, p.Chunks, len(repo.spans))
		}
		if want := int((d.DataBytes() + segChunkBytes - 1) / segChunkBytes); tc.wantSegmented && p.Chunks != want {
			t.Fatalf("workers=%d: Chunks = %d, want ceil(DataBytes/segChunkBytes) = %d", tc.workers, p.Chunks, want)
		}
		if !tc.wantSegmented && p.Wait != 0 {
			t.Fatalf("workers=%d: sequential pass reports chunk wait %v", tc.workers, p.Wait)
		}
	}
}

// A failed pass still emits its trace record: the error is stamped in and
// Items is the delivered prefix, never silently m.
func TestTraceOnFailedPass(t *testing.T) {
	const m = 100
	// A repository that claims m sets but yields only m/2: the short-stream
	// failure path.
	short := stream.NewSequentialFuncRepo(16, m, func(id int) setcover.Set {
		return setcover.Set{Elems: []setcover.Elem{int32(id % 16)}}
	})
	lying := &shortRepo{Repository: short, claim: m, yield: m / 2}
	rec := &obs.Recorder{}
	e := New(Options{Workers: 1, Tracer: rec})
	err := e.Run(lying, &recorder{begins: 0})
	if !errors.Is(err, ErrPassFailed) {
		t.Fatalf("err = %v, want ErrPassFailed", err)
	}
	got := rec.Passes()
	if len(got) != 1 {
		t.Fatalf("%d records, want 1", len(got))
	}
	if got[0].Err == nil || !errors.Is(got[0].Err, ErrPassFailed) {
		t.Fatalf("trace record error = %v, want ErrPassFailed chain", got[0].Err)
	}
	if got[0].Items != m/2 {
		t.Fatalf("Items = %d, want delivered prefix %d", got[0].Items, m/2)
	}
}

// shortRepo claims `claim` sets but its passes yield only `yield`.
type shortRepo struct {
	stream.Repository
	claim, yield int
}

func (r *shortRepo) NumSets() int { return r.claim }
func (r *shortRepo) Begin() stream.Reader {
	return &truncReader{inner: r.Repository.Begin(), left: r.yield}
}

type truncReader struct {
	inner stream.Reader
	left  int
}

func (it *truncReader) NextBatch(dst []setcover.Set) int {
	if it.left <= 0 {
		return 0
	}
	n := it.inner.NextBatch(dst[:0:min(cap(dst), it.left)])
	it.left -= n
	return n
}

// Err reports nothing: the truncation is silent, and the engine's full-drain
// check has to catch it.
func (it *truncReader) Err() error { return nil }

// RunOver passes trace with Kind "items" and zero Elems (the engine cannot
// see inside non-set items), sharing the engine's pass sequence with Run.
func TestTraceRunOverKindItems(t *testing.T) {
	rec := &obs.Recorder{}
	e := New(Options{Workers: 2, BatchSize: 8, Tracer: rec})
	src := sliceSource[int]{items: make([]int, 100)}
	if err := RunOver[int](e, src, FuncOf[int](func([]int) {})); err != nil {
		t.Fatal(err)
	}
	// A set pass on the same engine continues the sequence.
	if err := e.Run(stream.NewSliceRepo(testInstance(8, 10)), &recorder{}); err != nil {
		t.Fatal(err)
	}
	got := rec.Passes()
	if len(got) != 2 {
		t.Fatalf("%d records, want 2", len(got))
	}
	if got[0].Kind != "items" || got[0].Items != 100 || got[0].Elems != 0 {
		t.Fatalf("RunOver record = %+v", got[0])
	}
	if got[1].Kind != "sets" || got[1].Index != got[0].Index+1 {
		t.Fatalf("sequence broken across Run/RunOver: %+v then %+v", got[0], got[1])
	}
}

// sliceSource is a minimal generic Source for trace tests.
type sliceSource[T any] struct{ items []T }

func (s sliceSource[T]) NumItems() int { return len(s.items) }
func (s sliceSource[T]) Begin() stream.Cursor[T] {
	return &sliceCursor[T]{items: s.items}
}

type sliceCursor[T any] struct {
	items []T
	pos   int
}

func (c *sliceCursor[T]) NextBatch(dst []T) int {
	n := copy(dst[:cap(dst)], c.items[c.pos:])
	c.pos += n
	return n
}

func (c *sliceCursor[T]) Err() error { return nil }
