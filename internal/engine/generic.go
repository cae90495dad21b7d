// Generic pass machinery. The engine's delivery loops are generic over the
// element type: one counted pass over a Source[T] — read through the
// stream.Cursor family — feeds batches of T to ObserverOf[T] observers,
// sharded across a worker pool exactly like the set-system path. The
// concrete stream.Repository entry point (Run, in engine.go) is the
// T = setcover.Set instantiation of these loops plus the
// repository-specific capabilities (segmented decode, the shared batch
// pool); RunOver is the entry point for every other element type — the
// geometric algorithm drives it with streamed shapes.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// Trace kinds: the delivery shape stamped into obs.PassTrace.Kind.
const (
	traceKindSets  = "sets"  // set-system passes (Run)
	traceKindItems = "items" // generic element streams (RunOver)
)

// passTrace carries the in-flight trace record for one pass. nil everywhere
// a tracer is absent — the untraced path pays one pointer comparison per
// touch point. Items/Elems/Skipped are accumulated on the single goroutine
// that calls NextBatch, Wall/Err at pass completion, so no field is ever
// written concurrently.
type passTrace struct {
	tracer obs.Tracer
	rec    obs.PassTrace
}

// countElems accumulates element counts for set batches. For any other
// element type the engine cannot see inside the items and reports 0 — the
// trace field is a set-system measurement.
func countElems[T any](items []T) int64 {
	sets, ok := any(items).([]setcover.Set)
	if !ok {
		return 0
	}
	var n int64
	for i := range sets {
		n += int64(len(sets[i].Elems))
	}
	return n
}

// ObserverOf consumes one physical pass. Observe is called with consecutive
// batches in stream order; each observer's calls happen on a single
// goroutine, but different observers may run concurrently. Observers may
// additionally implement PassLifecycle.
type ObserverOf[T any] interface {
	Observe(batch []T)
}

// FuncOf adapts a plain function to an ObserverOf, for passes whose state
// lives in the enclosing scope.
type FuncOf[T any] func(batch []T)

// Observe implements ObserverOf.
func (f FuncOf[T]) Observe(batch []T) { f(batch) }

// Source is the capability RunOver needs from a stream of T: the generic,
// read-only analogue of stream.Repository. Begin starts (and, by the
// implementer's contract, counts) one sequential pass and returns its
// stream.Cursor; NumItems is the exact stream length, which RunOver uses to
// detect silently truncated passes — a cursor that ends early without
// reporting an error is still a failed pass, never a cheap full one.
type Source[T any] interface {
	// NumItems returns the exact number of items a full pass yields.
	NumItems() int
	// Begin starts a new pass over the stream and returns its cursor.
	Begin() stream.Cursor[T]
}

// RunOver executes one physical pass over src on e's worker/batch
// configuration and feeds it to the observers — engine.Run for streams whose
// element type is not setcover.Set. The engine's contracts carry over
// unchanged: one Begin per call, full drain even with zero observers,
// per-observer sequential delivery in stream order, and determinism for
// observers with disjoint state at every Workers/BatchSize setting.
//
// A non-nil error wraps ErrPassFailed and means the pass could not be fully
// drained: the cursor reported a mid-stream failure (its Err), or the stream
// ended short of src.NumItems() without one. Either way observers
// saw only a prefix, so the caller must propagate the failure instead of
// reporting a result built from a partial scan.
func RunOver[T any](e *Engine, src Source[T], observers ...ObserverOf[T]) error {
	// Batches are pooled per call: unlike the set-system path there is no
	// per-engine pool to share (the element type differs per instantiation),
	// but within the pass allocation still stays O(Workers · BatchSize).
	var pool sync.Pool
	pool.New = func() any {
		return &batchOf[T]{items: make([]T, 0, e.opts.BatchSize)}
	}
	return runPass(func(skippers[T]) stream.Cursor[T] { return src.Begin() }, src.NumItems(), observers, e.opts.Workers,
		func() *batchOf[T] { return pool.Get().(*batchOf[T]) },
		func(b *batchOf[T]) { pool.Put(b) },
		e.newTrace(traceKindItems, src))
}

// runPass is the one body behind Run and RunOver: lifecycle brackets around
// the delivery loop, the cursor's failure report, and the full-drain check
// against the expected stream length. begin opens the (pass-counting)
// cursor after the BeginPass hooks, mirroring the original loop order, and
// gets the pass's skippers, nil when it cannot skip. A segmented reader
// skips chunks itself; the delivery loop asks about the rest of the pass
// for any other cursor. Sets a segmented reader dropped count toward the
// drain. tr, when non-nil, is completed (items, wall time, outcome) and
// emitted after the pass — including failed passes, whose record carries
// the error and the drained prefix length.
func runPass[T any](begin func(skippers[T]) stream.Cursor[T], want int, observers []ObserverOf[T], workers int,
	get func() *batchOf[T], put func(*batchOf[T]), tr *passTrace) error {
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	for _, o := range observers {
		if l, ok := o.(PassLifecycle); ok {
			l.BeginPass()
		}
	}

	skip := skipping(observers)
	it := begin(skip)
	seg, _ := any(it).(*segmentedReader)
	if seg != nil {
		skip = nil
	}
	n := drain(it, observers, workers, skip, want, get, put, tr)
	if seg != nil {
		n += seg.dropped
	}
	err := it.Err()

	for _, o := range observers {
		if l, ok := o.(PassLifecycle); ok {
			l.EndPass()
		}
	}
	switch {
	case err != nil:
		err = fmt.Errorf("engine: %w: %w", ErrPassFailed, err)
	case n != want:
		err = fmt.Errorf("engine: %w: stream ended after %d of %d items", ErrPassFailed, n, want)
	}
	if tr != nil {
		tr.rec.Items = n
		tr.rec.Wall = time.Since(start)
		tr.rec.Err = err
		tr.tracer.TracePass(tr.rec)
	}
	return err
}

// skippers are the observers of a pass that can skip ranges — every
// observer, each a Skipper — or nil when the pass cannot skip. Holding the
// observers slice itself keeps the decision free of allocation.
type skippers[T any] []ObserverOf[T]

// skipping decides, at pass start, whether the pass can skip: only with at
// least one observer, every one a Skipper.
func skipping[T any](observers []ObserverOf[T]) skippers[T] {
	for _, o := range observers {
		if _, ok := o.(Skipper); !ok {
			return nil
		}
	}
	return observers
}

// canSkip reports whether every observer can skip items [start, end);
// always false on a pass that cannot skip.
func (s skippers[T]) canSkip(start, end int) bool {
	for _, o := range s {
		if !o.(Skipper).CanSkip(start, end) {
			return false
		}
	}
	return len(s) > 0
}

// batchOf is a pooled, reference-counted slice of items. The reader fills
// it, every delivery worker reads it (read-only), and the last worker to
// finish returns it to the pool.
type batchOf[T any] struct {
	items []T
	refs  atomic.Int32
}

// drain runs one pass's delivery loop: sequential on the calling goroutine
// when at most one delivery worker is useful, sharded across workers
// otherwise. It returns the number of items drained from the cursor,
// delivered or not. rest, asked about the rest of the pass by the
// sequential loop, is nil for a segmented reader, which skips by itself.
func drain[T any](it stream.Cursor[T], observers []ObserverOf[T], workers int, rest skippers[T], want int,
	get func() *batchOf[T], put func(*batchOf[T]), tr *passTrace) int {
	if workers > len(observers) {
		workers = len(observers)
	}
	if workers <= 1 {
		return drainSequential(it, observers, rest, want, get, put, tr)
	}
	return drainParallel(it, observers, workers, get, put, tr)
}

// drainSequential drains the pass on the calling goroutine, reusing a single
// batch buffer. Also used with zero observers: the pass is still a full
// scan, it just feeds no one. When the cursor recycles (stream.RecyclerOf),
// each batch is handed back as soon as the observers are done with it.
// After each delivered batch it asks rest whether every observer can skip
// the rest of the pass, and once they can it reads the rest without
// delivering it, each batch counted and recycled as if it had been
// delivered.
func drainSequential[T any](it stream.Cursor[T], observers []ObserverOf[T], rest skippers[T], want int,
	get func() *batchOf[T], put func(*batchOf[T]), tr *passTrace) int {
	rec, _ := it.(stream.RecyclerOf[T])
	b := get()
	defer put(b)
	total, delivering := 0, true
	for {
		items := b.items[:it.NextBatch(b.items)]
		if len(items) == 0 {
			return total
		}
		total += len(items)
		if delivering {
			if tr != nil {
				tr.rec.Elems += countElems(items)
			}
			for _, o := range observers {
				o.Observe(items)
			}
			delivering = !rest.canSkip(total, want)
		}
		if rec != nil {
			rec.Recycle(items)
		}
	}
}

// drainParallel shards observers across workers (observer i belongs to
// worker i % workers) and streams ref-counted batches to all of them.
// Channel FIFO order per worker preserves stream order per observer.
func drainParallel[T any](it stream.Cursor[T], observers []ObserverOf[T], workers int,
	get func() *batchOf[T], put func(*batchOf[T]), tr *passTrace) int {
	rec, _ := it.(stream.RecyclerOf[T])
	chans := make([]chan *batchOf[T], workers)
	for w := range chans {
		chans[w] = make(chan *batchOf[T], 2)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := range chans[w] {
				for i := w; i < len(observers); i += workers {
					observers[i].Observe(b.items)
				}
				if b.refs.Add(-1) == 0 {
					if rec != nil {
						rec.Recycle(b.items)
					}
					b.items = b.items[:0]
					put(b)
				}
			}
		}(w)
	}

	total := 0
	for {
		b := get()
		b.items = b.items[:it.NextBatch(b.items)]
		if len(b.items) == 0 {
			put(b)
			break
		}
		total += len(b.items)
		if tr != nil {
			// Counted on the single filler goroutine, before fan-out, so the
			// field is never written concurrently.
			tr.rec.Elems += countElems(b.items)
		}
		b.refs.Store(int32(workers))
		for _, ch := range chans {
			ch <- b
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	return total
}
