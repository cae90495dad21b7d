package engine

import (
	"fmt"
	"sync"

	"repro/internal/setcover"
	"repro/internal/stream"
)

// segmented.go is the data-parallel decode path of the engine: when a
// repository implements stream.SegmentedRepository and the engine runs with
// more than one worker, one physical pass is split into contiguous chunks,
// decoded by `workers` goroutines, and reassembled in stream order before
// any observer sees a set.
//
// Chunk boundaries come from planBounds: the segment source's own
// cost-balanced plan (stream.SegmentSource.PlanSegments — scdisk cuts
// ≈equal-BYTE chunks from its seek index, so one huge set no longer
// serializes a decoder on skewed families), or uniform cuts of chunkSize
// sets when the source returns nil or a malformed plan. Either way the
// boundaries are fixed before any decoder starts, shared by all of them,
// and affect wall-clock only.
//
// Chunk ownership is strided: decoder w owns chunks w, w+W, w+2W, ... and
// publishes them, in its own order, on its own bounded channel. The consumer
// (segmentedReader.NextBatch, driven by the engine's delivery loop) takes
// chunk c from channel c mod W, so round-robin receive reconstructs global
// stream order with no sequence numbers and no sorting. The channels ARE the
// reorder window: each holds at most segWindow finished chunks, so a fast
// decoder blocks after running segWindow chunks ahead of delivery and the
// in-flight decoded state stays O(workers · segWindow) chunks, plus the
// chunks viewed by batches still with observers — with uniform cuts that is
// O(workers · segWindow · chunkSize) sets, with a byte-balanced plan the
// equivalent bound in bytes.
//
// Determinism: chunk boundaries depend only on (m, chunkSize) and the
// source's deterministic plan, each chunk is decoded by exactly one goroutine
// into its own chunk record, and delivery is in stream order, so observers
// receive byte-identical streams at every worker count — the engine's
// contract, now including the decode layer.
//
// Failure: a chunk whose decode errors (or comes up short — a partial chunk
// is a truncation even if the source doesn't say so) is published with its
// error. The consumer stops delivering at the first failed chunk, closes the
// stop channel so the remaining decoders abandon their work, and reports the
// error through Err — poisoning the pass rather than passing off a prefix of
// the stream as the whole thing.

// segWindow is the per-decoder reorder window, in chunks: how far ahead of
// in-order delivery one decoder may run before blocking.
const segWindow = 2

// segChunk is one decoded contiguous range of the stream, or the error that
// interrupted it. A failed chunk may still carry the sets decoded before the
// failure; they are never delivered. Chunk records are pooled in chunkPool
// and outlive the pass, arena and all: every delivered set is a
// capacity-clipped view into arena, so an observer that appends to one
// reallocates instead of overwriting the next set.
//
// Ownership: a decoder owns a record from Get until it sends it, and must
// read everything it needs from it (its error) before the send. The
// consumer then owns it: it copies the set headers into batches, and once
// the last one is copied the record waits on the held list until the batch
// holding that last set is recycled. Only then does it go back to the pool,
// where a decoder of this pass or a concurrent one may overwrite its arena.
type segChunk struct {
	sets  []setcover.Set
	arena []setcover.Elem
	err   error
	// last is the index, in NextBatch calls, of the batch holding the
	// chunk's last set; next links the held list.
	last int
	next *segChunk
}

// chunkPool holds the chunk records of every engine's segmented passes.
// Engines are built per solve, so a per-engine pool would decode each
// solve's first pass into fresh arenas.
var chunkPool = sync.Pool{New: func() any { return new(segChunk) }}

// maxChunkArena caps, in elements (4 MB), the arena a pooled chunk record
// keeps: a chunk holding one huge set drops its arena instead of pinning it
// in the pool.
const maxChunkArena = 1 << 20

// segmentedReader adapts W parallel chunk decoders into a single in-order
// stream.Reader. It implements stream.BatchReader (the engine's fill path),
// stream.Recycler (releasing chunk records whose sets are all consumed), and
// stream.ErrorReader (the poisoned-pass surface). It is engine-internal: the
// Set values it yields view arenas of pooled chunk records, so the usual
// no-retention discipline applies.
type segmentedReader struct {
	chans   []chan *segChunk
	stop    chan struct{}
	wg      sync.WaitGroup
	next    int // channel index the next in-order chunk arrives on
	cur     *segChunk
	curPos  int
	batches int // batches NextBatch has returned
	done    bool
	err     error
	stopped bool

	// mu guards the held list and recycled: Recycle runs on the delivery
	// goroutines while NextBatch appends.
	mu         sync.Mutex
	head, tail *segChunk // fully copied-out chunks, in stream order
	recycled   int       // Recycle calls so far
}

// newSegmentedReader starts `workers` decode goroutines over the m sets of
// src, cut into chunks by planBounds, decoding into chunk records drawn from
// chunkPool.
func newSegmentedReader(src stream.SegmentSource, m, workers, chunkSize int) *segmentedReader {
	bounds := planBounds(src, m, chunkSize)
	chunks := len(bounds) - 1
	if workers > chunks {
		workers = chunks
	}
	if workers < 1 {
		workers = 1
	}
	r := &segmentedReader{
		chans: make([]chan *segChunk, workers),
		stop:  make(chan struct{}),
	}
	for w := range r.chans {
		r.chans[w] = make(chan *segChunk, segWindow)
	}
	r.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go r.decode(src, w, workers, bounds)
	}
	return r
}

// planBounds fixes the chunk boundaries of one segmented pass: the source's
// own cost-balanced plan when it offers a valid one (PlanSegments), uniform
// chunkSize cuts otherwise. The uniform fallback also guards against a
// source returning malformed boundaries — the plan is an untrusted hint,
// never a correctness input.
func planBounds(src stream.SegmentSource, m, chunkSize int) []int {
	target := (m + chunkSize - 1) / chunkSize
	if b := src.PlanSegments(target); validBounds(b, m) {
		return b
	}
	b := make([]int, 0, target+1)
	for start := 0; start < m; start += chunkSize {
		b = append(b, start)
	}
	return append(b, m)
}

// validBounds reports whether b is a well-formed boundary list over m sets:
// strictly increasing from exactly 0 to exactly m.
func validBounds(b []int, m int) bool {
	if len(b) < 1 || b[0] != 0 || b[len(b)-1] != m {
		return false
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			return false
		}
	}
	return true
}

// decode runs one decoder goroutine: chunks w, w+workers, ... in order.
func (r *segmentedReader) decode(src stream.SegmentSource, w, workers int, bounds []int) {
	defer r.wg.Done()
	defer close(r.chans[w])
	for c := w; c < len(bounds)-1; c += workers {
		start, end := bounds[c], bounds[c+1]
		ck := chunkPool.Get().(*segChunk)
		ck.sets, ck.arena, ck.err = src.DecodeSegment(start, end, ck.sets, ck.arena)
		if ck.err == nil && len(ck.sets) != end-start {
			ck.err = fmt.Errorf("engine: segment [%d,%d) ended after %d sets", start, end, len(ck.sets))
		}
		failed := ck.err != nil // read before the send: see segChunk
		select {
		case r.chans[w] <- ck:
		case <-r.stop:
			releaseChunk(ck)
			return
		}
		if failed {
			return
		}
	}
}

// releaseChunk returns a chunk record to chunkPool; the next decode into
// it overwrites its sets and arena. An arena over maxChunkArena is dropped,
// and so are the set headers viewing it.
func releaseChunk(ck *segChunk) {
	if cap(ck.arena) > maxChunkArena {
		clear(ck.sets)
		ck.arena = nil
	}
	ck.err, ck.next = nil, nil
	chunkPool.Put(ck)
}

// NextBatch implements stream.BatchReader: it copies the next in-order run
// of Set headers into dst. A chunk whose last set it copies joins the held
// list until Recycle learns that batch is done.
func (r *segmentedReader) NextBatch(dst []setcover.Set) int {
	dst = dst[:cap(dst)]
	n := 0
	for n < len(dst) {
		if r.cur == nil && !r.advance() {
			break
		}
		c := copy(dst[n:], r.cur.sets[r.curPos:])
		n += c
		r.curPos += c
		if r.curPos == len(r.cur.sets) {
			r.hold(r.cur)
			r.cur = nil
		}
	}
	if n > 0 {
		r.batches++
	}
	return n
}

// hold appends a copied-out chunk to the held list, tagged with the batch
// NextBatch is filling.
func (r *segmentedReader) hold(ck *segChunk) {
	ck.last = r.batches
	r.mu.Lock()
	if r.tail == nil {
		r.head = ck
	} else {
		r.tail.next = ck
	}
	r.tail = ck
	r.mu.Unlock()
}

// Recycle implements stream.Recycler. The engine recycles each batch once,
// and observers finish batches in stream order, so when the k-th call
// arrives batches 0..k-1 are done, whichever batch this call names: every
// held chunk whose last set sits in one of them goes back to the pool.
func (r *segmentedReader) Recycle([]setcover.Set) {
	r.mu.Lock()
	r.recycled++
	for r.head != nil && r.head.last < r.recycled {
		ck := r.head
		if r.head = ck.next; r.head == nil {
			r.tail = nil
		}
		releaseChunk(ck)
	}
	r.mu.Unlock()
}

// advance receives the next in-order chunk. It returns false when the stream
// is exhausted or poisoned.
func (r *segmentedReader) advance() bool {
	if r.done {
		return false
	}
	ck, ok := <-r.chans[r.next]
	if !ok {
		// Decoder next%W has no further chunk, so no decoder has any later
		// chunk either (ownership is strided): the pass is fully delivered.
		r.finish()
		return false
	}
	r.next = (r.next + 1) % len(r.chans)
	if ck.err != nil {
		r.err = ck.err
		releaseChunk(ck)
		r.finish()
		return false
	}
	r.cur, r.curPos = ck, 0
	return true
}

// finish stops the decoders, drains their channels, and waits for them to
// exit, so a completed (or poisoned) pass leaks no goroutines and returns
// every undelivered chunk record. Delivered ones go back through Recycle.
func (r *segmentedReader) finish() {
	r.done = true
	if r.stopped {
		return
	}
	r.stopped = true
	close(r.stop)
	for _, ch := range r.chans {
		for ck := range ch {
			releaseChunk(ck)
		}
	}
	r.wg.Wait()
}

// Next implements stream.Reader. The engine always uses NextBatch; Next
// exists to satisfy the interface (and hands out shared buffers, so it is
// not for retaining scanners).
func (r *segmentedReader) Next() (setcover.Set, bool) {
	var one [1]setcover.Set
	if r.NextBatch(one[:0:1]) == 0 {
		return setcover.Set{}, false
	}
	return one[0], true
}

// Err implements stream.ErrorReader: the error that poisoned the pass.
func (r *segmentedReader) Err() error { return r.err }
