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
// in-flight decoded state stays O(workers · segWindow) chunks — with uniform
// cuts that is O(workers · segWindow · chunkSize) sets, with a byte-balanced
// plan the equivalent bound in bytes.
//
// Determinism: chunk boundaries depend only on (m, chunkSize) and the
// source's deterministic plan, each chunk is decoded by exactly one goroutine
// from an independent reader, and delivery is in stream order, so observers
// receive byte-identical streams at every worker count — the engine's
// contract, now including the decode layer.
//
// Failure: a chunk whose reader errors (or comes up short — a partial chunk
// is a truncation even if the reader doesn't say so) is published with its
// error. The consumer stops delivering at the first failed chunk, closes the
// stop channel so the remaining decoders abandon their work, and reports the
// error through Err — poisoning the pass rather than passing off a prefix of
// the stream as the whole thing.

// segWindow is the per-decoder reorder window, in chunks: how far ahead of
// in-order delivery one decoder may run before blocking.
const segWindow = 2

// segChunk is one decoded contiguous range of the stream, or the error that
// interrupted it. A failed chunk may still carry the sets decoded before the
// failure; they are never delivered. Chunk records are pooled on the Engine
// and outlive the pass: a decoder owns a record from Get until it sends it,
// and must read everything it needs from it (its error) before the send,
// because the consumer may hand the record to another decoder — of this
// pass or a concurrent one — as soon as it has copied the sets out.
type segChunk struct {
	sets []setcover.Set
	err  error
}

// segmentedReader adapts W parallel chunk decoders into a single in-order
// stream.Reader. It implements stream.BatchReader (the engine's fill path),
// stream.Recycler (forwarding to the source when it recycles), and
// stream.ErrorReader (the poisoned-pass surface). It is engine-internal: the
// Set values it yields reference decode buffers owned by the underlying
// source, so the usual no-retention discipline applies.
type segmentedReader struct {
	chans   []chan *segChunk
	stop    chan struct{}
	rec     stream.Recycler
	chunks  *sync.Pool // *segChunk, the engine's
	wg      sync.WaitGroup
	next    int // channel index the next in-order chunk arrives on
	cur     *segChunk
	curPos  int
	done    bool
	err     error
	stopped bool
}

// newSegmentedReader starts `workers` decode goroutines over the m sets of
// src, cut into chunks by planBounds, decoding into chunk records drawn from
// pool.
func newSegmentedReader(src stream.SegmentSource, m, workers, chunkSize int, pool *sync.Pool) *segmentedReader {
	bounds := planBounds(src, m, chunkSize)
	chunks := len(bounds) - 1
	if workers > chunks {
		workers = chunks
	}
	if workers < 1 {
		workers = 1
	}
	r := &segmentedReader{
		chans:  make([]chan *segChunk, workers),
		stop:   make(chan struct{}),
		chunks: pool,
	}
	r.rec, _ = src.(stream.Recycler)
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
		it := src.Segment(start, end)
		ck := r.chunks.Get().(*segChunk)
		ck.sets = fillChunk(it, end-start, ck.sets)
		if ck.err = stream.ReaderErr(it); ck.err == nil && len(ck.sets) != end-start {
			ck.err = fmt.Errorf("engine: segment [%d,%d) ended after %d sets", start, end, len(ck.sets))
		}
		failed := ck.err != nil // read before the send: see segChunk
		select {
		case r.chans[w] <- ck:
		case <-r.stop:
			r.discard(ck)
			return
		}
		if failed {
			return
		}
	}
}

// fillChunk drains a segment reader into buf, a pooled chunk record's set
// storage, up to want sets (a healthy segment yields exactly that many).
func fillChunk(it stream.Reader, want int, buf []setcover.Set) []setcover.Set {
	buf = buf[:0]
	if cap(buf) < want {
		// A cost-balanced plan may pack more sets than chunkSize into one
		// chunk (many small sets balancing one huge one); the pooled records
		// grow to the largest chunk seen and stay there.
		buf = make([]setcover.Set, 0, want)
	}
	br, batched := it.(stream.BatchReader)
	for len(buf) < want {
		if batched {
			k := br.NextBatch(buf[len(buf):cap(buf)])
			if k == 0 {
				break
			}
			buf = buf[:len(buf)+k]
			continue
		}
		s, ok := it.Next()
		if !ok {
			break
		}
		buf = append(buf, s)
	}
	return buf
}

// discard returns an undelivered chunk's buffers to their owners.
func (r *segmentedReader) discard(ck *segChunk) {
	if r.rec != nil && len(ck.sets) > 0 {
		r.rec.Recycle(ck.sets)
	}
	r.release(ck)
}

// release empties a chunk record and returns it to the engine's pool.
func (r *segmentedReader) release(ck *segChunk) {
	ck.sets, ck.err = ck.sets[:0], nil
	r.chunks.Put(ck)
}

// NextBatch implements stream.BatchReader: it copies the next in-order run
// of Set headers into dst. The element slices are shared with the chunk's
// decode buffers until Recycle hands them back.
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
			r.release(r.cur)
			r.cur = nil
		}
	}
	return n
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
		r.discard(ck)
		r.finish()
		return false
	}
	r.cur, r.curPos = ck, 0
	return true
}

// finish stops the decoders, drains their channels, and waits for them to
// exit, so a completed (or poisoned) pass leaks no goroutines and returns
// every undelivered decode buffer.
func (r *segmentedReader) finish() {
	r.done = true
	if r.stopped {
		return
	}
	r.stopped = true
	close(r.stop)
	for _, ch := range r.chans {
		for ck := range ch {
			r.discard(ck)
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

// Recycle implements stream.Recycler by forwarding consumed element buffers
// to the segment source's pool.
func (r *segmentedReader) Recycle(sets []setcover.Set) {
	if r.rec != nil {
		r.rec.Recycle(sets)
	}
}

// Err implements stream.ErrorReader: the error that poisoned the pass.
func (r *segmentedReader) Err() error { return r.err }
