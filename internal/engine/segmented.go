package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/setcover"
	"repro/internal/stream"
)

// segmented.go is the data-parallel decode path of the engine: when a
// repository implements stream.SegmentedRepository and the engine runs with
// more than one worker, one physical pass is split into contiguous chunks,
// decoded by `workers` goroutines, and reassembled in stream order before
// any observer sees a set.
//
// Chunk count: a repository that reports its encoded size (DataBytes — an
// SCB1 file's set-data section) is cut into one chunk per segChunkBytes of
// it; any other source into one chunk per BatchSize sets (Engine.chunkTarget).
// Chunk boundaries come from planBounds: the segment source's own
// cost-balanced plan for that many chunks (stream.SegmentSource.PlanSegments
// — scdisk cuts ≈equal-BYTE chunks from its seek index, so one huge set no
// longer serializes a decoder on skewed families), or that many uniform cuts
// when the source returns nil or a malformed plan. Either way the boundaries
// are fixed before any decoder starts, shared by all of them, and affect
// wall-clock only.
//
// Chunks are claimed, not owned: each decoder takes the next unclaimed chunk
// from a shared counter, so a decoder that finishes early moves on to the next
// chunk instead of idling behind a slower decoder's. Chunk c is published on
// slot c mod K of a ring of K one-chunk slots, and the consumer
// (segmentedReader.NextBatch, driven by the engine's delivery loop) takes
// chunk c from that slot, so in-order receive reconstructs stream order with
// no sorting. K tokens are the reorder window: a decoder takes one before it
// claims a chunk and the consumer returns it when it takes that chunk, so at
// most K chunks are claimed and not yet delivered — which is also why chunk
// c's slot is always empty when c is published. K = workers · (segWindow + 1):
// segWindow finished chunks per decoder plus the one each is decoding. The
// in-flight decoded state stays O(workers · segWindow) chunks, plus the
// chunks viewed by batches still with observers — O(workers · segWindow ·
// segChunkBytes) encoded bytes for a byte-sized source, O(workers ·
// segWindow · BatchSize) sets for any other.
//
// Determinism: chunk boundaries depend only on the chunk count — fixed by
// DataBytes, or by (m, BatchSize), never by the worker count — and the
// source's deterministic plan, each chunk is decoded by exactly one goroutine
// (whichever claims it) into its own chunk record, and delivery is in stream
// order, so observers receive byte-identical streams at every worker count —
// the engine's contract, now including the decode layer.
//
// Failure: a chunk whose decode errors (or comes up short — a partial chunk
// is a truncation even if the source doesn't say so) is published with its
// error, and its decoder claims no more. The consumer stops delivering at the
// first failed chunk, closes the stop channel so the remaining decoders
// abandon their work, and reports the error through Err — poisoning the pass
// rather than passing off a prefix of the stream as the whole thing.
//
// Settled passes: once every observer is settled (Settler), the delivery loop
// calls skipRest, which sets the skip flag and drains the remaining chunks
// without delivering them. A decoder that claims a chunk after the flag is
// set asks the source to check it (VerifySegment) instead of decoding it: a
// match publishes a record carrying only the chunk's set count, a mismatch
// (or no earlier decode to match) decodes the chunk as before, and a read
// error publishes a failed chunk. Chunks claimed before the flag was set are
// decoded and go back to the pool undelivered. Every chunk is still claimed
// and read, every set still counts toward the full-drain check, and a chunk
// that would fail to decode still fails the pass.

// segWindow is the reorder window per decoder, in chunks: how many finished
// chunks each decoder may leave waiting for delivery. A window of 1 keeps the
// extra peak heap of segChunkBytes chunks at half what a window of 2 costs
// (DESIGN.md §5).
const segWindow = 1

// segChunkBytes is the encoded size a chunk aims for when the repository
// reports one (DataBytes). Each chunk is one handoff from a decoder to the
// delivering goroutine, and each in-flight chunk holds its decoded sets, so
// the size trades handoffs per pass against peak heap; DESIGN.md §5 has the
// measurements behind 16 KB.
const segChunkBytes = 16 << 10

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
	// checked is the set count of a chunk that was checked instead of
	// decoded (VerifySegment matched); such a record carries no sets.
	checked int
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

// segmentedReader adapts parallel chunk decoders into a single in-order
// stream.Reader, whose Err is the poisoned-pass surface. It also implements
// stream.Recycler, releasing chunk records whose sets are all consumed. It
// is engine-internal: the Set values it yields view arenas of pooled chunk
// records, so the usual no-retention discipline applies.
type segmentedReader struct {
	slots   []chan *segChunk // chunk c arrives on slots[c % len(slots)]
	tokens  chan struct{}    // one per chunk that may be claimed ahead of delivery
	claimed atomic.Int64     // chunks claimed by decoders so far
	skip    atomic.Bool      // set by skipRest: check claimed chunks instead of decoding them
	chunks  int
	stop    chan struct{}
	wg      sync.WaitGroup
	next    int // the next in-order chunk
	cur     *segChunk
	curPos  int
	batches int // batches NextBatch has returned
	done    bool
	err     error

	// mu guards the held list and recycled: Recycle runs on the delivery
	// goroutines while NextBatch appends.
	mu         sync.Mutex
	head, tail *segChunk // fully copied-out chunks, in stream order
	recycled   int       // Recycle calls so far

	// tr, when tracing, accumulates the time advance spends blocked on the
	// next in-order chunk. advance runs on the goroutine that emits the
	// record after the pass, so the field is never written concurrently.
	tr *passTrace
}

// newSegmentedReader starts `workers` decode goroutines over the m sets of
// src, cut into `target` chunks by planBounds, decoding into chunk records
// drawn from chunkPool. When tracing, it stamps the mode and the chunk count
// into tr.
func newSegmentedReader(src stream.SegmentSource, m, workers, target int, tr *passTrace) *segmentedReader {
	bounds := planBounds(src, m, target)
	chunks := len(bounds) - 1
	if tr != nil {
		tr.rec.Segmented, tr.rec.Chunks = true, chunks
	}
	if workers > chunks {
		workers = chunks
	}
	if workers < 1 {
		workers = 1
	}
	k := workers * (segWindow + 1)
	r := &segmentedReader{
		slots:  make([]chan *segChunk, k),
		tokens: make(chan struct{}, k),
		chunks: chunks,
		stop:   make(chan struct{}),
		tr:     tr,
	}
	for i := range r.slots {
		r.slots[i] = make(chan *segChunk, 1)
		r.tokens <- struct{}{}
	}
	r.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go r.decode(src, bounds)
	}
	return r
}

// planBounds fixes the chunk boundaries of one segmented pass over m sets:
// the source's own cost-balanced plan for target (≥ 1) chunks when it offers
// a valid one (PlanSegments), target uniform cuts of ceil(m/target) sets
// otherwise. The uniform fallback also guards against a source returning
// malformed boundaries — the plan is an untrusted hint, never a correctness
// input.
func planBounds(src stream.SegmentSource, m, target int) []int {
	if b := src.PlanSegments(target); validBounds(b, m) {
		return b
	}
	size := (m + target - 1) / target
	b := make([]int, 0, target+1)
	for start := 0; start < m; start += size {
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

// decode runs one decoder goroutine: it claims the next chunk, one token
// each, until every chunk is claimed, the pass stops, or its chunk fails.
func (r *segmentedReader) decode(src stream.SegmentSource, bounds []int) {
	defer r.wg.Done()
	for {
		select {
		case <-r.tokens:
		case <-r.stop:
			return
		}
		c := int(r.claimed.Add(1)) - 1
		if c >= r.chunks {
			return
		}
		start, end := bounds[c], bounds[c+1]
		ck := chunkPool.Get().(*segChunk)
		if !r.skip.Load() || !check(src, ck, start, end) {
			ck.sets, ck.arena, ck.err = src.DecodeSegment(start, end, ck.sets, ck.arena)
			if ck.err == nil && len(ck.sets) != end-start {
				ck.err = fmt.Errorf("engine: segment [%d,%d) ended after %d sets", start, end, len(ck.sets))
			}
		}
		failed := ck.err != nil // read before the send: see segChunk
		// The send never blocks: chunk c's token guarantees its slot is empty.
		r.slots[c%len(r.slots)] <- ck
		if failed {
			return
		}
	}
}

// check fills ck for the chunk of sets [start, end) of a settled pass from
// the source's check of its bytes, and reports whether that completed it: a
// match leaves a record of the chunk's set count, a read error a failed
// chunk. false means the chunk must be decoded.
func check(src stream.SegmentSource, ck *segChunk, start, end int) bool {
	ok, err := src.VerifySegment(start, end)
	switch {
	case err != nil:
		ck.sets, ck.err = ck.sets[:0], err
	case ok:
		ck.sets, ck.checked = ck.sets[:0], end-start
	}
	return ok || err != nil
}

// releaseChunk returns a chunk record to chunkPool; the next decode into
// it overwrites its sets and arena. An arena over maxChunkArena is dropped,
// and so are the set headers viewing it.
func releaseChunk(ck *segChunk) {
	if cap(ck.arena) > maxChunkArena {
		clear(ck.sets)
		ck.arena = nil
	}
	ck.err, ck.next, ck.checked = nil, nil, 0
	chunkPool.Put(ck)
}

// NextBatch implements stream.Reader: it copies the next in-order run
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

// skipRest drains the rest of the pass without delivering it, once every
// observer is settled, and returns how many sets it drained: the undelivered
// rest of the current chunk and every later chunk, checked or decoded. It
// stops at the first failed chunk, like advance. The delivery loop has
// recycled every batch NextBatch returned, so no batch views the current
// chunk or a held one any more.
func (r *segmentedReader) skipRest() int {
	r.skip.Store(true)
	n := 0
	if r.cur != nil {
		n = len(r.cur.sets) - r.curPos
		releaseChunk(r.cur)
		r.cur = nil
	}
	for r.advance() {
		n += len(r.cur.sets) + r.cur.checked
		if r.tr != nil {
			r.tr.rec.Skipped += r.cur.checked
		}
		releaseChunk(r.cur)
		r.cur = nil
	}
	return n
}

// advance receives the next in-order chunk. It returns false when the stream
// is exhausted or poisoned.
func (r *segmentedReader) advance() bool {
	if r.done {
		return false
	}
	if r.next == r.chunks {
		r.finish()
		return false
	}
	var t0 time.Time
	if r.tr != nil {
		t0 = time.Now()
	}
	ck := <-r.slots[r.next%len(r.slots)]
	if r.tr != nil {
		r.tr.rec.Wait += time.Since(t0)
	}
	r.next++
	r.tokens <- struct{}{}
	if ck.err != nil {
		r.err = ck.err
		releaseChunk(ck)
		r.finish()
		return false
	}
	r.cur, r.curPos = ck, 0
	return true
}

// finish stops the decoders, waits for them to exit, and empties the slots,
// so a completed (or poisoned) pass leaks no goroutines and returns every
// undelivered chunk record. Delivered ones go back through Recycle.
func (r *segmentedReader) finish() {
	r.done = true
	close(r.stop)
	r.wg.Wait()
	for _, slot := range r.slots {
		select {
		case ck := <-slot:
			releaseChunk(ck)
		default:
		}
	}
}

// Err implements stream.Reader: the error that poisoned the pass.
func (r *segmentedReader) Err() error { return r.err }
