// Package stream implements the data-stream model of the paper (Section 1):
// the elements of U fit in memory, the sets r_1, ..., r_m live in a read-only
// repository, and an algorithm may only access them through sequential
// passes. It is the one place the pass contract is declared. The package
// provides:
//
//   - Cursor: one pass over a stream of any element type, read in batches
//     (NextBatch) and closed by its failure report (Err), with the optional
//     RecyclerOf buffer hand-back. A set pass is the Cursor at
//     T = setcover.Set (Reader, Recycler); the pass engine drives every
//     other element type through the same contract.
//   - Repository: a pass-counted, read-only view of the set family. Every
//     call to Begin starts (and counts) a new sequential scan.
//   - SegmentedRepository: the optional capability for repositories whose
//     passes can be decoded as contiguous chunks on several goroutines
//     (BeginSegmented still counts exactly one pass); the pass engine uses
//     it to make the CPU-bound decode data-parallel without changing what
//     any observer sees. Its SegmentSource can also check a chunk instead
//     of decoding it (VerifySegment): once every observer of a pass is
//     settled, the engine still reads the bytes of every remaining chunk,
//     but decodes only those that do not match the checksum of an earlier
//     successful decode of the same span.
//   - Weighted: the optional per-set cost capability, read through
//     WeightFunc.
//   - Tracker: an explicit space meter. Streaming algorithms charge the words
//     of read-write memory they hold; Peak() is the space column of the
//     paper's Figure 1.1.
//
// The repository contents themselves are never charged — in the model they
// sit on cheap external storage — only what the algorithm copies into its
// working memory is.
package stream

import (
	"fmt"
	"sync/atomic"

	"repro/internal/setcover"
)

// Cursor yields the items of one sequential pass, in stream order. A set
// pass is a Cursor[setcover.Set] (Reader); the pass engine's generic entry
// point reads any other element type (the geometric algorithm's shapes)
// through the same contract.
type Cursor[T any] interface {
	// NextBatch fills dst (up to cap(dst)) with the next items of the pass
	// and returns how many were written. Zero means the pass is over.
	NextBatch(dst []T) int
	// Err returns the error that ended the pass early (a disk-backed decode
	// hitting truncation or corruption), or nil for a full pass. The pass
	// engine calls it after draining a cursor and turns a non-nil result
	// into a failed pass — a partial scan must never pass for a full one.
	Err() error
}

// RecyclerOf is an optional interface a Cursor may implement when its items
// are decoded into buffers the cursor owns (disk-backed repositories):
// Recycle hands a batch previously returned by NextBatch back to the cursor
// once every consumer is done with it, so the buffers can be reused for later
// batches instead of becoming garbage. Only internal/engine calls it, once per
// batch and only after all observers have returned from Observe — which is
// exactly the engine's documented no-retention discipline. Recycle may be
// called from a different goroutine than NextBatch, and calls for different
// batches may race, but observers finish batches in stream order: when the
// k-th Recycle call starts, the first k batches are done. A cursor may
// therefore release its buffers oldest first, one batch per call, whichever
// batch the call names.
type RecyclerOf[T any] interface {
	Recycle(items []T)
}

// Reader yields the sets of one sequential pass, in stream order.
type Reader = Cursor[setcover.Set]

// Recycler is the buffer hand-back of a set Reader.
type Recycler = RecyclerOf[setcover.Set]

// SegmentSource decodes contiguous chunks of one counted pass.
// DecodeSegment decodes the sets [start, end) of the stream, in stream
// order, into the storage of sets and returns them, together with the
// element arena their Elems view. The caller owns both slices and passes
// them back for a later chunk, so a source reuses their capacity instead of
// allocating per set; it retains neither. A source whose sets come with
// storage of their own (a generator's fresh slices) returns arena untouched.
// On failure DecodeSegment returns the sets decoded before it with the
// error. It may be called from several goroutines at once, each with its own
// slices. Chunk decoding exists so the CPU-bound part of a pass can run
// data-parallel; the pass engine reassembles the chunks in stream order, so
// observers cannot tell a segmented pass from a sequential one.
//
// PlanSegments returns the chunk boundaries for the pass as a strictly
// increasing slice b with b[0] == 0 and b[len(b)-1] == m; chunk i is the set
// range [b[i], b[i+1]), and targetChunks (≥ 1) is how many chunks the engine
// wants: one per 16 KB of encoded data when the repository reports its size
// (a DataBytes method), ceil(m/BatchSize) otherwise. nil means targetChunks
// uniform set-count chunks, which is right for a source that costs every set
// the same. A source that knows its per-set decode cost — a disk repository's
// seek index records every set's encoded byte length — plans ≈equal-cost
// chunks instead, so one pathologically large set no longer serializes a
// pass on a single decoder while the others idle. The engine validates the
// boundaries and falls back to uniform chunks if they are malformed; either
// way the reassembled stream is byte-identical — a plan moves wall-clock
// only.
//
// VerifySegment reads the encoded bytes of sets [start, end) without decoding
// them and reports whether they are the bytes an earlier DecodeSegment of
// exactly that range decoded without error. The engine calls it instead of
// DecodeSegment for the chunks of a pass no observer reads any more (every
// observer is settled, see engine.Settler): ok means the chunk would decode
// as it did before, so its sets count toward the pass without being decoded;
// !ok means the engine decodes it as usual, so a chunk that changed, or was
// never decoded, yields exactly what a full pass yields; an error (the bytes
// could not be read) fails the pass like a decode error. A source that keeps
// no record of earlier decodes returns (false, nil). It may be called from
// several goroutines at once.
type SegmentSource interface {
	DecodeSegment(start, end int, sets []setcover.Set, arena []setcover.Elem) ([]setcover.Set, []setcover.Elem, error)
	PlanSegments(targetChunks int) []int
	VerifySegment(start, end int) (ok bool, err error)
}

// SegmentedRepository is an optional capability a Repository may implement
// when its passes can be split into independently decodable set ranges:
// BeginSegmented starts ONE counted pass (exactly like Begin) whose stream
// will be decoded through SegmentSource.DecodeSegment chunks instead of a
// single sequential reader. ok reports whether segmentation is available for
// this pass — a disk repository without its seek index returns false and
// callers fall back to Begin. A false return must not count a pass.
type SegmentedRepository interface {
	BeginSegmented() (src SegmentSource, ok bool)
}

// Weighted is the optional per-set cost capability a Repository may
// implement when its family carries weights (the weighted set cover
// problem). Weight(id) returns the positive cost of set id; HasWeights
// reports whether a cost vector is actually present — a repository may
// implement the interface but hold no weights (a plain SCB1 file opened by
// scdisk.Repo), in which case every set costs 1. Weights are part of the
// repository contents and, like the sets themselves, are never charged to a
// Tracker; only what an algorithm copies into working memory is.
//
// Weight must be safe for concurrent calls (the pass engine's observers may
// consult it from the observer goroutine while segment decoders run) and
// must be a pure function of id for the life of the repository.
type Weighted interface {
	HasWeights() bool
	Weight(id int) float64
}

// WeightFunc returns r's per-set cost accessor: its Weighted weight when the
// capability is present and populated, nil otherwise. Callers thread the nil
// as "unweighted" so the unweighted hot path (and every number it reports)
// stays untouched, while non-nil generalizes a pick rule from coverage to
// cost-effectiveness (coverage per unit cost). All-ones weights reduce
// byte-identically to the unweighted behavior: thresholds are multiplied by
// exactly 1.0 and argmax comparisons cross-multiply integer gains that are
// exact in float64.
func WeightFunc(r Repository) func(int) float64 {
	if w, ok := r.(Weighted); ok && w.HasWeights() {
		return w.Weight
	}
	return nil
}

// HasWeights reports whether r carries a per-set cost vector.
func HasWeights(r Repository) bool { return WeightFunc(r) != nil }

// WeightOf returns the cost of set id in r: its Weighted weight when the
// capability is present and populated, 1 otherwise (the unweighted problem).
func WeightOf(r Repository, id int) float64 {
	if w := WeightFunc(r); w != nil {
		return w(id)
	}
	return 1
}

// CoverWeight returns the total cost of the sets whose IDs are listed in
// cover. On unweighted repositories it equals len(cover).
func CoverWeight(r Repository, cover []int) float64 {
	w := WeightFunc(r)
	if w == nil {
		return float64(len(cover))
	}
	total := 0.0
	for _, id := range cover {
		total += w(id)
	}
	return total
}

// Repository is a read-only, sequentially scannable set family.
type Repository interface {
	// UniverseSize returns n = |U|.
	UniverseSize() int
	// NumSets returns m = |F|.
	NumSets() int
	// Begin starts a new pass over the family and returns its reader.
	// Each call increments the pass counter.
	Begin() Reader
	// Passes returns the number of passes started so far.
	Passes() int
}

// SliceRepo is the standard in-memory Repository backed by an Instance.
// It also records the maximum number of concurrently open passes, which tests
// use to prove that "parallel guesses" of iterSetCover share physical passes
// instead of multiplying them.
type SliceRepo struct {
	inst   *setcover.Instance
	passes atomic.Int64
}

// NewSliceRepo wraps an instance as a stream repository.
func NewSliceRepo(in *setcover.Instance) *SliceRepo {
	return &SliceRepo{inst: in}
}

// UniverseSize returns n.
func (r *SliceRepo) UniverseSize() int { return r.inst.N }

// NumSets returns m.
func (r *SliceRepo) NumSets() int { return len(r.inst.Sets) }

// Passes returns the number of passes started so far.
func (r *SliceRepo) Passes() int { return int(r.passes.Load()) }

// ResetPasses zeroes the pass counter (used between experiment phases).
func (r *SliceRepo) ResetPasses() { r.passes.Store(0) }

// Instance exposes the backing instance for verification code (ground truth,
// validity checks). Streaming algorithms must not call this; tests enforce
// the discipline by construction.
func (r *SliceRepo) Instance() *setcover.Instance { return r.inst }

// HasWeights implements Weighted: true when the backing instance carries a
// per-set cost vector.
func (r *SliceRepo) HasWeights() bool { return r.inst.Weighted() }

// Weight implements Weighted: the cost of set id (1 on unweighted instances).
func (r *SliceRepo) Weight(id int) float64 { return r.inst.Weight(id) }

// Begin starts a new pass.
func (r *SliceRepo) Begin() Reader {
	r.passes.Add(1)
	return &sliceReader{sets: r.inst.Sets}
}

type sliceReader struct {
	sets []setcover.Set
	pos  int
}

// NextBatch copies up to cap(dst) sets into dst in stream order.
func (it *sliceReader) NextBatch(dst []setcover.Set) int {
	n := copy(dst[:cap(dst)], it.sets[it.pos:])
	it.pos += n
	return n
}

// Err returns nil: an in-memory pass cannot fail.
func (it *sliceReader) Err() error { return nil }

// FuncRepo is a Repository whose sets are produced on demand by a generator
// function — a true streaming source with no backing slice, so nothing can
// be randomly accessed or retained between passes. It exists both as a
// discipline check (algorithms must work against any Repository) and as a
// way to stream instances too large to materialize.
type FuncRepo struct {
	n, m   int
	gen    func(id int) setcover.Set
	weight func(id int) float64 // optional per-set cost (SetWeightFunc)
	passes atomic.Int64
	// sequential opts this repository out of segmented decode (see
	// NewSequentialFuncRepo): BeginSegmented reports false, so the pass
	// engine always drives gen from a single goroutine per pass.
	sequential bool
	// inGen guards sequential repositories at runtime: a generator that is
	// entered concurrently anyway (two overlapping passes driven from
	// different goroutines) panics loudly instead of racing silently.
	inGen atomic.Bool
}

// NewFuncRepo builds a repository of m sets over n elements; gen(id) must
// return set id with sorted-unique elements in [0, n) and is called once per
// set per pass. gen must be safe for concurrent calls — a pure function of
// id (gen.PlantedFunc is the model citizen): FuncRepo implements
// SegmentedRepository, so the pass engine may generate disjoint set ranges
// on several goroutines at once. The returned Elems must be freshly
// allocated (or at least never mutated afterwards): observers on other
// goroutines read them while gen is already producing later sets, so a
// generator that reuses a scratch buffer would corrupt in-flight sets.
func NewFuncRepo(n, m int, gen func(id int) setcover.Set) *FuncRepo {
	return &FuncRepo{n: n, m: m, gen: gen}
}

// NewSequentialFuncRepo is NewFuncRepo for generators that are NOT safe for
// concurrent calls — stateful closures (an iterator over an external source,
// a shared scratch RNG) that the segmented-decode contract of NewFuncRepo
// would race. The returned repository opts out of segmented decode entirely
// (BeginSegmented reports false, so the pass engine uses its single-reader
// path at every worker count) and additionally guards gen at runtime: if two
// goroutines still end up inside gen at once — overlapping passes driven
// concurrently, which no engine does but direct scanners could — the second
// call panics with a diagnostic instead of corrupting state silently. The
// guard is a best-effort tripwire (a true data race may escape it on rare
// interleavings), but it turns the common misuse into a loud failure; run
// under -race to catch the rest.
func NewSequentialFuncRepo(n, m int, gen func(id int) setcover.Set) *FuncRepo {
	r := &FuncRepo{n: n, m: m, sequential: true}
	r.gen = func(id int) setcover.Set {
		if !r.inGen.CompareAndSwap(false, true) {
			panic("stream: sequential FuncRepo generator entered concurrently; " +
				"use NewFuncRepo (with a concurrency-safe generator) for parallel passes")
		}
		defer r.inGen.Store(false)
		return gen(id)
	}
	return r
}

// SetWeightFunc attaches a per-set cost function, turning the repository
// into a weighted family: weight(id) must return a finite, strictly positive
// cost and obey the same purity/concurrency contract as gen (it may be
// called from several goroutines, for any id, any number of times —
// gen.WeightedFunc is the model citizen). nil detaches. Call before starting
// passes; swapping weights mid-algorithm yields nonsense.
func (r *FuncRepo) SetWeightFunc(weight func(id int) float64) {
	r.weight = weight
}

// HasWeights implements Weighted: true when a weight function is attached.
func (r *FuncRepo) HasWeights() bool { return r.weight != nil }

// Weight implements Weighted: the cost of set id (1 when no weight function
// is attached).
func (r *FuncRepo) Weight(id int) float64 {
	if r.weight == nil {
		return 1
	}
	return r.weight(id)
}

// UniverseSize returns n.
func (r *FuncRepo) UniverseSize() int { return r.n }

// NumSets returns m.
func (r *FuncRepo) NumSets() int { return r.m }

// Passes returns the number of passes started so far.
func (r *FuncRepo) Passes() int { return int(r.passes.Load()) }

// ResetPasses zeroes the pass counter.
func (r *FuncRepo) ResetPasses() { r.passes.Store(0) }

// Begin starts a new pass.
func (r *FuncRepo) Begin() Reader {
	r.passes.Add(1)
	return &funcReader{repo: r}
}

// BeginSegmented implements SegmentedRepository: generation is random-access
// by construction (gen is a function of the set id), so every pass is
// segmentable — except for sequential-only repositories
// (NewSequentialFuncRepo), which decline without counting a pass and fall
// back to Begin. See NewFuncRepo for the concurrency contract this puts on
// gen.
func (r *FuncRepo) BeginSegmented() (SegmentSource, bool) {
	if r.sequential {
		return nil, false
	}
	r.passes.Add(1)
	return funcSegSource{repo: r}, true
}

type funcSegSource struct{ repo *FuncRepo }

// DecodeSegment generates sets [start, end); each comes with its own
// elements, so the arena is not used.
func (s funcSegSource) DecodeSegment(start, end int, sets []setcover.Set, arena []setcover.Elem) ([]setcover.Set, []setcover.Elem, error) {
	sets = sets[:0]
	for id := start; id < end; id++ {
		st := s.repo.gen(id)
		st.ID = id
		sets = append(sets, st)
	}
	return sets, arena, nil
}

// PlanSegments returns nil: a generator costs every set alike, so the engine
// cuts uniform chunks.
func (s funcSegSource) PlanSegments(int) []int { return nil }

// VerifySegment reports false: a generator keeps no record of earlier
// passes, so every chunk of a settled pass is still generated.
func (s funcSegSource) VerifySegment(int, int) (bool, error) { return false, nil }

type funcReader struct {
	repo *FuncRepo
	pos  int
}

// NextBatch generates up to cap(dst) sets into dst in stream order.
func (it *funcReader) NextBatch(dst []setcover.Set) int {
	dst = dst[:cap(dst)]
	n := 0
	for n < len(dst) && it.pos < it.repo.m {
		s := it.repo.gen(it.pos)
		s.ID = it.pos
		dst[n] = s
		it.pos++
		n++
	}
	return n
}

// Err returns nil: a generator pass cannot fail.
func (it *funcReader) Err() error { return nil }

// Tracker is an explicit space meter, in 64-bit words. Algorithms call Grow
// when they allocate working state and Shrink when they release it; Peak
// reports the high-water mark. Tracker is safe for concurrent use: the
// pass engine (internal/engine) fans one physical pass out to observers
// running on several goroutines, all charging the same meter. The current
// total is an atomic counter and the high-water mark is maintained with a
// CAS loop, so concurrent Grows are linearizable. Note that during a
// Grow-only phase (which is what passes are — releases happen between
// passes) the final Peak is independent of goroutine interleaving, which is
// what makes space accounting deterministic across worker counts.
type Tracker struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// NewTracker returns a zeroed tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Grow charges w words of working memory.
func (t *Tracker) Grow(w int64) {
	if w < 0 {
		panic("stream: Grow with negative words")
	}
	c := t.cur.Add(w)
	t.raisePeak(c)
}

// raisePeak lifts the high-water mark to at least c.
func (t *Tracker) raisePeak(c int64) {
	for {
		p := t.peak.Load()
		if c <= p || t.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

// Shrink releases w words.
func (t *Tracker) Shrink(w int64) {
	if w < 0 {
		panic("stream: Shrink with negative words")
	}
	if c := t.cur.Add(-w); c < 0 {
		panic(fmt.Sprintf("stream: tracker went negative (%d)", c))
	}
}

// FreeAll releases everything currently held (end of an iteration whose
// state is discarded, cf. Lemma 2.2: "the algorithm does not need to keep the
// memory space used by the earlier iterations").
func (t *Tracker) FreeAll() { t.cur.Store(0) }

// Current returns the words currently held.
func (t *Tracker) Current() int64 { return t.cur.Load() }

// Peak returns the high-water mark in words.
func (t *Tracker) Peak() int64 { return t.peak.Load() }

// Max merges another tracker's peak into this one (used when alternatives
// run sequentially but are accounted as parallel).
func (t *Tracker) Max(other *Tracker) {
	t.raisePeak(other.peak.Load())
}

// WordsForElems returns the space charge for storing k element indices.
// Elements are int32, two per word.
func WordsForElems(k int) int64 { return int64((k + 1) / 2) }

// WordsForBitset returns the space charge for a bitset over a universe of n.
func WordsForBitset(n int) int64 { return int64((n + 63) / 64) }

// WordsForIDs returns the space charge for storing k set IDs (one word each).
func WordsForIDs(k int) int64 { return int64(k) }
