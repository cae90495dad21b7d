// Package engine is the shared pass executor: every streaming algorithm in
// this repository — the set-system algorithms (internal/core and all of
// internal/baseline), the max-k-cover primitives (internal/maxcover), the
// geometric algorithm (internal/geom, through the generic RunOver entry
// point), and anything running over internal/comm's protocol simulation —
// reads its stream through it instead of hand-rolling a
// `repo.Begin(); for { Next() }` loop.
//
// The paper's central accounting trick (Lemma 2.1) is that all O(log n)
// parallel guesses of the optimum size k share physical passes: one scan of
// the repository feeds every guess. The engine makes that sharing literal.
// A call to Run starts exactly ONE pass (one repo.Begin()), reads the stream
// in batches — amortizing the per-set interface call through the optional
// stream.BatchReader fast path — and fans each batch out to every registered
// Observer. Observers are sharded across a worker pool: each observer's
// callbacks run on exactly one goroutine, in stream order, so observers that
// own disjoint state (the paper's parallel guesses, and every baseline's
// per-pass scan state) need no locks and behave identically at any worker
// count. The paper's "parallel guesses" thereby become actual goroutines
// without changing pass counts, space accounting, or results.
//
// The delivery loops themselves are generic over the element type
// (generic.go) and read every stream through the stream.Cursor family: Run
// is their T = setcover.Set instantiation plus the repository-specific
// capabilities below, and RunOver runs the same machinery over any
// Source[T] — which is how the geometric algorithm's shape streams get
// observer fan-out and the failure contract without pretending shapes are
// sets.
//
// Passes are parallel on a second axis too: when the repository implements
// stream.SegmentedRepository and the engine runs with Workers > 1, the
// stream is decoded as contiguous chunks on Workers goroutines and
// reassembled in stream order before delivery (segmented.go) — the
// CPU-bound decode of a disk-backed pass scales with cores while every
// observer still sees the exact sequential stream. An in-memory SliceRepo,
// whose "decode" is a header memcpy, offers nothing to parallelize and is
// read through Begin.
//
// Pass failure is first-class: Run returns an error when the pass could not
// be fully drained (a truncated or corrupt backing file, surfaced through
// stream.ErrorReader, a failed decode segment — which poisons the whole
// pass — or a stream that silently ends short of NumSets). Algorithms
// propagate that error instead of reporting a cover built from a partial
// scan — in this model a partial pass must never be mistaken for a cheap
// full one.
//
// Invariants the engine guarantees (tested in engine_test.go and relied on
// by internal/core's pass-sharing tests):
//
//   - One Run = one pass: exactly one repo.Begin() per call, even with zero
//     observers (the stream is still drained — the model does not allow a
//     partial scan to be cheaper).
//   - Full drain: every pass reads all m sets, or Run reports failure.
//   - Per-observer sequentiality: Observe is called with consecutive,
//     non-overlapping batches covering the stream in order; BeginPass and
//     EndPass (optional, via PassLifecycle) bracket them on the same
//     goroutine ordering guarantees.
//   - Determinism: for observers with disjoint state, results are identical
//     for every Workers/BatchSize setting.
//
// Batches are pooled and reference-counted across workers, so a pass
// allocates O(Workers · BatchSize) words of scratch regardless of stream
// length. Observers must not retain a batch (or the element slices of a
// SliceRepo-backed set) past the Observe call; copy what must survive —
// which is exactly the discipline the space model charges for anyway.
//
// That discipline is also what enables pooled decoding for disk-backed
// repositories. When a sequential pass's reader implements stream.Recycler,
// the engine hands each batch back to it (Recycle) after the last observer
// has finished with it, so a decoding reader (internal/scdisk) reuses the
// batch's element arena. A segmented pass decodes each chunk into one arena
// carried by a pooled chunk record, which returns to the pool once every
// batch viewing it has been recycled (segmented.go). Either way a full pass
// runs in O(Workers · BatchSize · avg-set-size) live heap instead of
// allocating every set afresh.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// ErrPassFailed is in the chain of every error Run returns for a pass that
// could not be fully drained (truncated or corrupt storage). Service layers
// match it with errors.Is to map storage failures to distinct status codes
// without string inspection; the concrete decode error stays wrapped
// alongside it.
var ErrPassFailed = errors.New("pass failed")

// DefaultBatchSize is the number of sets delivered per Observe call when
// Options.BatchSize is unset. Large enough to amortize channel and interface
// overhead, small enough to keep per-worker scratch in cache.
const DefaultBatchSize = 256

// Observer consumes one physical pass over the set stream: the
// T = setcover.Set instantiation of the generic ObserverOf. Observe is
// called with consecutive batches in stream order; each observer's calls
// happen on a single goroutine, but different observers may run
// concurrently.
type Observer = ObserverOf[setcover.Set]

// PassLifecycle is the optional hook pair an Observer (of any element type)
// may additionally implement: BeginPass runs before the pass's first batch
// and EndPass after its last, both on the caller's goroutine in observer
// registration order.
type PassLifecycle interface {
	BeginPass()
	EndPass()
}

// Func adapts a plain function to an Observer, for algorithms whose per-pass
// state lives in the enclosing scope.
type Func = FuncOf[setcover.Set]

// Options configures an Engine. The zero value is usable: it runs one worker
// per CPU with DefaultBatchSize.
type Options struct {
	// Workers is the parallelism of a pass, on both of its axes. Observers
	// are sharded across at most Workers goroutines (capped at
	// len(observers)), and — when the repository implements
	// stream.SegmentedRepository — the stream itself is decoded by Workers
	// goroutines over contiguous chunks, reassembled in stream order before
	// delivery (see segmented.go). <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// BatchSize is the number of sets per Observe call, and the chunk size
	// of the segmented decoder. <= 0 means DefaultBatchSize.
	BatchSize int
	// DisableSegmented forces the single-reader decode path even when
	// Workers > 1 and the repository supports segmented passes. Results are
	// identical either way (that is the engine's determinism contract); this
	// is a debugging and benchmarking knob, threaded from the CLIs.
	DisableSegmented bool
	// Tracer, when non-nil, receives one obs.PassTrace per pass executed by
	// this engine (Run and RunOver alike, in both decode modes), after the
	// pass completes. Tracing is strictly read-only: it never changes what a
	// pass yields, what it counts, or what it charges — covers, pass counts,
	// and space words are byte-identical with and without a tracer (the
	// conformance suites pin this). Per-pass overhead when nil is a single
	// pointer comparison.
	Tracer obs.Tracer
}

// PerCall validates a variadic per-call option list — the trailing
// `engOpts ...engine.Options` idiom shared by the baselines, the max-cover
// entry points, and the experiment builders: at most one set may be passed
// (the variadic exists only so option-less call sites stay source
// compatible). It returns the options and whether any were given; each
// caller chooses its own fallback for the no-options case (baseline keeps a
// deprecated process default, maxcover uses engine defaults). caller names
// the package in the misuse panic.
func PerCall(caller string, engOpts []Options) (Options, bool) {
	switch len(engOpts) {
	case 0:
		return Options{}, false
	case 1:
		return engOpts[0], true
	default:
		panic(fmt.Sprintf("%s: %d engine option sets passed; want at most 1", caller, len(engOpts)))
	}
}

// normalized fills in defaults.
func (o Options) normalized() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	return o
}

// Engine executes passes. It is stateless between Runs and safe to reuse,
// also from several goroutines at once; the batch pool is shared across
// set-system Runs to keep steady-state allocation flat (generic RunOver
// passes pool per call — their element types differ per instantiation), and
// the segmented decoders' chunk records across every engine (segmented.go).
type Engine struct {
	opts Options
	pool sync.Pool
	// passSeq numbers this engine's traced passes (obs.PassTrace.Index).
	// Incremented only when a tracer is installed; engines are constructed
	// per solve wherever per-call options (and thus tracers) thread in, so
	// traced indices are solve-local.
	passSeq atomic.Int64
}

// New returns an engine with the given options (zero value: see Options).
func New(opts Options) *Engine {
	e := &Engine{opts: opts.normalized()}
	e.pool.New = func() any {
		return &batchOf[setcover.Set]{items: make([]setcover.Set, 0, e.opts.BatchSize)}
	}
	return e
}

// Workers reports the configured worker count after defaulting.
func (e *Engine) Workers() int { return e.opts.Workers }

// BatchSize reports the configured batch size after defaulting.
func (e *Engine) BatchSize() int { return e.opts.BatchSize }

// Run executes one physical pass over repo and feeds it to the observers.
// It returns when the pass is fully drained and every observer has seen
// every batch. Observers with disjoint state need no synchronization.
//
// A non-nil error means the pass FAILED mid-stream (the reader reported a
// decode error, a segment came up short, or the stream silently ended before
// NumSets sets): observers saw only a prefix of the stream, so whatever they
// accumulated is unusable and the caller must propagate the failure instead
// of reporting a result. The model's "a begun pass is a full scan"
// discipline cuts both ways — a pass that cannot finish must not pass for
// one that did.
func (e *Engine) Run(repo stream.Repository, observers ...Observer) error {
	tr := e.newTrace(traceKindSets, repo)
	return runPass(func() stream.Reader {
		r, segmented := e.beginPass(repo)
		if tr != nil {
			tr.rec.Segmented = segmented
		}
		return r
	}, repo.NumSets(), observers, e.opts.Workers,
		func() *batchOf[setcover.Set] { return e.pool.Get().(*batchOf[setcover.Set]) },
		func(b *batchOf[setcover.Set]) { e.pool.Put(b) },
		tr)
}

// newTrace prepares the partially-filled trace record for one pass, or nil
// when no tracer is installed (the untraced fast path: every trace touch
// downstream is behind a nil check). src is the stream source; one with a
// well-defined encoded size (an SCB1 file's set-data section) reports it
// through DataBytes, which is stamped into the record so per-pass
// throughput can be computed.
func (e *Engine) newTrace(kind string, src any) *passTrace {
	if e.opts.Tracer == nil {
		return nil
	}
	tr := &passTrace{tracer: e.opts.Tracer}
	tr.rec = obs.PassTrace{
		Index:     int(e.passSeq.Add(1)),
		Kind:      kind,
		Workers:   e.opts.Workers,
		BatchSize: e.opts.BatchSize,
	}
	if bs, ok := src.(interface{ DataBytes() int64 }); ok {
		tr.rec.Bytes = bs.DataBytes()
	}
	return tr
}

// beginPass starts the pass, choosing the decode mode: segmented
// data-parallel decode whenever more than one worker is configured and the
// repository supports it (the CPU-bound varint decode of a disk pass is the
// hot path segmentation exists for), the plain single reader otherwise.
// Exactly one pass is counted in either mode. segmented reports which mode
// was chosen and feeds the pass trace.
func (e *Engine) beginPass(repo stream.Repository) (r stream.Reader, segmented bool) {
	if e.opts.Workers > 1 && !e.opts.DisableSegmented {
		if sr, ok := repo.(stream.SegmentedRepository); ok {
			if src, ok := sr.BeginSegmented(); ok {
				return newSegmentedReader(src, repo.NumSets(), e.opts.Workers, e.opts.BatchSize), true
			}
		}
	}
	return repo.Begin(), false
}
