// Package obs is the observability layer: zero-dependency tracing and
// measurement primitives threaded through every execution layer of the
// system — the pass engine (per-pass trace records), the serving layer
// (solve phase timings and latency histograms), and the fleet router
// (request correlation and per-node attempt histograms). DESIGN.md §10.
//
// The paper's cost model is passes over the stream and words of memory;
// the rest of the repository makes those *results* observable (pass counts
// and space words in every Stats). This package makes the *costs* behind
// them observable — where the time and bytes of each pass went — without
// ever entering the result path: everything here is strictly read-only
// with respect to covers, pass counts, and space accounting. A tracer
// observes a pass; it cannot change one. The conformance suites pin that
// contract (traced and untraced solves are byte-identical).
//
// Nothing in this package imports anything outside the standard library,
// and nothing else in the repository is imported by it, so every layer —
// engine, serve, fleet, the CLIs — can depend on it without cycles.
package obs

import (
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// PassTrace is one record of the engine's trace stream: everything one
// physical pass cost. Emitted by the pass engine after the pass completes
// (successfully or not), on the goroutine that called Run/RunOver.
type PassTrace struct {
	// Index is the 1-based sequence number of the pass within its engine.
	// Engines are constructed per solve everywhere a tracer can be
	// installed (per-call options build fresh engines), so Index is the
	// solve-local pass number.
	Index int
	// Kind is the delivery shape: "sets" for set-system passes
	// (engine.Run), "items" for generic element streams (engine.RunOver —
	// the geometric shape passes).
	Kind string
	// Items is how many stream items (sets, shapes) the pass drained,
	// delivered or skipped. For a failed pass this is the length of the
	// prefix drained before the failure.
	Items int
	// Skipped is how many of those sets lay in chunks that were checked
	// instead of decoded because every observer could skip them
	// (engine.Skipper), anywhere in the pass: a segmented pass matched the
	// chunk's bytes against the checksum of its earlier successful decode.
	// 0 for every other pass.
	Skipped int
	// Elems is the total element count across delivered sets (0 for
	// non-set streams, where the engine cannot see inside the items).
	Elems int64
	// Bytes is the encoded size of the stream's data section — what one
	// full pass reads, decoding it or checking it chunk by chunk — when the
	// backend is byte-backed (it reports a DataBytes size, i.e. SCB1
	// files); 0 otherwise.
	Bytes int64
	// Segmented reports the decode mode: true when the pass was decoded
	// as parallel chunks, false for the sequential single-reader path.
	Segmented bool
	// Chunks is how many chunks a segmented pass was cut into: each is
	// decoded once and handed to the delivering goroutine once. 0 for
	// sequential passes.
	Chunks int
	// Wait is the time the delivering goroutine of a segmented pass spent
	// blocked on the next in-order chunk — decode it could not overlap
	// with delivery. 0 for sequential passes.
	Wait time.Duration
	// Workers and BatchSize are the engine options the pass ran under
	// (after defaulting).
	Workers   int
	BatchSize int
	// Wall is the wall time of the pass, lifecycle hooks included.
	Wall time.Duration
	// Err is the pass failure, nil for a fully drained pass.
	Err error
}

// Tracer receives one PassTrace per engine pass. Implementations must be
// safe for concurrent use (one solve's passes arrive sequentially, but a
// tracer may be shared) and must not retain or mutate anything reachable
// from the engine — tracing is read-only by contract.
type Tracer interface {
	TracePass(PassTrace)
}

// TracerFunc adapts a function to a Tracer.
type TracerFunc func(PassTrace)

// TracePass implements Tracer.
func (f TracerFunc) TracePass(t PassTrace) { f(t) }

// Recorder is a Tracer that retains every record, for tests and for
// response assembly (the serving layer's trace:true breakdown). The zero
// value is ready to use; safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	passes []PassTrace
}

// TracePass implements Tracer.
func (r *Recorder) TracePass(t PassTrace) {
	r.mu.Lock()
	r.passes = append(r.passes, t)
	r.mu.Unlock()
}

// Passes returns a copy of the records received so far, in arrival order.
func (r *Recorder) Passes() []PassTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PassTrace, len(r.passes))
	copy(out, r.passes)
	return out
}

// Reset forgets all recorded passes.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.passes = nil
	r.mu.Unlock()
}

// RequestIDHeader is the HTTP header that carries a request's correlation
// id through the fleet: the router generates one per incoming request (or
// honors the client's), stamps it on the backend attempt, and both router
// and backend echo it on their responses and carry it in their logs — one
// id follows a request through router → node → engine pass.
const RequestIDHeader = "X-Request-ID"

// InstanceDigestHeader is the HTTP header on which a backend reports the
// content digest it actually resolved the request's instance to. Mutable
// instances make this load-bearing: a router that cached name→digest can
// compare its routing digest against this header and invalidate its entry
// the moment a mutation moves the name — without a second round trip.
const InstanceDigestHeader = "X-Instance-Digest"

// NewRequestID returns a fresh 16-hex-character correlation id.
func NewRequestID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Entropy exhaustion is not worth failing a request over; a
		// timestamp-derived id keeps correlation best-effort.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// BuildInfo reports the running binary's Go version and VCS revision (or
// "unknown" when the binary was built outside a checkout — `go test`
// binaries, for example). The values feed the *_build_info metric.
func BuildInfo() (goVersion, revision string) {
	goVersion, revision = runtime.Version(), "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				revision = s.Value
			}
		}
	}
	return goVersion, revision
}
