// Package serve is the serving layer: a concurrent set-cover solver service
// wrapped around the streaming algorithms of internal/core, internal/baseline
// and internal/maxcover (DESIGN.md §7). Where cmd/setcover is one process per
// solve — re-opening and re-digesting the instance every time — serve keeps a
// Catalog of registered instances (SCB1 files opened through internal/scdisk,
// static or mutable), amortizes instance identification into a content digest
// computed once at registration, caches solve results in an
// LRU keyed by (instance digest, algorithm, δ, p, ε, seed), and multiplexes
// the shared pass engine across concurrent solves through a bounded queue.
//
// The paper's central trade-off — O(mn^δ) space against O(1/δ) passes
// (Har-Peled–Indyk–Mahabadi–Vakilian, PODS 2016) — is exactly the knob the
// API exposes per request: callers pick the algorithm, δ, and pass budget,
// and the per-solve stats snapshot (passes, space high-water, wall time)
// comes back in the response so clients observe the trade-off they bought.
//
// Design decisions, in the order a request meets them:
//
//   - Result cache BEFORE the queue: a cache hit costs no solve slot, so
//     repeat requests are served even while the queue is saturated. The cache
//     key deliberately EXCLUDES the engine options (workers, batch size,
//     segmented switch) — by the pass engine's determinism contract those
//     only move wall-clock, never results, so caching across them is sound.
//   - Bounded admission: at most MaxConcurrent solves run at once and at most
//     MaxQueue more wait. Beyond that POST /v1/solve is rejected with 429 —
//     backpressure the caller can see, instead of a convoy of goroutines each
//     grabbing its own Workers-wide pool. Admitted solves default to
//     GOMAXPROCS/MaxConcurrent engine workers each, so N concurrent solves
//     share the machine sanely; a request may override via its engine block.
//   - Fresh repository per solve: every solve opens its own view of the
//     instance (its own file handles and pass counter for disk instances), so
//     per-solve pass counts are exact and concurrent solves never share
//     decode state.
//   - Pass failure is a structured error, not a cover: a truncated or corrupt
//     instance file fails the pass (engine.ErrPassFailed, PR 3's first-class
//     failure), and the server maps it to a 502 JSON error. So does a disk
//     instance whose file was rewritten or replaced since registration, which
//     the checkout refuses before any pass reads it. Infeasible instances map
//     to 422; they are a property of the input, not a server fault.
//   - Graceful shutdown drains: Shutdown stops admitting (503), then waits
//     for in-flight passes to finish — a begun pass is a full scan, the model
//     discipline, applied operationally.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// APIError is the structured error body every non-2xx response carries:
// {"error": {"code": "...", "message": "..."}}.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Error codes returned by the API.
const (
	CodeBadRequest      = "bad_request"      // 400: malformed body or parameters; 413: oversized body
	CodeUnknownInstance = "unknown_instance" // 404: instance not in the catalog
	CodeUnknownJob      = "unknown_job"      // 404: job id not found
	CodeQueueFull       = "queue_full"       // 429: solve queue at capacity
	CodeInfeasible      = "infeasible"       // 422: the instance has no (partial) cover
	CodeDualStall       = "dual_stall"       // 422: pd's eps is too small for its dual sums to reach coverage
	CodeSolveFailed     = "solve_failed"     // 500: solver error
	CodePassFailed      = "pass_failed"      // 502: a pass died mid-stream, or the file changed since registration (bad storage)
	CodeWeightMismatch  = "weight_mismatch"  // 400: the weights assertion block does not match the instance
	CodeShuttingDown    = "shutting_down"    // 503: server is draining
)

// errorBody is the JSON envelope of an error response. JobID is set when the
// failure belongs to an admitted job (a synchronous solve that failed), so
// the client can still inspect it at GET /v1/jobs/{id}.
type errorBody struct {
	Error *APIError `json:"error"`
	JobID string    `json:"job_id,omitempty"`
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes a structured error response.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: &APIError{Code: code, Message: fmt.Sprintf(format, args...)}})
}
