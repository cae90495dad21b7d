package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/scdyn"
	"repro/internal/setcover"
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// MaxConcurrent is the number of solves running at once (default
	// GOMAXPROCS, min 1). Admitted solves past it wait in the queue.
	MaxConcurrent int
	// MaxQueue is how many admitted solves may WAIT beyond the running ones.
	// A request arriving with MaxConcurrent running and MaxQueue waiting is
	// rejected with 429. The value is taken literally: 0 (and the zero
	// value) means NO waiting room — strict backpressure once MaxConcurrent
	// solves run; negative values are clamped to 0. DefaultMaxQueue is what
	// cmd/setcoverd defaults its -queue flag to.
	MaxQueue int
	// CacheSize is the LRU result-cache capacity in entries (default 128;
	// negative disables caching).
	CacheSize int
	// Engine is the default per-solve engine configuration. A zero Workers
	// means "share the machine": each solve runs max(1,
	// GOMAXPROCS/MaxConcurrent) workers, so MaxConcurrent concurrent solves
	// collectively use about GOMAXPROCS goroutines instead of each grabbing
	// a full-machine pool. Requests may override via their engine block.
	Engine EngineRequest
	// JobHistory caps retained finished jobs (default 1024): beyond it the
	// oldest finished jobs are forgotten and their ids return 404.
	JobHistory int
	// CacheDir, when non-empty, adds a PERSISTENT tier under the LRU result
	// cache: finished solves are written to one validated file per cache key
	// (atomic write-rename), and misses in the memory tier consult the
	// directory before admitting a solve. Point several daemons at the same
	// directory and the cache is shared fleet-wide — sound because the
	// determinism contract makes any node's result valid for every node.
	// Empty disables the tier. The directory should exist and be writable;
	// failures degrade to counted misses, never errors.
	CacheDir string
	// Logger receives one structured line per solve (request id, instance,
	// algorithm, outcome, phase timings) and per cache-served response. nil
	// discards — the library default; cmd/setcoverd wires -log-level/-log-json
	// here.
	Logger *slog.Logger
}

// DefaultMaxQueue is a reasonable queue depth for daemon deployments
// (cmd/setcoverd's -queue default). Config takes MaxQueue literally — the
// library zero value is strict backpressure, not this.
const DefaultMaxQueue = 16

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 1024
	}
	return c
}

// jobStatus is the lifecycle of one admitted solve.
type jobStatus string

const (
	jobQueued  jobStatus = "queued"
	jobRunning jobStatus = "running"
	jobDone    jobStatus = "done"
	jobFailed  jobStatus = "failed"
)

// job is one admitted solve. Mutable fields are guarded by Server.mu; done is
// closed exactly once when the job reaches a terminal status.
type job struct {
	id      string
	req     *SolveRequest
	inst    *Instance
	status  jobStatus
	result  *SolveResult
	err     *APIError
	errCode int // HTTP status for err
	done    chan struct{}
	// requestID is the admitting client's correlation id, stamped into the
	// solve log line and the job view (coalesced clients keep their own ids
	// on their responses; the shared solve logs under the admitter's).
	requestID string
	// admittedAt anchors the queue-wait measurement (admission → slot).
	admittedAt time.Time
	// trace is the solve's phase breakdown, filled at terminal status.
	// Timings are job-local facts; per-response fields (request id, lookup,
	// total) are overlaid at write time and never stored or cached.
	trace *SolveTrace
}

// jobView is the wire form of a job (GET /v1/jobs/{id} and sync solve
// responses share it).
type jobView struct {
	// ID is empty (omitted) when the response was served from the result
	// cache: no job was admitted, so there is nothing to poll — clients
	// branch on status ("done" carries the result inline; only "queued"
	// needs the id).
	ID       string        `json:"job_id,omitempty"`
	Status   jobStatus     `json:"status"`
	Instance *Instance     `json:"instance"`
	Request  *SolveRequest `json:"request,omitempty"`
	Cached   bool          `json:"cached"`
	// Coalesced marks a response that shared another request's in-flight
	// solve (single-flight): the work ran once, this client got the same
	// bytes. Only ever true alongside Cached=false.
	Coalesced bool         `json:"coalesced,omitempty"`
	Result    *SolveResult `json:"result,omitempty"`
	Error     *APIError    `json:"error,omitempty"`
	// RequestID is this response's correlation id (also echoed in the
	// X-Request-ID header): client-supplied, or router-generated, or minted
	// here. Job views fetched by id report the admitting request's id.
	RequestID string `json:"request_id,omitempty"`
	// Trace is the phase-timing breakdown, present only when the request set
	// trace:true. It rides the envelope, OUTSIDE Result — Result is what the
	// cache stores and the determinism contract compares; timings are
	// per-response facts and are never cached.
	Trace *SolveTrace `json:"trace,omitempty"`
}

// Server is the HTTP solver service over a Catalog. Create with NewServer,
// expose via Handler, stop with Shutdown.
type Server struct {
	cat   *Catalog
	cfg   Config
	cache *resultCache
	disk  *diskCache // persistent tier; nil without Config.CacheDir
	mux   *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job
	jobOrder []string        // retention order for JobHistory eviction
	inflight map[string]*job // cache key → admitted non-terminal job (single-flight)
	admitted int             // queued + running, bounded by MaxConcurrent+MaxQueue
	nextID   int
	closed   bool

	sem chan struct{} // MaxConcurrent tokens
	wg  sync.WaitGroup

	// Monotonic counters surfaced on /metrics.
	solvesTotal   atomic.Int64
	solveFailures atomic.Int64
	cacheHits     atomic.Int64
	diskHits      atomic.Int64
	cacheMisses   atomic.Int64
	coalesced     atomic.Int64
	rejected      atomic.Int64
	running       atomic.Int64
	mutations     atomic.Int64

	// Latency histograms surfaced on /metrics (fixed log-spaced buckets,
	// see internal/obs), plus the process anchor for uptime.
	histSolve *obs.Histogram // solve execution (checkout + algorithm)
	histQueue *obs.Histogram // admission → concurrency slot
	histPass  *obs.Histogram // one engine pass
	start     time.Time
	log       *slog.Logger
}

// NewServer builds a server over the catalog.
func NewServer(cat *Catalog, cfg Config) *Server {
	s := &Server{
		cat:       cat,
		cfg:       cfg.withDefaults(),
		jobs:      make(map[string]*job),
		inflight:  make(map[string]*job),
		mux:       http.NewServeMux(),
		histSolve: obs.NewHistogram(),
		histQueue: obs.NewHistogram(),
		histPass:  obs.NewHistogram(),
		start:     time.Now(),
	}
	s.log = s.cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.cache = newResultCache(s.cfg.CacheSize)
	if s.cfg.CacheDir != "" {
		// An uncreatable directory disables the tier (callers that must fail
		// fast — cmd/setcoverd — validate the directory before NewServer);
		// per-operation failures afterwards degrade to counted misses.
		s.disk, _ = newDiskCache(s.cfg.CacheDir)
	}
	s.sem = make(chan struct{}, s.cfg.MaxConcurrent)
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/instances/{name}/mutate", s.handleMutate)
	s.mux.HandleFunc("GET /v1/instances", s.handleInstances)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the http.Handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new solves are rejected with 503 immediately,
// then Shutdown blocks until every in-flight and queued solve finishes (a
// begun pass is a full scan — the model's discipline, applied operationally)
// or ctx expires, whichever comes first. It returns ctx.Err() on timeout;
// abandoned solves keep running until their pass completes.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// engineOptions resolves the effective per-solve engine configuration by
// MERGING the request's engine block over the server default: a request that
// sets only batch_size keeps the operator's -workers/-no-segmented. Unset
// (zero/false) request fields inherit; DisableSegmented is sticky — either
// side may force the single-reader path, neither can re-enable what the
// other disabled (it is a debugging knob, and results are identical anyway).
// Zero workers after merging means an equal share of GOMAXPROCS across
// MaxConcurrent solves.
func (s *Server) engineOptions(req *SolveRequest) EngineRequest {
	eng := s.cfg.Engine
	if req.Engine != nil {
		if req.Engine.Workers > 0 {
			eng.Workers = req.Engine.Workers
		}
		if req.Engine.BatchSize > 0 {
			eng.BatchSize = req.Engine.BatchSize
		}
		eng.DisableSegmented = eng.DisableSegmented || req.Engine.DisableSegmented
	}
	if eng.Workers <= 0 {
		eng.Workers = runtime.GOMAXPROCS(0) / s.cfg.MaxConcurrent
		if eng.Workers < 1 {
			eng.Workers = 1
		}
	}
	return eng
}

// msOf converts a duration to the wire's fractional milliseconds.
func msOf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Request body caps, in bytes.
const (
	maxSolveBody  = 1 << 20 // POST /v1/solve
	maxMutateBody = 8 << 20 // POST /v1/instances/{name}/mutate
)

// readBody reads r's body up to limit bytes. A longer body is answered 413
// and any other read failure 400, both with the error envelope; ok is false
// when a response has been written.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		return body, true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, CodeBadRequest, "reading body: %v", err)
	return nil, false
}

// handleSolve admits, caches, or rejects one solve request.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	handlerStart := time.Now()
	// Correlation id: honor the caller's (the fleet router stamps one per
	// client request before fanning out), mint one otherwise, echo it on
	// every response — errors included — so router, daemon, and client logs
	// join on one id.
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)

	body, ok := readBody(w, r, maxSolveBody)
	if !ok {
		return
	}
	req := &SolveRequest{}
	// Strict decode: an unknown field is a client bug (a typoed knob would
	// otherwise be silently ignored and the solve would run with defaults —
	// the worst failure mode for a parameter that changes the RESULT, like a
	// misspelled "seed"). Trailing data after the object is rejected too.
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "parsing body: %v", err)
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "trailing data after request object")
		return
	}
	req.normalize()
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	inst, ok := s.cat.Get(req.Instance)
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownInstance, "instance %q not registered", req.Instance)
		return
	}
	// Report the digest this request RESOLVED to, on every outcome from here
	// on. For mutable instances this is the staleness tripwire: a fleet
	// router that routed by a cached name→digest mapping compares this header
	// against its cache and invalidates on mismatch.
	w.Header().Set(obs.InstanceDigestHeader, inst.Digest)
	if req.deltaResolve() && inst.dyn == nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"resolve:delta requires a dynamic instance (%q is kind %q)", inst.Name, inst.Kind)
		return
	}
	if err := req.checkWeights(inst); err != nil {
		writeError(w, http.StatusBadRequest, CodeWeightMismatch, "%v", err)
		return
	}

	// A draining server answers NO new solve — cached or not — so clients
	// and load balancers get the structured 503 retry signal instead of a
	// 200 from a process whose listener is about to disappear.
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, "server is draining")
		return
	}

	// Cache next: a hit spends no queue slot, so hot repeat requests are
	// served even while the queue is saturated. Memory tier first, then the
	// persistent tier (another daemon — or a previous life of this one — may
	// have solved it already); a disk hit is promoted into the memory LRU so
	// the file is read once.
	key := req.cacheKey(inst.Digest)
	lookupStart := time.Now()
	res, hit := s.cache.get(key)
	if !hit && s.disk != nil {
		if res, hit = s.disk.get(key); hit {
			s.diskHits.Add(1)
			s.cache.put(key, res)
		}
	}
	lookup := time.Since(lookupStart)
	if hit {
		s.cacheHits.Add(1)
		s.writeCacheHit(w, req, inst, res, reqID, handlerStart, lookup)
		return
	}

	// Bounded admission: running + waiting ≤ MaxConcurrent + MaxQueue. The
	// miss counter is bumped only for ADMITTED requests, so hits + misses
	// reconciles with solves attempted rather than inflating during an
	// overload (rejections have their own counter). Before admitting, an
	// identical request already queued or running COALESCES onto that job
	// (single-flight): N clients hammering one digest cost one backend solve,
	// which is what makes the fleet's cache-hit fan-in exact rather than
	// best-effort.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, "server is draining")
		return
	}
	if j, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.coalesced.Add(1)
		s.joinJob(w, req, j, reqID, handlerStart, lookup)
		return
	}
	// Recheck the memory tier under the lock: the winning job may have
	// finished (and left inflight) between the unlocked get and here.
	if res, ok := s.cache.get(key); ok {
		s.mu.Unlock()
		s.cacheHits.Add(1)
		s.writeCacheHit(w, req, inst, res, reqID, handlerStart, lookup)
		return
	}
	if s.admitted >= s.cfg.MaxConcurrent+s.cfg.MaxQueue {
		s.mu.Unlock()
		s.rejected.Add(1)
		writeError(w, http.StatusTooManyRequests, CodeQueueFull,
			"solve queue full (%d running/queued); retry later", s.cfg.MaxConcurrent+s.cfg.MaxQueue)
		return
	}
	s.cacheMisses.Add(1)
	s.admitted++
	s.nextID++
	j := &job{
		id:         fmt.Sprintf("job-%d", s.nextID),
		req:        req,
		inst:       inst,
		status:     jobQueued,
		done:       make(chan struct{}),
		requestID:  reqID,
		admittedAt: time.Now(),
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.inflight[key] = j
	s.evictJobsLocked()
	s.wg.Add(1)
	s.mu.Unlock()

	go s.runJob(j, key)

	if !req.wait() {
		writeJSON(w, http.StatusAccepted, jobView{ID: j.id, Status: jobQueued, Instance: inst, Request: req, RequestID: reqID})
		return
	}
	<-j.done
	s.mu.Lock()
	view := jobView{ID: j.id, Status: j.status, Instance: inst, Request: req,
		Result: j.result, Error: j.err, RequestID: reqID}
	code := j.errCode
	trace := j.trace
	s.mu.Unlock()
	if view.Error != nil {
		// Keep the job id on the error envelope too: the failed job is
		// retained (GET /v1/jobs/{id}) and the client needs its handle.
		writeJSON(w, code, errorBody{Error: view.Error, JobID: j.id})
		return
	}
	view.Trace = overlayTrace(req, trace, reqID, handlerStart, lookup)
	s.writeSolveOK(w, req, view)
}

// writeCacheHit answers a cache-served solve, with the lookup-only trace
// overlay and the cache-path log line.
func (s *Server) writeCacheHit(w http.ResponseWriter, req *SolveRequest, inst *Instance,
	res *SolveResult, reqID string, handlerStart time.Time, lookup time.Duration) {
	view := jobView{
		Status: jobDone, Instance: inst, Request: req, Cached: true, Result: res,
		RequestID: reqID,
	}
	view.Trace = overlayTrace(req, nil, reqID, handlerStart, lookup)
	s.log.Info("solve served",
		"request_id", reqID, "instance", req.Instance, "algo", req.Algo,
		"status", "cached", "total_ms", msOf(time.Since(handlerStart)))
	s.writeSolveOK(w, req, view)
}

// overlayTrace builds the response's trace: the job's stored phase timings
// (nil for cache hits — no solve ran on this path) overlaid with the
// per-response facts: this client's request id, ITS cache-lookup time, and
// ITS end-to-end total. Returns nil unless the request opted in.
func overlayTrace(req *SolveRequest, jobTrace *SolveTrace, reqID string,
	handlerStart time.Time, lookup time.Duration) *SolveTrace {
	if !req.Trace {
		return nil
	}
	t := SolveTrace{}
	if jobTrace != nil {
		t = *jobTrace // Passes slice shared read-only; never mutated after publish
	}
	t.RequestID = reqID
	t.LookupMillis = msOf(lookup)
	t.TotalMillis = msOf(time.Since(handlerStart))
	return &t
}

// joinJob attaches a coalesced request to another request's in-flight job:
// async callers get the shared job's id to poll, synchronous callers block on
// the same done channel the owner does and relay whatever it produced —
// result or error — so every client of one solve sees one answer.
func (s *Server) joinJob(w http.ResponseWriter, req *SolveRequest, j *job,
	reqID string, handlerStart time.Time, lookup time.Duration) {
	if !req.wait() {
		s.mu.Lock()
		status := j.status
		s.mu.Unlock()
		if status == jobDone || status == jobFailed {
			// Terminal already: answer inline like a cache hit would.
			s.relayJob(w, req, j, true, reqID, handlerStart, lookup)
			return
		}
		writeJSON(w, http.StatusAccepted, jobView{ID: j.id, Status: status, Instance: j.inst, Request: req, Coalesced: true, RequestID: reqID})
		return
	}
	<-j.done
	s.relayJob(w, req, j, true, reqID, handlerStart, lookup)
}

// relayJob writes job j's terminal outcome for req.
func (s *Server) relayJob(w http.ResponseWriter, req *SolveRequest, j *job, coalesced bool,
	reqID string, handlerStart time.Time, lookup time.Duration) {
	s.mu.Lock()
	view := jobView{ID: j.id, Status: j.status, Instance: j.inst, Request: req,
		Coalesced: coalesced, Result: j.result, Error: j.err, RequestID: reqID}
	code := j.errCode
	trace := j.trace
	s.mu.Unlock()
	if view.Error != nil {
		writeJSON(w, code, errorBody{Error: view.Error, JobID: j.id})
		return
	}
	view.Trace = overlayTrace(req, trace, reqID, handlerStart, lookup)
	s.writeSolveOK(w, req, view)
}

// runJob executes one admitted job: wait for a concurrency token, solve,
// publish the result (and cache it), release.
func (s *Server) runJob(j *job, cacheKey string) {
	defer s.wg.Done()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	queueWait := time.Since(j.admittedAt)
	s.histQueue.Observe(queueWait)

	s.mu.Lock()
	j.status = jobRunning
	s.mu.Unlock()
	s.running.Add(1)
	defer s.running.Add(-1)

	// Every solve runs traced: the tracer feeds the per-pass latency
	// histogram unconditionally and records the wire-form views for the
	// trace:true breakdown (a handful of small records per solve). Tracing is
	// read-only by the engine's contract, so results are byte-identical to an
	// untraced solve.
	tracer := &solveTracer{hist: s.histPass}
	engReq := s.engineOptions(j.req)
	solveStart := time.Now()
	res, checkout, err := runSolve(j.inst, j.req, engine.Options{
		Workers:          engReq.Workers,
		BatchSize:        engReq.BatchSize,
		DisableSegmented: engReq.DisableSegmented,
		Tracer:           tracer,
	})
	solveWall := time.Since(solveStart)
	s.histSolve.Observe(solveWall)

	// Persist BEFORE publishing (and outside s.mu — it is file I/O): once
	// waiters wake, a restarted sibling may already be asked for this key.
	if err == nil && s.disk != nil {
		s.disk.put(cacheKey, res)
	}

	trace := &SolveTrace{
		QueueMillis:    msOf(queueWait),
		CheckoutMillis: msOf(checkout),
		SolveMillis:    msOf(solveWall),
		Passes:         tracer.views(),
	}
	outcome := "done"
	if err != nil {
		outcome = "failed"
	}
	s.log.Info("solve finished",
		"request_id", j.requestID, "job", j.id, "instance", j.req.Instance,
		"algo", j.req.Algo, "status", outcome, "queue_ms", trace.QueueMillis,
		"solve_ms", trace.SolveMillis, "passes", len(trace.Passes))

	s.mu.Lock()
	defer s.mu.Unlock()
	j.trace = trace
	if err != nil {
		status, code := classify(err)
		j.status = jobFailed
		j.err = &APIError{Code: code, Message: err.Error()}
		j.errCode = status
		s.solveFailures.Add(1)
	} else {
		j.status = jobDone
		j.result = res
		s.cache.put(cacheKey, res)
		s.solvesTotal.Add(1)
	}
	if s.inflight[cacheKey] == j {
		delete(s.inflight, cacheKey)
	}
	close(j.done)
	// Decrement admitted only once the job is terminal: a queued-or-running
	// job holds its admission slot for its whole life.
	s.admitted--
}

// solveTracer is the per-solve engine tracer: every pass feeds the server's
// pass-latency histogram, and the wire-form views accumulate for the
// trace:true response breakdown. Safe for concurrent TracePass (the engine
// emits sequentially, but the contract asks for safety).
type solveTracer struct {
	hist *obs.Histogram
	mu   sync.Mutex
	seen []PassTraceView
}

func (t *solveTracer) TracePass(p obs.PassTrace) {
	t.hist.Observe(p.Wall)
	v := PassTraceView{
		Index:      p.Index,
		Kind:       p.Kind,
		Items:      p.Items,
		Skipped:    p.Skipped,
		Elems:      p.Elems,
		Bytes:      p.Bytes,
		Segmented:  p.Segmented,
		Workers:    p.Workers,
		BatchSize:  p.BatchSize,
		WallMillis: msOf(p.Wall),
	}
	if p.Err != nil {
		v.Error = p.Err.Error()
	}
	t.mu.Lock()
	t.seen = append(t.seen, v)
	t.mu.Unlock()
}

// views returns the accumulated pass views; call after the solve finished.
func (t *solveTracer) views() []PassTraceView {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seen
}

// evictJobsLocked forgets the oldest TERMINAL jobs beyond JobHistory.
// Requires s.mu held.
func (s *Server) evictJobsLocked() {
	excess := len(s.jobOrder) - s.cfg.JobHistory
	if excess <= 0 {
		return
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		if excess > 0 && j != nil && (j.status == jobDone || j.status == jobFailed) {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// maxMutateOps bounds one mutation batch: enough for any realistic delta,
// small enough that a single request cannot commit the server to an
// unbounded log write.
const maxMutateOps = 1 << 12

// MutateOp is one wire-form mutation: {"op":"append","elems":[...]} or
// {"op":"tombstone","id":N}.
type MutateOp struct {
	Op    string `json:"op"`
	Elems []int  `json:"elems,omitempty"`
	ID    *int   `json:"id,omitempty"`
}

// MutateRequest is the body of POST /v1/instances/{name}/mutate.
type MutateRequest struct {
	Ops []MutateOp `json:"ops"`
}

// MutateResponse reports the post-mutation identity: the NEW digest under
// which all future solves of this name cache and route.
type MutateResponse struct {
	Instance   string `json:"instance"`
	Digest     string `json:"digest"`
	Generation int    `json:"generation"`
	N          int    `json:"n"`
	M          int    `json:"m"`
	Applied    int    `json:"applied"`
}

// handleMutate applies a mutation batch to a dynamic instance. The swap is
// atomic per name: after a 200, the name resolves to the new generation and
// digest, the old digest returns 404, and solves admitted before the
// mutation keep their pinned pre-mutation views.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)

	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, "server is draining")
		return
	}

	name := r.PathValue("name")
	body, ok := readBody(w, r, maxMutateBody)
	if !ok {
		return
	}
	mreq := &MutateRequest{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(mreq); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "parsing body: %v", err)
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "trailing data after request object")
		return
	}
	if len(mreq.Ops) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "empty ops")
		return
	}
	if len(mreq.Ops) > maxMutateOps {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%d ops exceeds limit %d", len(mreq.Ops), maxMutateOps)
		return
	}
	ops := make([]scdyn.Op, 0, len(mreq.Ops))
	for i, op := range mreq.Ops {
		switch op.Op {
		case "append":
			elems := make([]setcover.Elem, 0, len(op.Elems))
			for _, e := range op.Elems {
				if e < 0 || e > math.MaxInt32 {
					writeError(w, http.StatusBadRequest, CodeBadRequest, "ops[%d]: element %d out of range", i, e)
					return
				}
				elems = append(elems, setcover.Elem(e))
			}
			ops = append(ops, scdyn.Op{Kind: scdyn.OpAppend, Elems: elems})
		case "tombstone":
			if op.ID == nil {
				writeError(w, http.StatusBadRequest, CodeBadRequest, "ops[%d]: tombstone needs an id", i)
				return
			}
			ops = append(ops, scdyn.Op{Kind: scdyn.OpTombstone, ID: *op.ID})
		default:
			writeError(w, http.StatusBadRequest, CodeBadRequest, "ops[%d]: unknown op %q (want append or tombstone)", i, op.Op)
			return
		}
	}

	next, err := s.cat.Mutate(name, ops)
	if err != nil {
		switch {
		case errors.Is(err, ErrUnknownInstance):
			writeError(w, http.StatusNotFound, CodeUnknownInstance, "%v", err)
		default:
			// Not-dynamic and op-validation failures are both client errors.
			writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		}
		return
	}
	s.mutations.Add(1)
	w.Header().Set(obs.InstanceDigestHeader, next.Digest)
	s.log.Info("instance mutated",
		"request_id", reqID, "instance", name, "ops", len(ops),
		"generation", next.Generation, "digest", next.Digest)
	writeJSON(w, http.StatusOK, MutateResponse{
		Instance: name, Digest: next.Digest, Generation: next.Generation,
		N: next.N, M: next.M, Applied: len(ops),
	})
}

func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"instances": s.cat.List()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var view jobView
	if ok {
		// A failed job reports its error in the body; the GET itself
		// succeeded, so the status code stays 200. The view carries the
		// ADMITTING request's correlation id (and, when that request opted
		// into tracing, the solve's phase breakdown) so a polled job can be
		// joined to the fleet logs that produced it.
		view = jobView{ID: j.id, Status: j.status, Instance: j.inst, Request: j.req,
			Result: j.result, Error: j.err, RequestID: j.requestID}
		if j.req.Trace && j.trace != nil {
			t := *j.trace
			t.RequestID = j.requestID
			view.Trace = &t
		}
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownJob, "job %q not found (or evicted)", id)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, "server is draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves a Prometheus-style plain-text exposition. The output
// order is DETERMINISTIC and pinned by a test: build info, uptime, the
// counters (their pre-existing order preserved for scrape configs), then the
// latency histograms. Only the values vary between scrapes.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	admitted := s.admitted
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	goVersion, revision := obs.BuildInfo()
	fmt.Fprintf(w, "# HELP setcoverd_build_info Build metadata (value is always 1).\n")
	fmt.Fprintf(w, "# TYPE setcoverd_build_info gauge\n")
	fmt.Fprintf(w, "setcoverd_build_info{go_version=%q,revision=%q} 1\n", goVersion, revision)
	fmt.Fprintf(w, "setcoverd_uptime_seconds %.3f\n", time.Since(s.start).Seconds())
	fmt.Fprintf(w, "setcoverd_solves_total %d\n", s.solvesTotal.Load())
	fmt.Fprintf(w, "setcoverd_solve_failures_total %d\n", s.solveFailures.Load())
	fmt.Fprintf(w, "setcoverd_cache_hits_total %d\n", s.cacheHits.Load())
	fmt.Fprintf(w, "setcoverd_cache_misses_total %d\n", s.cacheMisses.Load())
	fmt.Fprintf(w, "setcoverd_cache_entries %d\n", s.cache.len())
	fmt.Fprintf(w, "setcoverd_disk_cache_hits_total %d\n", s.diskHits.Load())
	fmt.Fprintf(w, "setcoverd_disk_cache_errors_total %d\n", s.disk.errorCount())
	fmt.Fprintf(w, "setcoverd_solves_coalesced_total %d\n", s.coalesced.Load())
	fmt.Fprintf(w, "setcoverd_rejected_total %d\n", s.rejected.Load())
	fmt.Fprintf(w, "setcoverd_jobs_admitted %d\n", admitted)
	fmt.Fprintf(w, "setcoverd_jobs_running %d\n", s.running.Load())
	fmt.Fprintf(w, "setcoverd_instances %d\n", s.cat.Len())
	fmt.Fprintf(w, "setcoverd_mutations_total %d\n", s.mutations.Load())
	s.histSolve.Write(w, "setcoverd_solve_seconds", "Solve execution latency (checkout + algorithm).")
	s.histQueue.Write(w, "setcoverd_queue_wait_seconds", "Admission-to-slot queue wait.")
	s.histPass.Write(w, "setcoverd_pass_seconds", "Single engine pass latency.")
}

// streamChunkSize is how many cover set IDs one NDJSON chunk line carries.
const streamChunkSize = 4096

// writeSolveOK writes a successful solve response: the buffered JSON envelope
// by default, or — when the request asked to stream — an NDJSON sequence that
// never materializes the cover as one JSON array in the response buffer:
//
//	{"status":"done","cached":...,"instance":{...},"result":{...sans cover}}
//	{"cover":[...≤streamChunkSize ids...]}   (repeated)
//	{"eof":true,"cover_size":N}
//
// Clients concatenate the cover lines in order; the trailing eof line (with
// the expected total) is the signal that the stream is complete rather than
// severed — a truncated connection can never silently pass off a prefix as
// the whole cover. Each line is flushed, so a proxy (the fleet router) relays
// chunks as they are produced.
func (s *Server) writeSolveOK(w http.ResponseWriter, req *SolveRequest, view jobView) {
	if !req.streaming() {
		writeJSON(w, http.StatusOK, view)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	cover := view.Result.Cover
	head := struct {
		jobView
		Result struct {
			*SolveResult
			Cover []int `json:"cover,omitempty"` // shadows the embedded field: omitted
		} `json:"result"`
	}{jobView: view}
	head.jobView.Result = nil
	head.Result.SolveResult = view.Result
	_ = enc.Encode(head)
	for start := 0; start < len(cover); start += streamChunkSize {
		end := start + streamChunkSize
		if end > len(cover) {
			end = len(cover)
		}
		_ = enc.Encode(struct {
			Cover []int `json:"cover"`
		}{cover[start:end]})
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(struct {
		EOF       bool `json:"eof"`
		CoverSize int  `json:"cover_size"`
	}{true, len(cover)})
	if flusher != nil {
		flusher.Flush()
	}
}
