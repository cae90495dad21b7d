package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Error codes the router adds to the serve API's vocabulary.
const (
	// CodeFleetExhausted (503) means every eligible node failed the request:
	// transport errors and drains all the way down the rendezvous order.
	CodeFleetExhausted = "fleet_exhausted"
	// CodeShuttingDown matches serve's code: the ROUTER is draining.
	CodeShuttingDown = "shutting_down"
	// CodeUnknownJob matches serve's code: no node knows the job id.
	CodeUnknownJob = "unknown_job"
)

// NodeHeader is the response header naming the backend node that produced the
// response — the fleet's observability hook (tests and the CI smoke assert
// routing decisions through it; operators grep it out of access logs).
const NodeHeader = "X-Fleet-Node"

// apiError mirrors serve's structured error envelope so fleet responses are
// indistinguishable in shape from node responses.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorBody struct {
	Error *apiError `json:"error"`
}

// Router fans POST /v1/solve across a fleet of setcoverd nodes by instance
// content digest. It is stateless apart from a name→digest cache and metrics:
// restart it, run several concurrently — routing decisions depend only on
// (key, node list).
type Router struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.Mutex
	closed  bool
	digests map[string]string // instance name or digest → digest
	// probeState tracks each node's last observed health so state
	// TRANSITIONS (up→down, down→up) log exactly once, not once per probe.
	// Guarded by mu; values: probeUnknown until first observed.
	probeState map[string]int

	wg sync.WaitGroup

	requests      atomic.Int64
	retries       atomic.Int64
	exhausted     atomic.Int64
	mutations     atomic.Int64
	invalidations atomic.Int64
	perNode       map[string]*atomic.Int64 // node → responses relayed from it

	// Latency histograms (fixed log-spaced buckets, internal/obs): one
	// attempt histogram per node — failed attempts included, so failover
	// cost is visible per node — plus the end-to-end relayed-solve family.
	// Maps are fixed at construction; the histograms themselves are atomic.
	histAttempt map[string]*obs.Histogram
	histSolve   *obs.Histogram
	start       time.Time
	log         *slog.Logger
}

// Probe-state values for probeState.
const (
	probeUnknown = iota
	probeUp
	probeDown
)

// NewRouter builds a router over cfg.Nodes.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("fleet: no nodes configured")
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n == "" {
			return nil, errors.New("fleet: empty node URL")
		}
		if seen[n] {
			return nil, fmt.Errorf("fleet: duplicate node %q", n)
		}
		seen[n] = true
	}
	rt := &Router{
		cfg:         cfg.withDefaults(),
		mux:         http.NewServeMux(),
		digests:     make(map[string]string),
		probeState:  make(map[string]int, len(cfg.Nodes)),
		perNode:     make(map[string]*atomic.Int64, len(cfg.Nodes)),
		histAttempt: make(map[string]*obs.Histogram, len(cfg.Nodes)),
		histSolve:   obs.NewHistogram(),
		start:       time.Now(),
	}
	for _, n := range rt.cfg.Nodes {
		rt.perNode[n] = &atomic.Int64{}
		rt.histAttempt[n] = obs.NewHistogram()
	}
	rt.log = rt.cfg.Logger
	if rt.log == nil {
		rt.log = slog.New(slog.DiscardHandler)
	}
	rt.mux.HandleFunc("POST /v1/solve", rt.handleSolve)
	rt.mux.HandleFunc("POST /v1/instances/{name}/mutate", rt.handleMutate)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	rt.mux.HandleFunc("GET /v1/instances", rt.handleInstances)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt, nil
}

// Handler returns the http.Handler serving the router API.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Shutdown drains the router: new requests get 503 immediately; Shutdown then
// waits for in-flight relays to finish or ctx to expire. Backend nodes drain
// separately — the router holds no solve state to hand off.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.mu.Lock()
	rt.closed = true
	rt.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter registers an in-flight request for drain accounting; it reports false
// (and answers 503) when the router is draining.
func (rt *Router) enter(w http.ResponseWriter) bool {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, "router is draining")
		return false
	}
	rt.wg.Add(1)
	rt.mu.Unlock()
	return true
}

// handleSolve routes one solve: resolve the instance to its digest, walk the
// digest's rendezvous order, relay the first answer that is not a dead or
// draining node.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !rt.enter(w) {
		return
	}
	defer rt.wg.Done()
	rt.requests.Add(1)
	solveStart := time.Now()

	// Correlation id: honor the client's, mint one otherwise, echo it back,
	// and stamp it on every backend attempt — so one id joins client, router,
	// backend solve log, and job view.
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)

	body, ok := readBody(w, r, maxSolveBody)
	if !ok {
		return
	}
	// Lenient peek at the instance field only — full validation is the
	// backend's job, and duplicating it here would let the two drift.
	var peek struct {
		Instance string `json:"instance"`
	}
	_ = json.Unmarshal(body, &peek)
	key := rt.resolveDigest(r.Context(), peek.Instance)

	// Mutable instances can move a name to a new digest at any moment, so a
	// cached resolution is only a HINT. A backend 404 under a resolved name
	// is the staleness signal: invalidate the cache entry, re-resolve from
	// the fleet's catalogs, and re-route ONCE under the fresh digest before
	// relaying the failure. (Without this, the lazily-refreshed map pins a
	// mutated instance to its pre-mutation digest forever: every routed
	// solve for the name 404s even though the fleet serves it fine.)
	for reroute := 0; ; reroute++ {
		resp, node, attempts, failures := rt.routeSolve(r.Context(), key, body, reqID)
		if resp == nil {
			rt.exhausted.Add(1)
			rt.log.Warn("fleet exhausted", "request_id", reqID, "attempts", attempts)
			writeError(w, http.StatusServiceUnavailable, CodeFleetExhausted,
				"all %d eligible nodes failed: %s", attempts, strings.Join(failures, "; "))
			return
		}
		if resp.StatusCode == http.StatusNotFound && reroute == 0 && peek.Instance != "" {
			if fresh, moved := rt.invalidate(r.Context(), peek.Instance, key); moved {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				rt.invalidations.Add(1)
				rt.log.Info("digest cache invalidated",
					"request_id", reqID, "instance", peek.Instance,
					"stale", key, "fresh", fresh)
				key = fresh
				continue
			}
		}
		// The backend reports which digest it actually resolved; a mismatch
		// means a mutation landed between our resolve and its answer. The
		// response is still the current instance's result — adopt the fresh
		// digest so the NEXT request routes by the current identity.
		if d := resp.Header.Get(obs.InstanceDigestHeader); d != "" && d != key {
			rt.invalidations.Add(1)
			rt.adoptDigest(peek.Instance, key, d)
		}
		rt.perNode[node].Add(1)
		rt.relay(w, node, resp)
		rt.histSolve.Observe(time.Since(solveStart))
		rt.log.Info("solve relayed",
			"request_id", reqID, "node", node, "attempts", attempts,
			"status", resp.StatusCode,
			"total_ms", float64(time.Since(solveStart).Microseconds())/1000)
		return
	}
}

// routeSolve walks key's rendezvous order and returns the first live backend
// response (body unread) with the node that produced it and how many attempts
// it took. A nil response means every eligible node failed; failures carries
// the per-node reasons for the error body.
func (rt *Router) routeSolve(ctx context.Context, key string, body []byte, reqID string) (*http.Response, string, int, []string) {
	order := rendezvousOrder(key, rt.cfg.Nodes)
	if len(order) > rt.cfg.MaxAttempts {
		order = order[:rt.cfg.MaxAttempts]
	}
	var failures []string
	for i, node := range order {
		if i > 0 {
			rt.retries.Add(1)
		}
		attemptStart := time.Now()
		resp, err := rt.attempt(ctx, node, body, reqID)
		// Failed attempts are observed too: the per-node histogram is the
		// failover-latency surface (how long a dead node costs before the
		// router moves on), not just the happy path.
		rt.histAttempt[node].Observe(time.Since(attemptStart))
		if err != nil {
			rt.log.Warn("attempt failed",
				"request_id", reqID, "node", node, "attempt", i+1, "error", err.Error())
			failures = append(failures, fmt.Sprintf("%s: %v", node, err))
			continue
		}
		return resp, node, i + 1, nil
	}
	return nil, "", len(order), failures
}

// invalidate drops the cached resolution for name (and the stale digest's
// self-entry), re-resolves from the fleet's catalogs, and reports whether the
// name now maps to a different digest than the one the request routed by.
func (rt *Router) invalidate(ctx context.Context, name, stale string) (string, bool) {
	rt.mu.Lock()
	delete(rt.digests, name)
	delete(rt.digests, stale)
	rt.mu.Unlock()
	fresh := rt.resolveDigest(ctx, name)
	return fresh, fresh != stale
}

// adoptDigest rebinds name to the digest a backend reported, retiring the
// stale self-entry (the old digest no longer resolves anywhere).
func (rt *Router) adoptDigest(name, stale, fresh string) {
	rt.mu.Lock()
	if name != "" {
		rt.digests[name] = fresh
	}
	if stale != fresh {
		delete(rt.digests, stale)
	}
	rt.digests[fresh] = fresh
	rt.mu.Unlock()
}

// handleMutate forwards a mutation to the node that owns the instance's
// current digest — the same rendezvous position its solve traffic lands on —
// then adopts the post-mutation digest from the response so subsequent solves
// route by the new identity without waiting for a 404 round trip. A mutation
// lands on ONE node's catalog; converging the other nodes' catalogs is the
// deployment's job (see ROADMAP: single-node mutation ownership).
func (rt *Router) handleMutate(w http.ResponseWriter, r *http.Request) {
	if !rt.enter(w) {
		return
	}
	defer rt.wg.Done()
	rt.mutations.Add(1)
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)
	name := r.PathValue("name")
	body, ok := readBody(w, r, maxMutateBody)
	if !ok {
		return
	}
	key := rt.resolveDigest(r.Context(), name)
	order := rendezvousOrder(key, rt.cfg.Nodes)
	if len(order) > rt.cfg.MaxAttempts {
		order = order[:rt.cfg.MaxAttempts]
	}
	var failures []string
	for i, node := range order {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.AttemptTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			node+"/v1/instances/"+name+"/mutate", bytes.NewReader(body))
		if err != nil {
			cancel()
			failures = append(failures, fmt.Sprintf("%s: %v", node, err))
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(obs.RequestIDHeader, reqID)
		resp, err := rt.cfg.Client.Do(req)
		if err != nil {
			cancel()
			rt.log.Warn("mutate attempt failed",
				"request_id", reqID, "node", node, "attempt", i+1, "error", err.Error())
			failures = append(failures, fmt.Sprintf("%s: %v", node, err))
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			cancel()
			failures = append(failures, fmt.Sprintf("%s: %v", node, errNodeDraining))
			continue
		}
		if d := resp.Header.Get(obs.InstanceDigestHeader); resp.StatusCode == http.StatusOK && d != "" {
			rt.adoptDigest(name, key, d)
			rt.log.Info("mutation relayed",
				"request_id", reqID, "node", node, "instance", name, "digest", d)
		}
		rt.relay(w, node, resp)
		cancel()
		return
	}
	rt.exhausted.Add(1)
	writeError(w, http.StatusServiceUnavailable, CodeFleetExhausted,
		"all %d eligible nodes failed: %s", len(order), strings.Join(failures, "; "))
}

// errNodeDraining marks a 503 from a backend — retryable, unlike every other
// backend status.
var errNodeDraining = errors.New("node draining (503)")

// attempt posts the solve body to one node. The returned response is live
// (body unread) when err is nil; any error — transport or a 503 drain signal —
// means "try the next node". The attempt timeout covers dial through response
// HEADERS; relay of the body is unbounded by design (see DefaultAttemptTimeout).
func (rt *Router) attempt(parent context.Context, node string, body []byte, reqID string) (*http.Response, error) {
	ctx, cancel := context.WithCancel(parent)
	timer := time.AfterFunc(rt.cfg.AttemptTimeout, cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		timer.Stop()
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		timer.Stop()
		cancel()
		return nil, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		// A draining or overloaded-to-death node: the ONLY status worth moving
		// on for. 429 is backpressure the client must see; 4xx/5xx otherwise
		// would fail identically everywhere (determinism again).
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		timer.Stop()
		cancel()
		return nil, errNodeDraining
	}
	// Headers arrived: disarm the attempt timeout and hand the live body to
	// the caller. The cancel is deliberately leaked to the response's lifetime
	// — relay closes the body, which releases the connection; the context is
	// collected with it.
	timer.Stop()
	return resp, nil
}

// relay copies a backend response to the client verbatim, stamping the node
// header and flushing after each chunk so streamed NDJSON covers flow through
// the router without buffering.
func (rt *Router) relay(w http.ResponseWriter, node string, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	// The resolved-digest report passes through: a client (or a router
	// stacked on this one) invalidates its own caches off the same signal.
	if d := resp.Header.Get(obs.InstanceDigestHeader); d != "" {
		w.Header().Set(obs.InstanceDigestHeader, d)
	}
	w.Header().Set(NodeHeader, node)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client went away; nothing to clean up
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// resolveDigest maps an instance name to its content digest via the fleet's
// catalogs, caching positives. The digest→digest self-entries never go stale
// (content addressing), but NAME entries can: a mutation moves the name to a
// new digest. handleSolve treats a routed 404 and the InstanceDigestHeader
// mismatch as the invalidation signals (see invalidate/adoptDigest) — this
// cache alone must not be trusted across mutations. Unknown names fall back
// to the raw string: it may BE a digest the router has not seen listed, and
// if it is simply wrong, the backend answers 404 exactly as it would
// un-routed.
func (rt *Router) resolveDigest(ctx context.Context, name string) string {
	if name == "" {
		return ""
	}
	rt.mu.Lock()
	d, ok := rt.digests[name]
	rt.mu.Unlock()
	if ok {
		return d
	}
	rt.refreshDigests(ctx)
	rt.mu.Lock()
	d, ok = rt.digests[name]
	rt.mu.Unlock()
	if ok {
		return d
	}
	return name
}

// refreshDigests reloads the name→digest map from the first node that answers
// GET /v1/instances.
func (rt *Router) refreshDigests(ctx context.Context) {
	for _, node := range rt.cfg.Nodes {
		var listing struct {
			Instances []struct {
				Name   string `json:"name"`
				Digest string `json:"digest"`
			} `json:"instances"`
		}
		if err := rt.probeJSON(ctx, node+"/v1/instances", &listing); err != nil {
			continue
		}
		rt.mu.Lock()
		for _, inst := range listing.Instances {
			rt.digests[inst.Name] = inst.Digest
			rt.digests[inst.Digest] = inst.Digest
		}
		rt.mu.Unlock()
		return
	}
}

// probeJSON GETs url with the probe timeout and decodes a 200 JSON body into v.
func (rt *Router) probeJSON(parent context.Context, url string, v any) error {
	ctx, cancel := context.WithTimeout(parent, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(v)
}

// handleJob forwards a job-handle poll. Job ids are NODE-local (the node that
// admitted the solve owns the job), and async clients may poll through the
// router, so it asks each node in turn and relays the first answer that is not
// a 404.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	if !rt.enter(w) {
		return
	}
	defer rt.wg.Done()
	id := r.PathValue("id")
	for _, node := range rt.cfg.Nodes {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProbeTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/jobs/"+id, nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := rt.cfg.Client.Do(req)
		if err != nil {
			cancel()
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			cancel()
			continue
		}
		rt.relay(w, node, resp)
		cancel()
		return
	}
	writeError(w, http.StatusNotFound, CodeUnknownJob, "job %q not found on any node", id)
}

// handleInstances relays the catalog listing from the first healthy node —
// fleet nodes register identical catalogs (a deployment invariant the healthz
// digest check below makes observable, not something the router can enforce).
func (rt *Router) handleInstances(w http.ResponseWriter, r *http.Request) {
	if !rt.enter(w) {
		return
	}
	defer rt.wg.Done()
	for _, node := range rt.cfg.Nodes {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProbeTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/instances", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := rt.cfg.Client.Do(req)
		if err != nil {
			cancel()
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			cancel()
			continue
		}
		rt.relay(w, node, resp)
		cancel()
		return
	}
	writeError(w, http.StatusServiceUnavailable, CodeFleetExhausted, "no node answered the catalog listing")
}

// handleHealthz reports fleet health: 200 while at least one node serves
// (the fleet survives any minority of nodes dying — that is its point),
// with the per-node breakdown in the body for operators.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	closed := rt.closed
	rt.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, "router is draining")
		return
	}
	type probe struct {
		node    string
		status  string
		latency time.Duration
	}
	results := make(chan probe, len(rt.cfg.Nodes))
	for _, node := range rt.cfg.Nodes {
		go func(node string) {
			var v struct {
				Status string `json:"status"`
			}
			probeStart := time.Now()
			err := rt.probeJSON(r.Context(), node+"/healthz", &v)
			latency := time.Since(probeStart)
			switch {
			case err == nil && v.Status == "ok":
				results <- probe{node, "ok", latency}
			case err == nil:
				results <- probe{node, "unhealthy", latency}
			default:
				results <- probe{node, "down", latency}
			}
		}(node)
	}
	// nodeHealth is the per-node breakdown: the probe outcome plus how long
	// the probe took (a slow-but-alive node shows up here before it shows up
	// as failed attempts).
	type nodeHealth struct {
		Status      string  `json:"status"`
		ProbeMillis float64 `json:"probe_ms"`
	}
	nodes := make(map[string]nodeHealth, len(rt.cfg.Nodes))
	healthy := 0
	for range rt.cfg.Nodes {
		p := <-results
		nodes[p.node] = nodeHealth{Status: p.status, ProbeMillis: float64(p.latency.Microseconds()) / 1000}
		rt.noteProbe(p.node, p.status == "ok")
		if p.status == "ok" {
			healthy++
		}
	}
	status, code := "ok", http.StatusOK
	if healthy == 0 {
		status, code = "down", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status": status, "healthy": healthy, "nodes": nodes,
		"uptime_seconds": time.Since(rt.start).Seconds(),
	})
}

// noteProbe records a node's probed health and logs the state TRANSITION —
// up→down or down→up — exactly once per transition (the first observation
// logs too, establishing the baseline); repeat probes of an unchanged state
// are silent. The comparison and update are one critical section, so
// concurrent healthz requests cannot double-log a transition.
func (rt *Router) noteProbe(node string, up bool) {
	state := probeDown
	if up {
		state = probeUp
	}
	rt.mu.Lock()
	prev := rt.probeState[node]
	changed := prev != state
	rt.probeState[node] = state
	rt.mu.Unlock()
	if !changed {
		return
	}
	if up {
		rt.log.Info("node up", "node", node, "was_down", prev == probeDown)
	} else {
		rt.log.Warn("node down", "node", node, "was_up", prev == probeUp)
	}
}

// handleMetrics serves the router's own counters and latency histograms (node
// metrics live on the nodes). Emission order is deterministic: counters in
// declaration order, per-node families sorted by node URL, then the two
// histogram families — so scrapes diff cleanly.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "setcoverrt_requests_total %d\n", rt.requests.Load())
	fmt.Fprintf(w, "setcoverrt_retries_total %d\n", rt.retries.Load())
	fmt.Fprintf(w, "setcoverrt_exhausted_total %d\n", rt.exhausted.Load())
	fmt.Fprintf(w, "setcoverrt_mutations_total %d\n", rt.mutations.Load())
	fmt.Fprintf(w, "setcoverrt_digest_invalidations_total %d\n", rt.invalidations.Load())
	fmt.Fprintf(w, "setcoverrt_nodes %d\n", len(rt.cfg.Nodes))
	fmt.Fprintf(w, "setcoverrt_uptime_seconds %.3f\n", time.Since(rt.start).Seconds())
	nodes := make([]string, 0, len(rt.perNode))
	for n := range rt.perNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		fmt.Fprintf(w, "setcoverrt_routed_total{node=%q} %d\n", n, rt.perNode[n].Load())
	}
	rt.histSolve.Write(w, "setcoverrt_solve_seconds",
		"End-to-end relayed solve latency through the router (successful relays).")
	// One labeled family for per-node attempt latency: HELP/TYPE once, then
	// each node's buckets. Failed attempts are in here too — this family is
	// how failover cost (time burned on a dead node) is measured.
	obs.WriteHeader(w, "setcoverrt_attempt_seconds",
		"Per-node backend attempt latency, including failed attempts.")
	for _, n := range nodes {
		rt.histAttempt[n].WriteBuckets(w, "setcoverrt_attempt_seconds", fmt.Sprintf("node=%q", n))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: &apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// Request body caps, in bytes: the same as a node's, so the router answers
// an oversized body itself instead of spending a backend attempt on it.
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
	writeError(w, status, "bad_request", "reading body: %v", err)
	return nil, false
}
