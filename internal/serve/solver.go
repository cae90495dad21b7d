package serve

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/algos"
	"repro/internal/engine"
	"repro/internal/pd"
	"repro/internal/sample"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// pdElemBatch is the element-batch size of algo=pd solves. It is PINNED, not a
// request knob: the batch size changes the primal-dual's result, but the
// result-cache key carries only digest|algo|δ|p|ε|seed — a tunable batch would
// let two requests with the same key disagree. The CLI's -pd-batch stays free
// because the CLI has no cache. Same reasoning pins the mode to dedicated.
const pdElemBatch = 256

// EngineRequest is the optional per-request engine override: the solve-local
// counterpart of cmd/setcover's -workers/-batch/-no-segmented flags. All
// fields move wall-clock only; results are identical at every setting, which
// is why the result-cache key ignores this block.
type EngineRequest struct {
	Workers          int  `json:"workers,omitempty"`
	BatchSize        int  `json:"batch_size,omitempty"`
	DisableSegmented bool `json:"disable_segmented,omitempty"`
}

// WeightsRequest is the optional per-request weight assertion block: the
// client states what cost model it believes the instance carries, and a
// mismatch is a structured 400 before any queue slot is spent. It never
// changes the solve — the content digest already binds the weight section, so
// the result-cache key is untouched — it exists so a client that PRICED a
// request against one weight vector cannot silently solve against another
// (a re-registered file, a name pointing at new content).
type WeightsRequest struct {
	// Require asserts the instance carries per-set weights (true) or is
	// unweighted (false, only meaningful when the field is present).
	Require *bool `json:"require,omitempty"`
	// Min/Max assert bounds that every per-set weight must satisfy. Setting
	// either implies the instance must be weighted.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
}

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Instance names a catalog entry, by registration name or content digest.
	Instance string `json:"instance"`
	// Algo is a wire name of the algorithm table (internal/algos): iter,
	// greedy1, greedyn, threshold, sg09, er14, cw16, dimv14, pd or dyn
	// (default iter).
	Algo string `json:"algo,omitempty"`
	// Delta is the paper's δ for iter/dimv14 (default 0.5): 2/δ passes,
	// Õ(m·n^δ) space.
	Delta float64 `json:"delta,omitempty"`
	// Passes is the pass budget for cw16 (default 2).
	Passes int `json:"passes,omitempty"`
	// Eps switches the supporting algorithms to ε-Partial Set Cover. For
	// algo=pd it is the dual increment instead (0 means pd's default): both
	// readings live in [0,1) and both change the result, so one wire field
	// and one cache-key slot cover both.
	Eps float64 `json:"eps,omitempty"`
	// Resolve selects how an algo=dyn solve is produced: "full" (or empty,
	// the default) ingests the instance from its stream and solves from
	// scratch; "delta" reuses the instance's maintained incremental solver —
	// only valid on dynamic instances — catching its state up from the last
	// solved generation by replaying the delta records, with no stream pass
	// at all when the state is warm. The two modes return byte-identical
	// covers (the conformance suite pins this) but are cached under distinct
	// keys: their Passes/SpaceWords accounting legitimately differs.
	Resolve string `json:"resolve,omitempty"`
	// Weights optionally asserts the instance's cost model (see
	// WeightsRequest); a mismatch is a 400.
	Weights *WeightsRequest `json:"weights,omitempty"`
	// Seed drives all randomness (default 1); solves are deterministic
	// given the seed, which is what makes result caching sound.
	Seed *int64 `json:"seed,omitempty"`
	// Engine optionally overrides the server's per-solve engine options.
	Engine *EngineRequest `json:"engine,omitempty"`
	// Wait: true (default) blocks until the solve finishes and returns the
	// result; false returns 202 with the job id immediately (poll
	// /v1/jobs/{id}). A cache hit is answered 200 "done" with the result
	// inline even at wait:false — no job exists, so job_id is omitted;
	// async clients must branch on status before polling.
	Wait *bool `json:"wait,omitempty"`
	// Stream: when true, a successful solve is answered as chunked NDJSON —
	// an envelope line (status + stats, no cover), then the cover in chunk
	// lines, then an eof trailer — instead of one buffered JSON body, so a
	// multi-million-set cover streams to the client without the server
	// materializing its JSON encoding. Errors keep their normal one-object
	// envelope and status code. Requires wait (the default); stream with
	// wait:false is a 400.
	Stream bool `json:"stream,omitempty"`
	// Trace: when true, the response envelope carries a SolveTrace — phase
	// timings (queue wait, cache lookup, repo checkout, solve) and the
	// per-pass engine breakdown. Purely observational: it is NOT part of the
	// result-cache key (a traced and an untraced request for the same solve
	// coalesce and hit the same cache row) and timings are never cached —
	// the trace describes THIS response's path, the result describes the
	// solve, and only the latter is subject to the determinism contract.
	Trace bool `json:"trace,omitempty"`
}

// SolveTrace is the wire form of one response's timing breakdown, returned
// in the envelope (outside the cached SolveResult payload) when the request
// sets trace:true. A freshly-solved response carries every phase; a cache
// hit carries only lookup and total (no solve ran on this path); a
// coalesced response carries the shared solve's phases with this client's
// own request id and total.
type SolveTrace struct {
	RequestID string `json:"request_id,omitempty"`
	// QueueMillis is how long the job waited for a concurrency slot.
	QueueMillis float64 `json:"queue_ms"`
	// LookupMillis is the result-cache lookup (memory + disk tier).
	LookupMillis float64 `json:"lookup_ms"`
	// CheckoutMillis is acquiring the instance's repository handle.
	CheckoutMillis float64 `json:"checkout_ms"`
	// SolveMillis is the algorithm execution (checkout included).
	SolveMillis float64 `json:"solve_ms"`
	// TotalMillis is this response's end-to-end handler time.
	TotalMillis float64 `json:"total_ms"`
	// Passes is the engine's per-pass breakdown, in execution order.
	Passes []PassTraceView `json:"passes,omitempty"`
}

// PassTraceView is the wire form of one engine pass trace (obs.PassTrace).
type PassTraceView struct {
	Index      int     `json:"index"`
	Kind       string  `json:"kind"`
	Items      int     `json:"items"`
	Skipped    int     `json:"skipped,omitempty"`
	Elems      int64   `json:"elems,omitempty"`
	Bytes      int64   `json:"bytes,omitempty"`
	Segmented  bool    `json:"segmented,omitempty"`
	Workers    int     `json:"workers"`
	BatchSize  int     `json:"batch_size"`
	WallMillis float64 `json:"wall_ms"`
	Error      string  `json:"error,omitempty"`
}

// normalize applies the table's shared defaults in place, the ones the CLI
// flags default to, so a service solve is byte-identical to a CLI solve of
// the same request.
func (r *SolveRequest) normalize() {
	if r.Algo == "" {
		r.Algo = algos.DefaultAlgo
	}
	if r.Delta == 0 {
		r.Delta = algos.DefaultDelta
	}
	if r.Passes == 0 {
		r.Passes = algos.DefaultPasses
	}
	if r.Seed == nil {
		s := int64(algos.DefaultSeed)
		r.Seed = &s
	}
}

// Hard request bounds. The solver itself would run with anything — these
// exist so one request cannot commit the service to an absurd amount of work
// (a 10^9-pass cw16 budget) or an absurd per-solve allocation (a gigabyte
// batch): out-of-range values are a client error, answered 400 before any
// queue slot is spent.
const (
	// maxPassBudget bounds cw16's pass budget: passes beyond ~log n add
	// nothing to the guarantee, so a budget this high is a client bug.
	maxPassBudget = 64
	// maxEngineWorkers bounds the per-solve decode parallelism request.
	maxEngineWorkers = 256
	// maxEngineBatch bounds the per-solve batch size (sets per batch).
	maxEngineBatch = 1 << 20
)

// validate rejects malformed parameters before any queue slot is spent.
func (r *SolveRequest) validate() error {
	if r.Instance == "" {
		return errors.New("missing instance")
	}
	if _, ok := algos.Lookup(r.Algo); !ok {
		return fmt.Errorf("unknown algo %q (want one of %v)", r.Algo, algos.Names())
	}
	if _, err := sample.Iterations(r.Delta); err != nil {
		return err
	}
	if r.Passes < 1 {
		return fmt.Errorf("passes %d < 1", r.Passes)
	}
	if r.Passes > maxPassBudget {
		return fmt.Errorf("passes %d exceeds limit %d", r.Passes, maxPassBudget)
	}
	if !(r.Eps >= 0 && r.Eps < 1) {
		return fmt.Errorf("eps %v out of [0,1)", r.Eps)
	}
	if e := r.Engine; e != nil {
		if e.Workers < 0 || e.Workers > maxEngineWorkers {
			return fmt.Errorf("engine.workers %d out of [0,%d]", e.Workers, maxEngineWorkers)
		}
		if e.BatchSize < 0 || e.BatchSize > maxEngineBatch {
			return fmt.Errorf("engine.batch_size %d out of [0,%d]", e.BatchSize, maxEngineBatch)
		}
	}
	if r.Stream && !r.wait() {
		return errors.New("stream:true requires wait:true (a 202 job handle has no body to stream)")
	}
	switch r.Resolve {
	case "", "full":
	case "delta":
		if r.Algo != "dyn" {
			return fmt.Errorf("resolve:delta requires algo:dyn (got %q)", r.Algo)
		}
	default:
		return fmt.Errorf("unknown resolve %q (want full or delta)", r.Resolve)
	}
	if wr := r.Weights; wr != nil {
		if wr.Min != nil && (!(*wr.Min > 0) || *wr.Min > math.MaxFloat64) {
			return fmt.Errorf("weights.min %v not a finite positive cost", *wr.Min)
		}
		if wr.Max != nil && (!(*wr.Max > 0) || *wr.Max > math.MaxFloat64) {
			return fmt.Errorf("weights.max %v not a finite positive cost", *wr.Max)
		}
		if wr.Min != nil && wr.Max != nil && *wr.Min > *wr.Max {
			return fmt.Errorf("weights.min %v > weights.max %v", *wr.Min, *wr.Max)
		}
		if wr.Require != nil && !*wr.Require && (wr.Min != nil || wr.Max != nil) {
			return errors.New("weights.require:false contradicts weights.min/max (bounds assert a weighted instance)")
		}
	}
	return nil
}

// checkWeights enforces the request's weight assertion block against the
// instance's registered weight metadata. Runs after catalog resolution (it
// needs the instance) but still before admission: a mismatch is a client
// error, answered 400 with no queue slot spent.
func (r *SolveRequest) checkWeights(inst *Instance) error {
	wr := r.Weights
	if wr == nil {
		return nil
	}
	mustWeighted := wr.Min != nil || wr.Max != nil || (wr.Require != nil && *wr.Require)
	if wr.Require != nil && !*wr.Require && inst.Weighted {
		return fmt.Errorf("instance %q carries per-set weights but the request asserts weights.require:false", inst.Name)
	}
	if mustWeighted && !inst.Weighted {
		return fmt.Errorf("instance %q is unweighted but the request asserts a weighted cost model", inst.Name)
	}
	if wr.Min != nil && inst.WeightMin < *wr.Min {
		return fmt.Errorf("instance %q has a weight %v below the asserted weights.min %v",
			inst.Name, inst.WeightMin, *wr.Min)
	}
	if wr.Max != nil && inst.WeightMax > *wr.Max {
		return fmt.Errorf("instance %q has a weight %v above the asserted weights.max %v",
			inst.Name, inst.WeightMax, *wr.Max)
	}
	return nil
}

// wait reports whether the request is synchronous (the default).
func (r *SolveRequest) wait() bool { return r.Wait == nil || *r.Wait }

// streaming reports whether a successful response should be chunked NDJSON.
func (r *SolveRequest) streaming() bool { return r.Stream }

// cacheKey is the result-cache key: everything that determines the solve's
// RESULT — instance content, algorithm, δ, p, ε, seed — and nothing that only
// moves wall-clock (engine options). Unused parameters are included anyway
// (δ for greedy1, say): keys stay cheap to build and a few redundant cache
// rows are harmless.
func (r *SolveRequest) cacheKey(digest string) string {
	key := fmt.Sprintf("%s|%s|d=%g|p=%d|e=%g|s=%d", digest, r.Algo, r.Delta, r.Passes, r.Eps, *r.Seed)
	// Delta re-solves return the same COVER as full ones but different
	// accounting (Passes, SpaceWords), so they get their own cache rows; the
	// bare key keeps its historical format for every pre-existing mode.
	if r.deltaResolve() {
		key += "|r=delta"
	}
	return key
}

// deltaResolve reports whether the request asks for the incremental path.
func (r *SolveRequest) deltaResolve() bool { return r.Resolve == "delta" }

// SolveResult is the per-solve stats snapshot returned in responses: the
// cover plus the coordinates the paper's Figure 1.1 measures algorithms by
// (passes, space high-water) and the serving-layer wall time.
type SolveResult struct {
	Algorithm string `json:"algorithm"`
	Cover     []int  `json:"cover"`
	CoverSize int    `json:"cover_size"`
	// Valid certifies the coverage goal (full, or 1-ε for partial solves),
	// as verified by the algorithm itself.
	Valid bool `json:"valid"`
	// Passes is the number of sequential scans the solve spent.
	Passes int `json:"passes"`
	// SpaceWords is the peak working memory charged, in 64-bit words.
	SpaceWords int64 `json:"space_words"`
	// BestK is iter's winning guess of the optimum (0 for other algorithms).
	BestK int `json:"best_k,omitempty"`
	// WallMillis is the wall time of the ORIGINAL solve; cache hits return
	// the original's value (the response envelope marks them cached).
	WallMillis float64 `json:"wall_ms"`
	// CoverWeight is the total per-set cost of the cover on weighted
	// instances; omitted (zero) on unweighted ones, where cover_size is the
	// cost.
	CoverWeight float64 `json:"cover_weight,omitempty"`
}

// runSolve executes one admitted solve: fresh repository, the table entry's
// solve, snapshot.
// checkout reports how long acquiring the repository handle took (pool reuse
// vs a cold file open) — a trace-only measurement.
func runSolve(inst *Instance, req *SolveRequest, engOpts engine.Options) (*SolveResult, time.Duration, error) {
	if req.deltaResolve() {
		return runDeltaSolve(inst, engOpts)
	}
	checkoutStart := time.Now()
	repo, release, err := inst.Open()
	if err != nil {
		return nil, 0, fmt.Errorf("open instance %q: %w", inst.Name, err)
	}
	checkout := time.Since(checkoutStart)
	defer release()

	start := time.Now()
	e, ok := algos.Lookup(req.Algo)
	if !ok {
		return nil, checkout, fmt.Errorf("unknown algo %q", req.Algo) // unreachable after validate
	}
	// Dedicated mode and pdElemBatch are pinned (see the const); for pd, eps
	// is the dual increment, with 0 meaning pd's own default.
	res, err := e.Solve(repo, algos.Params{
		Delta: req.Delta, Eps: req.Eps, Passes: req.Passes, Seed: *req.Seed,
		PD: pd.Options{Epsilon: req.Eps, ElemBatch: pdElemBatch}, Engine: engOpts,
	})
	if err != nil {
		return nil, checkout, err
	}
	st := res.Stats
	cover := st.Cover
	if cover == nil {
		cover = []int{} // JSON: [] rather than null
	}
	var coverWeight float64
	if stream.HasWeights(repo) {
		coverWeight = stream.CoverWeight(repo, st.Cover)
	}
	return &SolveResult{
		Algorithm:   st.Algorithm,
		Cover:       cover,
		CoverSize:   len(st.Cover),
		Valid:       st.Valid,
		Passes:      st.Passes,
		SpaceWords:  st.SpaceWords,
		BestK:       res.BestK,
		WallMillis:  float64(time.Since(start).Microseconds()) / 1000,
		CoverWeight: coverWeight,
	}, checkout, nil
}

// runDeltaSolve answers an algo=dyn resolve:delta request from the dynamic
// instance's maintained solver, pinned to the instance's generation: warm
// state replays only the delta records (zero stream passes), cold state
// falls back to one ingest pass. No repository checkout happens — the solver
// owns its mirror — so checkout is reported as zero.
func runDeltaSolve(inst *Instance, engOpts engine.Options) (*SolveResult, time.Duration, error) {
	if inst.dyn == nil {
		return nil, 0, fmt.Errorf("resolve:delta on non-dynamic instance %q (kind %q)", inst.Name, inst.Kind)
	}
	start := time.Now()
	st, _, err := inst.dyn.solver.EnsureAt(inst.Generation, engOpts)
	if err != nil {
		return nil, 0, err
	}
	cover := st.Cover
	if cover == nil {
		cover = []int{}
	}
	return &SolveResult{
		Algorithm:  st.Algorithm,
		Cover:      cover,
		CoverSize:  len(st.Cover),
		Valid:      st.Valid,
		Passes:     st.Passes,
		SpaceWords: st.SpaceWords,
		WallMillis: float64(time.Since(start).Microseconds()) / 1000,
	}, 0, nil
}

// classify maps a solve error to (HTTP status, error code): infeasibility is
// a property of the input (422), a failed pass or a file changed since
// registration is bad storage behind the service (502), anything else is a
// server-side solver fault (500).
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, setcover.ErrInfeasible):
		return 422, CodeInfeasible
	case errors.Is(err, pd.ErrDualStall):
		return 422, CodeDualStall
	case errors.Is(err, engine.ErrPassFailed), errors.Is(err, errFileChanged):
		return 502, CodePassFailed
	default:
		return 500, CodeSolveFailed
	}
}
