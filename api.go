// Package streamsetcover is a from-scratch Go implementation of
// "Towards Tight Bounds for the Streaming Set Cover Problem"
// (Har-Peled, Indyk, Mahabadi, Vakilian — PODS 2016).
//
// It provides:
//
//   - IterSetCover — the paper's main algorithm (Theorem 2.8): 2/δ passes,
//     Õ(m·n^δ) space, O(ρ/δ)-approximation;
//   - AlgGeomSC — the geometric variant for points/disks/rectangles/fat
//     triangles (Theorem 4.6): O(1) passes, Õ(n) space;
//   - every baseline from the paper's Figure 1.1 (greedy in one or n passes,
//     SG09 thresholding, Emek–Rosén, Chakrabarti–Wirth, DIMV14 sampling);
//   - executable versions of the paper's lower-bound constructions
//     (Sections 3, 5, 6) in repro/internal/comm;
//   - instance generators, a pass-counting stream model, and explicit space
//     accounting so the paper's pass/space/approximation trade-offs are
//     measurable;
//   - a shared pass engine (internal/engine) under EVERY streaming
//     algorithm — IterSetCover, the Figure 1.1 baselines, the max-k-cover
//     primitives, the geometric AlgGeomSC (through the engine's generic
//     element-type support), and the communication-protocol simulation:
//     one physical pass per scan, batched delivery, the paper's "parallel
//     guesses" (Lemma 2.1) running as actual goroutines, and segmented
//     parallel decode of the stream itself on capable repositories — tune
//     it with Options.Engine / GeomOptions.Engine (EngineOptions) or the
//     EngineOptions argument of the baselines and max-cover entry points.
//     Passes that fail mid-stream (truncated or corrupt storage, or a
//     stream that silently ends short) surface as errors from every solve
//     entry point, never as covers built from a partial scan.
//
// Quick start:
//
//	in, _, opt, _ := streamsetcover.Planted(streamsetcover.PlantedConfig{
//		N: 1000, M: 2000, K: 20, Seed: 1,
//	})
//	repo := streamsetcover.NewRepository(in)
//	res, err := streamsetcover.IterSetCover(repo, streamsetcover.Options{
//		Delta: 0.5, Seed: 1,
//	})
//	// res.Cover is a verified cover; res.Passes == 4; res.SpaceWords is the
//	// peak working memory in 64-bit words.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured reproduction results.
package streamsetcover

import (
	"io"

	"repro/internal/baseline"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/maxcover"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/pd"
	"repro/internal/scdisk"
	"repro/internal/scdyn"
	"repro/internal/serve"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// Core problem types.
type (
	// Instance is a SetCover input: N elements and a family of sets.
	Instance = setcover.Instance
	// Set is one set of the family.
	Set = setcover.Set
	// Elem indexes an element of the universe.
	Elem = setcover.Elem
	// Stats is the (cover, passes, space, validity) report all algorithms
	// return.
	Stats = setcover.Stats
)

// Streaming model.
type (
	// Repository is the read-only, pass-counted set stream.
	Repository = stream.Repository
	// SliceRepo is the standard in-memory repository.
	SliceRepo = stream.SliceRepo
	// FuncRepo streams generator-produced sets with no backing slice.
	FuncRepo = stream.FuncRepo
	// DiskRepo is the out-of-core repository: sets stream straight off an
	// SCB1 file (see DESIGN.md §6), so instances larger than memory run
	// through every algorithm unmodified. Open one with OpenFile.
	DiskRepo = scdisk.Repo
	// Tracker meters working memory in 64-bit words. Safe for concurrent
	// use: the pass engine charges it from several workers at once.
	Tracker = stream.Tracker

	// EngineOptions tunes the shared pass executor (internal/engine, see
	// DESIGN.md §5) that fans each physical pass out to the algorithm's
	// observers: Workers goroutines (default GOMAXPROCS) consuming batches
	// of BatchSize sets (default engine.DefaultBatchSize). With Workers > 1
	// the stream itself is also DECODED in parallel when the repository
	// supports it (indexed SCB1 files and FuncRepo generators): the pass
	// splits into contiguous chunks decoded on separate goroutines and
	// reassembled in stream order, so the CPU-bound varint decode of a disk
	// pass scales with cores (DisableSegmented opts out). Set it on
	// Options.Engine. Results, pass counts, and space accounting are
	// identical for every setting — it is purely a wall-clock knob.
	EngineOptions = engine.Options
)

// NewRepository wraps an instance as a pass-counted stream.
func NewRepository(in *Instance) *SliceRepo { return stream.NewSliceRepo(in) }

// NewFuncRepository builds a repository of m generator-produced sets over n
// elements; gen(id) must return set id with freshly allocated sorted-unique
// elements (see stream.NewFuncRepo for the full contract).
func NewFuncRepository(n, m int, gen func(id int) Set) *FuncRepo {
	return stream.NewFuncRepo(n, m, gen)
}

// NewSequentialFuncRepository is NewFuncRepository for generators that are
// NOT safe for concurrent calls (stateful closures): the repository opts out
// of segmented decode, so the pass engine drives gen from a single goroutine
// at every worker count, and a runtime guard panics loudly if gen is entered
// concurrently anyway. Use it when the generator reads from an external
// iterator or mutates shared scratch state.
func NewSequentialFuncRepository(n, m int, gen func(id int) Set) *FuncRepo {
	return stream.NewSequentialFuncRepo(n, m, gen)
}

// OpenFile opens an SCB1 instance file (plain or with the scdisk index
// footer) as a disk-backed repository. Every algorithm in this package runs
// against it unmodified, holding O(BatchSize · avg-set-size) decoded sets
// live instead of the whole family; on indexed files with Workers > 1 the
// pass engine decodes each pass on several goroutines (segmented decode).
// Close it when done. A truncated or corrupt file fails loudly: the solve
// entry points and VerifyCover return the decode error of the pass that hit it.
func OpenFile(path string, opts ...OpenOption) (*DiskRepo, error) {
	return scdisk.Open(path, opts...)
}

// OpenOption configures OpenFile.
type OpenOption = scdisk.OpenOption

// ReadOnlyMmap asks OpenFile to memory-map the instance read-only and decode
// sets straight from the mapping, dropping the positional-read syscalls and
// buffer copies from every pass. Purely a wall-clock knob: streams, covers,
// and space accounting are identical to the default backend. On platforms
// without mmap support (or if mapping fails) OpenFile silently falls back to
// positional reads; DiskRepo.Mapped reports which backend is live.
func ReadOnlyMmap() OpenOption { return scdisk.ReadOnlyMmap() }

// InstanceWriter streams an instance to the indexed SCB1 format set by set
// (NewInstanceWriter, then exactly m WriteSet calls, then Close), so
// generators can emit families larger than RAM.
type InstanceWriter = scdisk.Writer

// NewInstanceWriter writes the SCB1 header for n elements and m sets and
// returns the streaming writer.
func NewInstanceWriter(w io.Writer, n, m int) (*InstanceWriter, error) {
	return scdisk.NewWriter(w, n, m)
}

// WriteInstanceFile writes a materialized instance to path in the indexed
// SCB1 format understood by OpenFile (and by ReadInstanceBinary, which
// ignores the index).
var WriteInstanceFile = scdisk.WriteFile

// VerifyCover spends one extra pass over the repository and reports how many
// elements of U the given set IDs cover. It is the streaming counterpart of
// Instance.CoverageOf for backends with no materialized instance; the pass is
// charged to the repository's counter like any other. It runs through the
// pass engine configured by opts (the zero value means engine defaults) —
// disk-backed repositories verify on the batched, buffer-recycling,
// segmented-decode path, and opts.DisableSegmented pins the verify pass to
// the single-reader path along with everything else. A non-nil error means
// the pass failed mid-stream (truncated or corrupt file): the counts are
// from a partial scan and must not be trusted as a verification.
func VerifyCover(repo Repository, cover []int, opts EngineOptions) (covered, n int, err error) {
	n = repo.UniverseSize()
	chosen := make(map[int]bool, len(cover))
	for _, id := range cover {
		chosen[id] = true
	}
	seen := bitset.New(n)
	err = engine.New(opts).Run(repo, engine.Func(func(batch []Set) {
		for _, s := range batch {
			if chosen[s.ID] {
				for _, e := range s.Elems {
					seen.Set(int(e))
				}
			}
		}
	}))
	return seen.Count(), n, err
}

// The main algorithm (Figure 1.3 / Theorem 2.8).
type (
	// Options configures IterSetCover.
	Options = core.Options
	// Result is IterSetCover's extended report.
	Result = core.Result
)

// IterSetCover runs the paper's main streaming algorithm.
func IterSetCover(repo Repository, opts Options) (Result, error) {
	return core.IterSetCover(repo, opts)
}

// DefaultOptions returns Theorem 2.8 defaults (δ = 1/2, greedy offline).
func DefaultOptions() Options { return core.DefaultOptions() }

// Offline solvers (algOfflineSC).
type (
	// OfflineSolver solves in-memory SetCover instances.
	OfflineSolver = offline.Solver
	// GreedySolver is the ln(n)-approximate greedy (ρ = ln n).
	GreedySolver = offline.Greedy
	// ExactSolver is the optimal branch-and-bound (ρ = 1).
	ExactSolver = offline.Exact
	// ReducedInstance is the outcome of the dominance preprocessing.
	ReducedInstance = offline.Reduced
)

// Reduce applies OPT-preserving dominance reductions (set and element
// dominance, to a fixpoint). Useful as a preprocessing step before exact
// solving or before persisting instances.
var Reduce = offline.Reduce

// OptSize returns the exact optimum of an in-memory instance (ground truth
// for ratio reporting; exponential worst case).
var OptSize = offline.OptSize

// Baselines (the upper-bound rows of Figure 1.1). Every baseline takes an
// EngineOptions value configuring the pass executor for that call alone, so
// concurrent solves can run with different configurations (internal/serve
// does). The zero value means engine defaults (GOMAXPROCS workers). On
// repositories carrying per-set costs (see
// OpenFile and InstanceWriter.SetWeights) every baseline generalizes its
// pick rule from coverage to cost-effectiveness; unit weights reduce
// byte-identically to the unweighted behavior.
var (
	// OnePassGreedy stores the input in one pass and runs greedy: O(mn) space.
	OnePassGreedy = baseline.OnePassGreedy
	// MultiPassGreedy runs greedy with O(n) space and one pass per pick.
	MultiPassGreedy = baseline.MultiPassGreedy
	// ThresholdGreedy is the SG09-style O(log n)-pass thresholding greedy.
	ThresholdGreedy = baseline.ThresholdGreedy
	// EmekRosen is the ER14 one-pass O(√n)-approximation.
	EmekRosen = baseline.EmekRosen
	// ChakrabartiWirth is the CW16 p-pass thresholding algorithm.
	ChakrabartiWirth = baseline.ChakrabartiWirth
	// DIMV14 is the element-sampling baseline (exponentially more passes at
	// the same space as IterSetCover).
	DIMV14 = baseline.DIMV14
	// SahaGetoorSetCover is the faithful [SG09] algorithm: SetCover via
	// repeated one-pass Max k-Cover. Like the baselines it takes an
	// EngineOptions value for this call alone.
	SahaGetoorSetCover = maxcover.SahaGetoorSetCover

	// Partial (ε-Partial Set Cover) variants: cover at least a (1-ε)
	// fraction of U.
	EmekRosenPartial        = baseline.EmekRosenPartial
	ChakrabartiWirthPartial = baseline.ChakrabartiWirthPartial
	ThresholdGreedyPartial  = baseline.ThresholdGreedyPartial
	MultiPassGreedyPartial  = baseline.MultiPassGreedyPartial

	// Max k-Cover primitives ([SG09]'s building block). The streaming
	// variant takes an EngineOptions value per call.
	MaxKCoverGreedy    = maxcover.Greedy
	MaxKCoverStreaming = maxcover.Streaming
)

// MaxKCoverResult reports a Max k-Cover solution.
type MaxKCoverResult = maxcover.Result

// DIMV14Options configures the DIMV14 baseline.
type DIMV14Options = baseline.DIMV14Options

// Weighted SetCover. Per-set costs enter the system in one of three ways — an
// Instance.Weights vector, an SCWT weight section in an SCB1 file (written by
// InstanceWriter.SetWeights, picked up transparently by OpenFile), or
// FuncRepo.SetWeightFunc — and every algorithm consumes them through the same
// repository capability (stream.Weighted): the baselines and IterSetCover
// generalize greedy's pick rule to cost-effectiveness, and BatchedPrimalDual
// scales its dual thresholds by cost. Repositories without weights behave as
// all-ones, byte-identically to the unweighted code paths.
type (
	// PDOptions configures BatchedPrimalDual (mode, ε, element-batch size,
	// engine).
	PDOptions = pd.Options
	// PDResult is BatchedPrimalDual's extended report (batches, dual-update
	// rounds, max frequency, cover cost).
	PDResult = pd.Result
	// PDMode selects how the primal-dual reveals the universe: dedicated
	// batches or one element at a time.
	PDMode = pd.Mode
)

// Primal-dual modes and defaults.
const (
	PDModeDedicated = pd.ModeDedicated
	PDModeTrivial   = pd.ModeTrivial
)

var (
	// BatchedPrimalDual runs the batched primal-dual algorithm: per element
	// batch, one repository pass gathers incidence, then duals rise
	// simultaneously until the batch is fractionally covered; frequency
	// rounding yields the integral cover. f-approximate on weighted and
	// unweighted repositories alike.
	BatchedPrimalDual = pd.BatchedPrimalDual
	// ParsePDMode parses "dedicated" or "trivial" (the -pd-mode flag surface).
	ParsePDMode = pd.ParseMode

	// RepositoryHasWeights reports whether the repository carries per-set
	// costs.
	RepositoryHasWeights = stream.HasWeights
	// WeightOf returns repo's cost for one set (1 on unweighted
	// repositories).
	WeightOf = stream.WeightOf
	// CoverWeight sums repo's costs over a cover (its cardinality on
	// unweighted repositories).
	CoverWeight = stream.CoverWeight

	// ValidateWeights rejects weight vectors with NaN, ±Inf, zero, or
	// negative entries (the shared trust-boundary check).
	ValidateWeights = setcover.ValidateWeights
)

// Geometric setting (Section 4).
type (
	// Point is a point in the plane.
	Point = geom.Point
	// Shape is a disk, axis-parallel rectangle, or triangle.
	Shape = geom.Shape
	// Disk is a closed disk.
	Disk = geom.Disk
	// Rect is a closed axis-parallel rectangle.
	Rect = geom.Rect
	// Triangle is a closed triangle.
	Triangle = geom.Triangle
	// GeomInstance is a points-and-shapes SetCover input.
	GeomInstance = geom.Instance
	// GeomOptions configures AlgGeomSC.
	GeomOptions = geom.GeomOptions
	// GeomResult is AlgGeomSC's extended report.
	GeomResult = geom.GeomResult
	// ShapeRepo streams shapes with pass counting.
	ShapeRepo = geom.ShapeRepo
	// ShapeStream is the pass-counted shape-stream capability AlgGeomSC
	// solves over: the pass engine's Source of streamed shapes plus the
	// in-memory point set. ShapeRepo is the standard implementation. It
	// exists as an interface so storage layers (and failure injectors) can
	// provide their own shape streams.
	ShapeStream = geom.ShapeStream
)

// NewShapeRepo wraps a geometric instance as a shape stream.
func NewShapeRepo(in *GeomInstance) *ShapeRepo { return geom.NewShapeRepo(in) }

// AlgGeomSC runs the geometric streaming algorithm (Figure 4.1) over a
// shape stream. Its passes run on the shared pass engine
// (GeomOptions.Engine): results are identical at every engine setting, and
// a shape pass that cannot be fully drained fails the solve with an error
// wrapping the engine's pass-failure sentinel instead of returning a cover
// of a partial stream.
func AlgGeomSC(repo ShapeStream, opts GeomOptions) (GeomResult, error) {
	return geom.AlgGeomSC(repo, opts)
}

// Generators.
type (
	PlantedConfig = gen.PlantedConfig
	// WeightedConfig parameterizes WeightedFunc/WeightedSlice (cost
	// distribution, bounds, seed).
	WeightedConfig = gen.WeightedConfig
	// WeightKind selects the cost distribution (unit, uniform, log-uniform).
	WeightKind = gen.WeightKind
	// VCWorstCaseConfig parameterizes VCWorstCase (stream length, VC dim).
	VCWorstCaseConfig = gen.VCWorstCaseConfig
)

var (
	// Planted builds an instance whose optimum is K by construction.
	Planted = gen.Planted
	// PlantedFunc is the out-of-core Planted: a deterministic per-set
	// generator (for NewFuncRepository or InstanceWriter) that never
	// materializes the family.
	PlantedFunc = gen.PlantedFunc
	// Uniform builds an instance with i.i.d. random sets, patched coverable.
	Uniform = gen.Uniform
	// Sparse builds an s-sparse instance (Section 6's regime).
	Sparse = gen.Sparse
	// GreedyTrap builds the classic Θ(log n)-gap greedy instance.
	GreedyTrap = gen.GreedyTrap
	// PlantedDisks builds a geometric instance covered by k planted disks.
	PlantedDisks = geom.PlantedDisks
	// PlantedRects builds a geometric instance covered by grid rectangles.
	PlantedRects = geom.PlantedRects
	// PlantedTriangles builds a geometric instance covered by fat triangles.
	PlantedTriangles = geom.PlantedTriangles
	// Figure12 builds the paper's quadratic-rectangles construction.
	Figure12 = geom.Figure12
	// WeightedFunc returns a deterministic pure per-set cost function (the
	// weight-side PlantedFunc); WeightedSlice materializes it as a vector.
	WeightedFunc  = gen.WeightedFunc
	WeightedSlice = gen.WeightedSlice
	// ParseWeightSpec parses "unit", "uniform:LO:HI", or "loguniform:LO:HI"
	// (the -weights flag surface; fill M and Seed on the result).
	ParseWeightSpec = gen.ParseWeightSpec
	// VCWorstCase builds the bounded-VC-dimension adversarial family with
	// OPT = 1 (experiment E19's instance).
	VCWorstCase = gen.VCWorstCase
)

// Instance serialization: a human-readable text format and a compact
// varint binary format.
var (
	ReadInstance        = setcover.Read
	WriteInstance       = setcover.Write
	ReadInstanceBinary  = setcover.ReadBinary
	WriteInstanceBinary = setcover.WriteBinary
)

// Serving layer (internal/serve, DESIGN.md §7): the concurrent solver
// service behind cmd/setcoverd. A Catalog registers SCB1 files, static or
// mutable, under content digests computed once at registration; a Server
// exposes them over an HTTP JSON API (POST /v1/solve, GET /v1/instances,
// GET /v1/jobs/{id}, /healthz, /metrics) with a bounded solve queue (429
// backpressure), an LRU result cache keyed by (instance digest, algorithm,
// δ, p, ε, seed), per-solve engine configuration so concurrent solves share
// the machine, and graceful shutdown that drains in-flight passes. Served
// covers are byte-identical to library (and cmd/setcover) solves of the same
// parameters.
type (
	// Server is the HTTP solver service over a Catalog.
	Server = serve.Server
	// ServerConfig tunes concurrency, queue depth, cache size, and the
	// default per-solve engine options.
	ServerConfig = serve.Config
	// Catalog is the registry of solvable instances.
	Catalog = serve.Catalog
	// CatalogInstance is one registered instance (name, digest, dims).
	CatalogInstance = serve.Instance
	// SolveRequest is the body of POST /v1/solve.
	SolveRequest = serve.SolveRequest
	// SolveEngineRequest is the per-request (or server-default) engine
	// override block: the wire form of EngineOptions.
	SolveEngineRequest = serve.EngineRequest
	// SolveResult is the per-solve stats snapshot (cover, passes, space
	// high-water, wall time) returned in responses.
	SolveResult = serve.SolveResult
)

var (
	// NewCatalog returns an empty instance catalog.
	NewCatalog = serve.NewCatalog
	// NewServer builds a solver service over a catalog.
	NewServer = serve.NewServer
)

// DefaultSolveQueue is a reasonable solve-queue depth for daemon deployments
// (cmd/setcoverd's -queue default). ServerConfig.MaxQueue itself is literal:
// 0 means no waiting room.
const DefaultSolveQueue = serve.DefaultMaxQueue

// Fleet layer (internal/fleet, DESIGN.md §8): the digest-routing HTTP router
// behind cmd/setcoverrt. A FleetRouter spreads POST /v1/solve across N
// setcoverd nodes by instance content digest (rendezvous hashing — sticky
// while a node lives, minimal remapping when membership changes), retries
// dead or draining nodes down the rendezvous order, and relays everything
// else verbatim. Point every node's ServerConfig.CacheDir at one shared
// directory and solved covers persist and replicate fleet-wide; the
// determinism contract is what makes any node's answer — cached or computed —
// byte-identical to any other's.
type (
	// FleetRouter routes solve traffic across a static fleet of nodes.
	FleetRouter = fleet.Router
	// FleetConfig tunes a FleetRouter (node list, retry bounds, timeouts).
	FleetConfig = fleet.Config
)

// NewFleetRouter builds a router over cfg.Nodes.
var NewFleetRouter = fleet.NewRouter

// DefaultFleetAttemptTimeout is FleetConfig's default per-node attempt budget
// (headers, not body: a streamed cover may relay for longer).
const DefaultFleetAttemptTimeout = fleet.DefaultAttemptTimeout

// FleetNodeHeader is the response header naming the backend node that
// produced a routed response.
const FleetNodeHeader = fleet.NodeHeader

// Observability (internal/obs, DESIGN.md §10): read-only pass tracing for
// the engine, and the request-correlation header the serving and fleet
// layers propagate. Set EngineOptions.Tracer to receive one PassTrace per
// completed pass — tracing never alters covers, pass counts, or space (the
// conformance suites pin traced and untraced solves byte-identical).
type (
	// PassTrace is one completed engine pass: what ran, how much data it
	// touched, how long it took.
	PassTrace = obs.PassTrace
	// Tracer receives a PassTrace after each pass. Implementations must be
	// safe for concurrent use when an engine is shared.
	Tracer = obs.Tracer
	// TracerFunc adapts a function to the Tracer interface.
	TracerFunc = obs.TracerFunc
	// TraceRecorder is a Tracer that appends every PassTrace to a slice —
	// the test and benchmark workhorse.
	TraceRecorder = obs.Recorder
	// SolveTrace is the phase-timing breakdown a {"trace":true} solve
	// request gets back in its response envelope (never cached).
	SolveTrace = serve.SolveTrace
)

// RequestIDHeader is the correlation header ("X-Request-ID") honored and
// echoed by setcoverd and minted/propagated by setcoverrt, so one id joins
// client, router, backend log line, and job view.
const RequestIDHeader = obs.RequestIDHeader

// Dynamic instances (internal/scdyn, DESIGN.md §11): a mutable repository
// over an SCB1 base file plus an additive delta log (append set / tombstone
// set), where every mutation mints a fresh content digest — a mutated
// instance is a NEW identity, so no digest-keyed cache anywhere in the stack
// can alias pre- and post-mutation results. Snapshot Views at any generation
// are ordinary Repositories; an incremental Solver maintains the exact
// greedy cover across delta batches, byte-identical to a from-scratch solve.
// Served via Catalog.AddDynamic / Catalog.Mutate, cmd/setcoverd -dyn,
// POST /v1/instances/{name}/mutate, and {"algo":"dyn","resolve":"delta"}.
type (
	// DynamicRepo is a mutable instance: SCB1 base + append-only delta log.
	DynamicRepo = scdyn.Repo
	// DynamicView is an immutable snapshot of a DynamicRepo at one
	// generation — a Repository usable with every solver.
	DynamicView = scdyn.View
	// DynamicOp is one mutation (append a set, or tombstone one by id).
	DynamicOp = scdyn.Op
	// DynamicOpKind tags a DynamicOp.
	DynamicOpKind = scdyn.OpKind
	// DynamicSolver maintains an exact greedy cover across mutations,
	// re-solving only the disturbed suffix of the selection trace.
	DynamicSolver = scdyn.Solver
	// MutateRequest is the body of POST /v1/instances/{name}/mutate.
	MutateRequest = serve.MutateRequest
	// MutateResponse reports the post-mutation identity (digest, generation).
	MutateResponse = serve.MutateResponse
)

const (
	// DynamicOpAppend appends a new set (ids are assigned densely after the
	// current maximum).
	DynamicOpAppend = scdyn.OpAppend
	// DynamicOpTombstone removes a set by id (the id stays allocated; the
	// set becomes empty).
	DynamicOpTombstone = scdyn.OpTombstone
	// DynamicLogSuffix is the delta-log filename suffix next to the base
	// SCB1 file.
	DynamicLogSuffix = scdyn.LogSuffix
)

var (
	// OpenDynamic opens (or creates alongside) a dynamic instance at an
	// SCB1 path, replaying and verifying any existing delta log.
	OpenDynamic = scdyn.Open
	// NewDynamicSolver builds an incremental solver over a DynamicRepo.
	NewDynamicSolver = scdyn.NewSolver
	// DynamicSolve runs the density-level greedy once over any Repository —
	// the stateless form of the incremental solver (algo "dyn").
	DynamicSolve = scdyn.Solve
)

// InstanceDigestHeader is the response header ("X-Instance-Digest") on which
// setcoverd reports the digest it actually resolved an instance to; the
// fleet router invalidates its name→digest cache the moment this disagrees
// with its routing decision.
const InstanceDigestHeader = obs.InstanceDigestHeader

// NewRequestID mints a 16-hex-digit correlation id.
var NewRequestID = obs.NewRequestID
