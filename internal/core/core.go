// Package core implements iterSetCover, the paper's main contribution
// (Figure 1.3, Theorem 2.8): a streaming SetCover algorithm that makes 2/δ
// passes, uses Õ(m·n^δ) space, and returns an O(ρ/δ)-approximate cover with
// high probability.
//
// Structure of the algorithm (Section 2.1):
//
//   - Guess the optimal cover size k up to a factor 2 by running all guesses
//     k ∈ {2^i | 0 ≤ i ≤ log n} "in parallel": in this implementation every
//     guess consumes the same physical pass, so the pass count stays 2/δ
//     while space multiplies by the O(log n) live guesses — exactly the
//     paper's accounting (Lemma 2.1).
//
//   - Each of the 1/δ iterations makes two passes. Pass one draws a uniform
//     sample S of the uncovered elements of size c·ρ·k·n^δ·log m·log n
//     (Lemma 2.5's relative (p, ε)-approximation bound) and scans the
//     repository: a set covering ≥ |S|/k of the still-uncovered sample (the
//     "Size Test") is heavy and enters the solution immediately; a small set
//     has its projection onto the sample stored explicitly — at most |S|/k
//     indices per set, which is where the m·n^δ space term comes from
//     (Lemma 2.2). An offline solver then covers the sampled leftovers from
//     the stored projections. Pass two recomputes the uncovered elements.
//
//   - Because S is a relative (p, ε)-approximation of the space of possible
//     residuals (Lemma 2.6), each iteration shrinks the uncovered set by a
//     factor n^δ while adding only O(ρk) sets, so 1/δ iterations finish the
//     cover with O(ρk/δ) sets total (Lemma 2.7).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/offline"
	"repro/internal/sample"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// AlgorithmName identifies iterSetCover in Stats reports.
const AlgorithmName = "iterSetCover"

// ErrNoCover is returned when no parallel guess produced a complete cover
// (the instance is infeasible, or sampling failed — the paper's "with high
// probability" event did not occur).
var ErrNoCover = errors.New("core: no guess produced a complete cover")

// SampleSizer chooses the per-iteration sample size for a guess k on a
// stream with n elements and m sets, of which uncovered remain. The returned
// size is clamped to [1, uncovered] by the algorithm.
type SampleSizer func(k, n, m, uncovered int) int

// PaperSizer returns the sample size of Figure 1.3,
// c·ρ·k·n^δ·log₂m·log₂n, with rho the offline solver's guarantee.
func PaperSizer(c, rho, delta float64) SampleSizer {
	return func(k, n, m, uncovered int) int {
		return sample.IterSampleSize(c, rho, k, n, m, delta)
	}
}

// PracticalSizer returns scale·k·n^δ without the polylog factors. The
// asymptotic space shape m·n^δ is preserved (that is what experiments
// measure) while constants stay laptop-sized. This is the default used by
// the experiment harness; the paper formula is available via PaperSizer.
func PracticalSizer(scale, delta float64) SampleSizer {
	return func(k, n, m, uncovered int) int {
		s := scale * float64(k) * math.Pow(float64(n), delta)
		if s < 1 {
			return 1
		}
		return int(math.Ceil(s))
	}
}

// Options configures IterSetCover. The zero value is not usable; call
// DefaultOptions for a sensible starting point.
type Options struct {
	// Delta is the paper's δ ∈ (0, 1]: 2/δ passes, Õ(m·n^δ) space.
	Delta float64
	// Offline is algOfflineSC. Defaults to offline.Greedy{}.
	Offline offline.Solver
	// Sizer picks the per-iteration sample size. Defaults to
	// PracticalSizer(1, Delta).
	Sizer SampleSizer
	// Seed drives all randomness; runs are deterministic given Seed.
	Seed int64

	// KMin/KMax optionally restrict the parallel guesses to [KMin, KMax]
	// (both rounded to powers of two). Zero values mean the full range
	// {1, ..., 2^ceil(log n)}.
	KMin, KMax int

	// DisableSizeTest is an ablation switch (experiment E9): heavy sets are
	// no longer added eagerly, every set's projection is stored. Space grows
	// toward m·|S| and the approximation argument of Lemma 2.3 is lost.
	DisableSizeTest bool

	// AdaptiveIterations is an ablation switch (experiment E10): instead of
	// stopping after ceil(1/δ) iterations as the paper prescribes, keep
	// iterating until every guess either finishes or MaxIterations is hit.
	AdaptiveIterations bool
	// MaxIterations caps iterations when AdaptiveIterations is set.
	// Zero means 4·log₂n + 8.
	MaxIterations int

	// PartialEps switches to the ε-Partial Set Cover problem (the [ER14] /
	// [CW16] generalization discussed in Section 1): a guess finishes once
	// at most PartialEps·n elements remain uncovered. Zero means full cover.
	PartialEps float64

	// FinalPatch enables the Section 4.2 optimization transplanted to the
	// set-system algorithm: if after the 1/δ iterations no guess finished,
	// one extra pass covers each remaining element with an arbitrary set
	// containing it. A correct guess k leaves few leftovers, so the patch
	// adds one pass and O(leftovers) sets, rescuing runs whose sampling
	// undershot. When some guess already finished, the pass is skipped.
	FinalPatch bool

	// Engine configures the shared pass executor (internal/engine) that
	// fans every physical pass out to the parallel guesses: Workers
	// goroutines (default GOMAXPROCS) consuming batches of BatchSize sets.
	// Results, pass counts, and space accounting are identical for every
	// setting — each guess owns disjoint state and sees the stream in
	// order — so this is purely a wall-clock knob.
	Engine engine.Options
}

// DefaultOptions returns options matching Theorem 2.8 with δ = 1/2 and the
// greedy offline solver.
func DefaultOptions() Options {
	return Options{Delta: 0.5, Offline: offline.Greedy{}, Seed: 1}
}

// Result extends Stats with per-run diagnostics useful in experiments.
type Result struct {
	setcover.Stats
	// BestK is the guess k whose run produced the reported cover.
	BestK int
	// Iterations is the number of two-pass iterations executed.
	Iterations int
	// StoredProjectionWordsPeak is the peak space used by stored projections
	// alone (the m·n^δ term of Lemma 2.2), for space-decomposition tables.
	StoredProjectionWordsPeak int64
	// CoveredFraction is the fraction of U covered by the reported solution
	// (1 for full covers; ≥ 1-PartialEps for partial runs).
	CoveredFraction float64
}

// failPass closes out a Result whose physical pass failed mid-stream
// (truncated or corrupt repository): every guess saw only a prefix of F, so
// no cover can be reported — the run fails loudly with the resources it
// consumed, never with a plausible-looking partial answer.
func (res Result) failPass(repo stream.Repository, passes0 int, tracker *stream.Tracker, err error) (Result, error) {
	res.Passes = repo.Passes() - passes0
	res.SpaceWords = tracker.Peak()
	return res, fmt.Errorf("core: %w", err)
}

// guessRun is the state of one parallel guess of k.
type guessRun struct {
	k         int
	uncovered *bitset.Bitset // over U
	sol       []int          // picked set IDs, across iterations
	done      bool           // uncovered is empty
	failed    bool           // gave up (offline solve failed)

	// Per-iteration state (rebuilt each iteration).
	sampleSize int
	left       *bitset.Bitset       // L: uncovered sampled elements
	proj       *offline.Projections // stored projections r∩L
	newPicks   *bitset.Bitset       // over the m stream IDs: sets picked this iteration (heavy + offline)
	iterWords  int64                // space charged for this iteration's state
}

// IterSetCover runs the Figure 1.3 algorithm over the repository.
func IterSetCover(repo stream.Repository, opts Options) (Result, error) {
	n, m := repo.UniverseSize(), repo.NumSets()
	iterations, err := sample.Iterations(opts.Delta)
	if err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	if !(opts.PartialEps >= 0 && opts.PartialEps < 1) {
		return Result{}, fmt.Errorf("core: partial eps %v out of [0,1)", opts.PartialEps)
	}
	if opts.Offline == nil {
		opts.Offline = offline.Greedy{}
	}
	if opts.Sizer == nil {
		opts.Sizer = PracticalSizer(1, opts.Delta)
	}
	tracker := stream.NewTracker()
	res := Result{Stats: setcover.Stats{Algorithm: AlgorithmName, Extra: opts.Delta}}
	passes0 := repo.Passes()
	// Allowed leftovers for the ε-partial variant (0 for full covers).
	targetUncovered := int(opts.PartialEps * float64(n))

	if n == 0 {
		res.Valid = true
		res.CoveredFraction = 1
		return res, nil
	}

	// Weighted repositories generalize the Size Test to cost-effectiveness
	// (see guessRun.observe) and hand per-set costs to the offline solver.
	// weightOf stays nil on unweighted repositories so the hot path — and
	// every number the unweighted algorithm reports — is untouched.
	weightOf := stream.WeightFunc(repo)
	rng := rand.New(rand.NewSource(opts.Seed))
	runs := makeRuns(n, opts, weightOf, tracker)
	eng := engine.New(opts.Engine)

	maxIter := iterations
	if opts.AdaptiveIterations {
		maxIter = opts.MaxIterations
		if maxIter <= 0 {
			maxIter = 4*int(math.Ceil(math.Log2(float64(n+1)))) + 8
		}
	}

	var projPeak int64
	for iter := 0; iter < maxIter; iter++ {
		if allSettled(runs) {
			break
		}
		res.Iterations++

		// Draw this iteration's samples and reset per-iteration state.
		for _, g := range runs {
			if g.done || g.failed {
				continue
			}
			g.beginIteration(rng, n, m, opts, tracker)
		}

		// Pass 1: size test + projection storage. One engine run = one
		// physical pass shared by all live guesses (Lemma 2.1); each guess
		// is its own observer, so the engine runs them on parallel workers
		// over disjoint state.
		if err := eng.Run(repo, liveObservers(runs, func(g *guessRun) engine.Observer {
			return &sizeTestObserver{g: g, opts: &opts, weight: weightOf, tracker: tracker}
		})...); err != nil {
			return res.failPass(repo, passes0, tracker, err)
		}
		var iterProjWords int64
		for _, g := range runs {
			if !g.done && !g.failed {
				iterProjWords += stream.WordsForElems(g.proj.Elems())
			}
		}
		if iterProjWords > projPeak {
			projPeak = iterProjWords
		}

		// Offline solve per guess (no pass over F — Lemma 2.1).
		for _, g := range runs {
			if g.done || g.failed {
				continue
			}
			g.solveOffline(opts, tracker)
		}

		// Pass 2: recompute uncovered elements, shared by all guesses.
		if err := eng.Run(repo, liveObservers(runs, func(g *guessRun) engine.Observer {
			return &recomputeObserver{g: g}
		})...); err != nil {
			return res.failPass(repo, passes0, tracker, err)
		}

		// Close the iteration: release per-iteration memory (Lemma 2.2:
		// earlier iterations' space is not kept). Guesses that failed in
		// solveOffline this iteration still hold their iteration's charge
		// (iterWords > 0) and must release it too; guesses settled in
		// earlier iterations were already closed and hold nothing.
		for _, g := range runs {
			if g.iterWords == 0 {
				continue
			}
			if !g.done && !g.failed && g.uncovered.Count() <= targetUncovered {
				g.done = true
			}
			g.endIteration(tracker)
		}
	}

	// Optional final patch pass (Section 4.2's idea): cover each remaining
	// element with an arbitrary set containing it. One shared pass serves
	// every unfinished guess; it only runs when no guess finished on its
	// own (rescue semantics — the pass budget stays 2/δ otherwise).
	if opts.FinalPatch && !anyDone(runs) {
		if err := eng.Run(repo, liveObservers(runs, func(g *guessRun) engine.Observer {
			return &patchObserver{g: g, target: targetUncovered, tracker: tracker}
		})...); err != nil {
			return res.failPass(repo, passes0, tracker, err)
		}
	}

	// Return the best valid solution over all parallel executions.
	best := -1
	for i, g := range runs {
		if g.done && (best < 0 || len(g.sol) < len(runs[best].sol)) {
			best = i
		}
	}
	res.Passes = repo.Passes() - passes0
	res.SpaceWords = tracker.Peak()
	res.StoredProjectionWordsPeak = projPeak
	if best < 0 {
		return res, ErrNoCover
	}
	res.Cover = append([]int(nil), runs[best].sol...)
	res.Valid = true
	res.BestK = runs[best].k
	res.CoveredFraction = 1 - float64(runs[best].uncovered.Count())/float64(n)
	return res, nil
}

// liveObservers wraps every guess that is still running (neither done nor
// failed) as an engine observer. The done/failed flags only flip between
// passes (observe never touches them; solveOffline and the iteration close
// run outside the engine), so snapshotting the live set at pass start is
// equivalent to the seed's per-set skip check — except for the final patch
// pass, whose observer re-checks done as it flips mid-pass.
func liveObservers(runs []*guessRun, mk func(*guessRun) engine.Observer) []engine.Observer {
	obs := make([]engine.Observer, 0, len(runs))
	for _, g := range runs {
		if !g.done && !g.failed {
			obs = append(obs, mk(g))
		}
	}
	return obs
}

// sizeTestObserver runs pass 1 of an iteration (Figure 1.3's Size Test +
// projection storage) for one guess. weight is nil on unweighted
// repositories.
type sizeTestObserver struct {
	g       *guessRun
	opts    *Options
	weight  func(int) float64
	tracker *stream.Tracker
}

// Observe charges the batch's words with one Grow. Charges within a pass
// only grow, so the tracker's peak is the same as with one charge per set.
func (o *sizeTestObserver) Observe(batch []setcover.Set) {
	var w int64
	for _, s := range batch {
		w += o.g.observe(s, o.opts, o.weight)
	}
	o.g.iterWords += w
	o.tracker.Grow(w)
}

// recomputeObserver runs pass 2 of an iteration: subtract everything this
// iteration's picks cover from the guess's uncovered set.
type recomputeObserver struct {
	g *guessRun
}

func (o *recomputeObserver) Observe(batch []setcover.Set) {
	for _, s := range batch {
		if o.g.newPicks.Test(s.ID) {
			o.g.uncovered.SubtractSlice(s.Elems)
		}
	}
}

// patchObserver runs the optional final patch pass (Section 4.2's idea):
// cover each remaining element with an arbitrary set containing it, until
// the guess reaches its target.
type patchObserver struct {
	g       *guessRun
	target  int
	tracker *stream.Tracker
}

func (o *patchObserver) Observe(batch []setcover.Set) {
	g := o.g
	for _, s := range batch {
		if g.done {
			return
		}
		if g.uncovered.IntersectsSlice(s.Elems) {
			g.sol = append(g.sol, s.ID)
			o.tracker.Grow(1)
			g.uncovered.SubtractSlice(s.Elems)
			if g.uncovered.Count() <= o.target {
				g.done = true
			}
		}
	}
}

func makeRuns(n int, opts Options, weight func(int) float64, tracker *stream.Tracker) []*guessRun {
	kMin, kMax := opts.KMin, opts.KMax
	if kMin <= 0 {
		kMin = 1
	}
	if kMax <= 0 {
		kMax = 1 << uint(math.Ceil(math.Log2(float64(n))))
		if kMax < 1 {
			kMax = 1
		}
	}
	var runs []*guessRun
	for k := 1; k <= kMax; k *= 2 {
		if k < kMin {
			continue
		}
		g := &guessRun{k: k, uncovered: bitset.New(n), proj: offline.NewProjections(weight)}
		g.uncovered.Fill()
		// Persistent state: the per-guess mutable copy of the uncovered set.
		tracker.Grow(stream.WordsForBitset(n))
		runs = append(runs, g)
	}
	return runs
}

func allSettled(runs []*guessRun) bool {
	for _, g := range runs {
		if !g.done && !g.failed {
			return false
		}
	}
	return true
}

func anyDone(runs []*guessRun) bool {
	for _, g := range runs {
		if g.done {
			return true
		}
	}
	return false
}

// beginIteration draws S, sets L ← S, and clears the projection store.
func (g *guessRun) beginIteration(rng *rand.Rand, n, m int, opts Options, tracker *stream.Tracker) {
	g.sampleSize = opts.Sizer(g.k, n, m, g.uncovered.Count())
	if g.sampleSize < 1 {
		g.sampleSize = 1
	}
	g.left = sample.UniformFromBitset(rng, g.uncovered, g.sampleSize)
	g.sampleSize = g.left.Count() // clamp when uncovered < requested
	g.proj.Reset()
	// newPicks is a bitset over the m stream IDs rather than a map: pass 2
	// probes it once per streamed set, and a word-indexed bit test beats a
	// map lookup in that loop. The space METER is unchanged — it still
	// charges one word per picked ID (the abstract cost of remembering the
	// pick), so SpaceWords stays byte-identical to the map representation;
	// the bitset is a constant-factor runtime choice, reused across
	// iterations.
	if g.newPicks == nil || g.newPicks.Len() != m {
		g.newPicks = bitset.New(m)
	} else {
		g.newPicks.Reset()
	}
	// Charge the leftover bitset L (the sample is represented by it).
	g.iterWords = stream.WordsForBitset(n)
	tracker.Grow(g.iterWords)
}

// observe processes one streamed set during pass 1 (the Size Test) and
// returns the words it stored. weight is nil on unweighted repositories;
// when present, the Size Test generalizes from coverage to
// cost-effectiveness — a set is heavy when it covers at least
// (|S|/k)·cost(r) sampled leftovers, i.e. when its coverage per unit cost
// clears the same |S|/k bar the unweighted test sets. A unit-weight vector
// multiplies the threshold by exactly 1.0, so the weighted path is
// byte-identical to the unweighted one on all-ones weights.
//
// The set is walked once: its projection r∩L is stored first, and the
// count just stored is |r∩L|. A heavy set is popped again.
func (g *guessRun) observe(s setcover.Set, opts *Options, weight func(int) float64) int64 {
	stored := g.proj.Elems()
	w := g.proj.Add(s.ID, s.Elems, g.left)
	if w == 0 {
		return 0
	}
	threshold := float64(g.sampleSize) / float64(g.k)
	if weight != nil {
		threshold *= weight(s.ID)
	}
	if opts.DisableSizeTest || float64(g.proj.Elems()-stored) < threshold {
		return w // small: the projection stays stored (Figure 1.3)
	}
	// Heavy: take it now, no storage needed beyond its ID.
	g.proj.Pop()
	g.sol = append(g.sol, s.ID)
	g.newPicks.Set(s.ID)
	g.left.SubtractSlice(s.Elems)
	return 2 // one ID in sol, one in newPicks
}

// solveOffline covers the sampled leftovers L from the stored projections
// with algOfflineSC and merges the result into the solution.
func (g *guessRun) solveOffline(opts Options, tracker *stream.Tracker) {
	if g.left.Empty() {
		return
	}
	// Charge the element remap table (the projections are already charged).
	w := int64(g.left.Count())
	g.iterWords += w
	tracker.Grow(w)

	cover, err := g.proj.Solve(g.left, opts.Offline)
	if err != nil {
		// Sample contains an element no stored set covers: only possible if
		// the instance itself cannot cover it. This guess cannot finish.
		g.failed = true
		return
	}
	for _, orig := range cover {
		if !g.newPicks.Test(orig) {
			g.sol = append(g.sol, orig)
			g.newPicks.Set(orig)
			w := int64(2)
			g.iterWords += w
			tracker.Grow(w)
		}
	}
}

// endIteration releases all per-iteration memory.
func (g *guessRun) endIteration(tracker *stream.Tracker) {
	tracker.Shrink(g.iterWords)
	g.iterWords = 0
	g.left = nil
	if g.newPicks != nil {
		g.newPicks.Reset() // keep the allocation; next iteration reuses it
	}
}
