// Package baseline implements every upper-bound algorithm the paper compares
// against in Figure 1.1, under the same streaming model and space accounting
// as the main algorithm:
//
//	OnePassGreedy     — greedy, 1 pass, O(mn) space (store the input)
//	MultiPassGreedy   — greedy, ≤ n passes, O(n) space
//	ThresholdGreedy   — [SG09]-style thresholding: O(log n) passes,
//	                    O(log n)-approx, Õ(n) space
//	EmekRosen         — [ER14]: 1 pass, O(√n)-approx, Θ̃(n) space
//	ChakrabartiWirth  — [CW16]: p passes, (p+1)·n^{1/(p+1)}-approx, Θ̃(n) space
//	DIMV14            — [DIMV14]-style element sampling: Õ(m·n^δ) space but
//	                    exponentially more passes than iterSetCover
//
// The ER14, CW16, threshold-greedy and multi-pass-greedy algorithms also
// come in ε-Partial Set Cover variants (the generalization both [ER14] and
// [CW16] prove their bounds for, see Section 1): cover at least a (1-ε)
// fraction of U. For those, Stats.Valid certifies the fractional goal, not
// full coverage.
//
// Each function returns setcover.Stats with verified validity, the pass
// count read from the repository, and the peak space charged to a Tracker.
//
// Every pass here is executed by the shared pass engine (internal/engine),
// the same machinery that runs iterSetCover's parallel guesses: one
// engine.Run = one physical pass, delivered in batches. The baselines each
// register a single observer per pass, so the engine degrades to its
// sequential path — results are identical to a hand-rolled loop over the
// sets, and the pass/space accounting is untouched.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/offline"
	"repro/internal/sample"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// ErrInfeasible mirrors setcover.ErrInfeasible for streaming baselines.
var ErrInfeasible = setcover.ErrInfeasible

// failPass closes out a Stats whose physical pass failed mid-stream: the
// algorithm saw only a prefix of F, so no cover is reported.
func failPass(st setcover.Stats, repo stream.Repository, passes0 int, tracker *stream.Tracker, err error) (setcover.Stats, error) {
	st.Passes = repo.Passes() - passes0
	st.SpaceWords = tracker.Peak()
	return st, fmt.Errorf("baseline: %w", err)
}

// allowedLeftovers converts ε into an element budget.
func allowedLeftovers(n int, eps float64) (int, error) {
	if !(eps >= 0 && eps < 1) {
		return 0, fmt.Errorf("baseline: partial eps %v out of [0,1)", eps)
	}
	return int(eps * float64(n)), nil
}

// OnePassGreedy reads the whole family into memory in a single pass and runs
// offline greedy: the "Greedy algorithm, ln n approx, 1 pass, O(mn) space"
// row of Figure 1.1. It is the space-hungry strawman every sublinear
// algorithm is measured against.
//
// engOpts configures the pass executor for this call, like every baseline
// here; the zero value means engine defaults.
func OnePassGreedy(repo stream.Repository, engOpts engine.Options) (setcover.Stats, error) {
	eng := engine.New(engOpts)
	st := setcover.Stats{Algorithm: "greedy-1pass"}
	passes0 := repo.Passes()
	tracker := stream.NewTracker()

	weight := stream.WeightFunc(repo)
	stored := &setcover.Instance{N: repo.UniverseSize()}
	// One charge per batch: the pass only grows, so the peak is the same.
	if err := eng.Run(repo, engine.Func(func(batch []setcover.Set) {
		var w int64
		for _, s := range batch {
			cp := make([]setcover.Elem, len(s.Elems))
			copy(cp, s.Elems)
			stored.Sets = append(stored.Sets, setcover.Set{ID: s.ID, Elems: cp})
			w += stream.WordsForElems(len(cp)) + 1
			if weight != nil {
				// Storing the input includes storing its costs: one word each.
				stored.Weights = append(stored.Weights, weight(s.ID))
				w++
			}
		}
		tracker.Grow(w)
	})); err != nil {
		return failPass(st, repo, passes0, tracker, err)
	}
	cover, err := (offline.Greedy{}).Solve(stored)
	if err != nil {
		st.Passes = repo.Passes() - passes0
		st.SpaceWords = tracker.Peak()
		return st, err
	}
	tracker.Grow(stream.WordsForIDs(len(cover)))
	st.Cover = cover
	st.Valid = true
	st.Passes = repo.Passes() - passes0
	st.SpaceWords = tracker.Peak()
	return st, nil
}

// MultiPassGreedy runs greedy with O(n) space by re-scanning: each pass finds
// the set with maximum gain against the in-memory uncovered bitset, then
// commits it. This is the "Greedy algorithm, ln n approx, n passes, O(n)
// space" row of Figure 1.1. Passes equal the cover size.
func MultiPassGreedy(repo stream.Repository, engOpts engine.Options) (setcover.Stats, error) {
	return MultiPassGreedyPartial(repo, 0, engOpts)
}

// MultiPassGreedyPartial is MultiPassGreedy for ε-Partial Set Cover: it
// stops once at most eps·n elements remain uncovered.
func MultiPassGreedyPartial(repo stream.Repository, eps float64, engOpts engine.Options) (setcover.Stats, error) {
	eng := engine.New(engOpts)
	st := setcover.Stats{Algorithm: "greedy-npass", Extra: eps}
	passes0 := repo.Passes()
	n := repo.UniverseSize()
	allowed, err := allowedLeftovers(n, eps)
	if err != nil {
		return st, err
	}
	tracker := stream.NewTracker()
	uncovered := bitset.New(n)
	uncovered.Fill()
	tracker.Grow(stream.WordsForBitset(n))
	// Buffer for the best set seen in the current pass: at most n elements.
	tracker.Grow(stream.WordsForElems(n))

	var cover []int
	best := &bestSetObserver{uncovered: uncovered, weight: stream.WeightFunc(repo), bound: n, prevPick: -1}
	for uncovered.Count() > allowed {
		if len(cover) > n {
			return st, fmt.Errorf("baseline: greedy-npass exceeded %d passes", n)
		}
		if err := eng.Run(repo, best); err != nil {
			return failPass(st, repo, passes0, tracker, err)
		}
		if best.id < 0 {
			st.Passes = repo.Passes() - passes0
			st.SpaceWords = tracker.Peak()
			return st, ErrInfeasible
		}
		cover = append(cover, best.id)
		tracker.Grow(1)
		uncovered.SubtractSlice(best.elems)
	}
	st.Cover = cover
	st.Valid = true
	st.Passes = repo.Passes() - passes0
	st.SpaceWords = tracker.Peak()
	return st, nil
}

// bestSetObserver is MultiPassGreedy's per-pass primitive: find the set with
// maximum gain — maximum gain/weight on weighted repositories — against
// uncovered, ties broken by stream position. BeginPass (an engine lifecycle
// hook) resets the argmax so one observer serves every pick's pass.
//
// On unweighted repositories it tells the engine which ranges of a pass
// cannot hold the pick (engine.Skipper), from two integers kept from the
// previous pass: prevPick, where that pass's pick was, and preBest, the
// running best just before the pick became the incumbent. A range ending at
// or before prevPick is bounded by u = preBest, any other range by u =
// bound, the previous pass's best gain; CanSkip is true once u is at most
// the running best, which Observe publishes through an atomic. Why no pick
// can move (set IDs are stream positions):
//
//   - Gains only fall between passes, so a gain this pass is at most the
//     same set's gain last pass.
//   - Every set before the previous pick was delivered before it, so its
//     gain was at most the running best then, preBest; or it was skipped,
//     which required its range's u to be at most the running best then,
//     again at most preBest.
//   - The previous pick itself now has gain 0: its elements are covered.
//   - Every later set had gain at most the previous pass's best, bound.
//   - A range is skipped only after every set delivered before it, and
//     ties keep the earliest set, so a skipped set with gain at most the
//     running best could never have become the incumbent: ≤ is enough,
//     and the running best, the pick and preBest follow the same
//     trajectory as a full scan's.
//   - A stale, smaller read of the atomic only skips less.
//
// A pass that reaches the bound (gain ≥ bound) can skip every range: the
// first set to reach it is the pick, and Observe returns at once for every
// later batch. The engine reads skipped ranges without delivering them,
// decoding only the chunks whose bytes it cannot match to an earlier
// successful decode, so a full drain and decode-error detection are
// unchanged. The weighted path never skips: its cross-multiplied float
// compare makes "reached the bound" unsafe.
//
// The state the skip adds is scalars, like gain, id and bound, so the space
// meter charges nothing for it.
type bestSetObserver struct {
	uncovered *bitset.Bitset
	weight    func(int) float64 // nil on unweighted repositories
	gain, id  int
	bound     int     // no gain this pass exceeds it: the previous pass's best, n at first
	w         float64 // incumbent's weight (1 until a pick is found)
	elems     []setcover.Elem
	pre       int          // the running best just before the incumbent took over
	prevPick  int          // the previous pass's pick, -1 before the first pass
	preBest   int          // the previous pass's pre: no set before prevPick gains more
	best      atomic.Int64 // gain, published to CanSkip on the engine's goroutines
}

func (o *bestSetObserver) BeginPass() {
	o.gain, o.id, o.w, o.pre = 0, -1, 1, 0
	o.best.Store(0)
}

func (o *bestSetObserver) EndPass() { o.bound, o.prevPick, o.preBest = o.gain, o.id, o.pre }

// CanSkip implements engine.Skipper: no set in [start, end) can gain more
// than the running best.
func (o *bestSetObserver) CanSkip(start, end int) bool {
	if o.weight != nil {
		return false
	}
	u := o.bound
	if end-1 <= o.prevPick {
		u = o.preBest
	}
	return int64(u) <= o.best.Load()
}

func (o *bestSetObserver) Observe(batch []setcover.Set) {
	if o.weight == nil {
		for _, s := range batch {
			if o.gain >= o.bound {
				return
			}
			if g := o.uncovered.IntersectionWithSlice(s.Elems); g > o.gain {
				o.pre, o.gain, o.id = o.gain, g, s.ID
				o.best.Store(int64(g))
				o.elems = append(o.elems[:0], s.Elems...)
			}
		}
		return
	}
	for _, s := range batch {
		g := o.uncovered.IntersectionWithSlice(s.Elems)
		if g == 0 {
			continue
		}
		// Candidate wins on strictly better cost-effectiveness:
		// g/w > gain/o.w, compared by cross-multiplication (exact for unit
		// weights; division-free otherwise). The strict > keeps the earliest
		// stream position on ties, exactly like the unweighted argmax.
		if w := o.weight(s.ID); float64(g)*o.w > float64(o.gain)*w {
			o.gain, o.id, o.w = g, s.ID, w
			o.elems = append(o.elems[:0], s.Elems...)
		}
	}
}

// ThresholdGreedy is the [SG09]-style thresholded greedy the paper describes
// as "adopting the standard greedy algorithm with a thresholding technique":
// pass j accepts on the spot any set covering at least τ_j = n/2^j new
// elements, halving τ until 1. O(log n) passes, O(log n)-approximation,
// Õ(n) space.
func ThresholdGreedy(repo stream.Repository, engOpts engine.Options) (setcover.Stats, error) {
	return ThresholdGreedyPartial(repo, 0, engOpts)
}

// ThresholdGreedyPartial is ThresholdGreedy for ε-Partial Set Cover.
func ThresholdGreedyPartial(repo stream.Repository, eps float64, engOpts engine.Options) (setcover.Stats, error) {
	eng := engine.New(engOpts)
	st := setcover.Stats{Algorithm: "threshold-greedy[SG09]", Extra: eps}
	passes0 := repo.Passes()
	n := repo.UniverseSize()
	allowed, err := allowedLeftovers(n, eps)
	if err != nil {
		return st, err
	}
	tracker := stream.NewTracker()
	uncovered := bitset.New(n)
	uncovered.Fill()
	tracker.Grow(stream.WordsForBitset(n))

	acc := &thresholdObserver{uncovered: uncovered, weight: stream.WeightFunc(repo), tracker: tracker,
		tau: float64(n), left: n, allowed: allowed}
	for acc.left > allowed {
		if err := eng.Run(repo, acc); err != nil {
			return failPass(st, repo, passes0, tracker, err)
		}
		if acc.tau <= 1 {
			break
		}
		acc.tau /= 2
		if acc.tau < 1 {
			acc.tau = 1 // the last pass must accept any set with positive gain
		}
	}
	st.Passes = repo.Passes() - passes0
	st.SpaceWords = tracker.Peak()
	if acc.left > allowed {
		return st, ErrInfeasible
	}
	st.Cover = acc.cover
	st.Valid = true
	return st, nil
}

// thresholdObserver is ThresholdGreedy's per-pass primitive: accept on the
// spot every set whose gain against uncovered reaches the pass's threshold
// tau.
//
// Once the fractional goal is reached mid-pass the observer stops accepting
// and can skip every range (engine.Skipper); the engine reads the rest of
// the stream without delivering it, decoding only the chunks whose bytes it
// cannot match to an earlier successful decode. A begun pass still reads
// the whole stream in this model (a mid-pass break would be cheaper only by
// violating that), so results are identical and only wall-clock differs.
//
// Weighted repositories threshold on cost-effectiveness: pass j accepts any
// set covering at least τ_j new elements PER UNIT COST (g ≥ τ_j·w). The
// final pass (τ = 1) additionally accepts any positive gain — on unit
// weights that is the same g ≥ 1 rule as before, while on weighted families
// it preserves completeness for sets whose cost exceeds their remaining gain
// (nothing below cost-effectiveness 1/w would otherwise ever clear a τ ≥ 1
// bar).
type thresholdObserver struct {
	uncovered *bitset.Bitset
	weight    func(int) float64 // nil on unweighted repositories
	tracker   *stream.Tracker
	tau       float64
	left      int // == uncovered.Count(), kept up to date by every pick
	allowed   int // the fractional goal: at most this many left uncovered
	cover     []int
	reached   atomic.Bool // left <= allowed, published to CanSkip on the engine's goroutines
}

// CanSkip implements engine.Skipper: every range once the fractional goal
// is reached.
func (o *thresholdObserver) CanSkip(int, int) bool { return o.reached.Load() }

func (o *thresholdObserver) Observe(batch []setcover.Set) {
	for _, s := range batch {
		if o.left <= o.allowed {
			return
		}
		g := o.uncovered.IntersectionWithSlice(s.Elems)
		if g == 0 {
			continue
		}
		thr := o.tau
		if o.weight != nil {
			thr *= o.weight(s.ID)
		}
		if float64(g) >= thr || o.tau <= 1 {
			o.cover = append(o.cover, s.ID)
			o.tracker.Grow(1)
			o.left -= o.uncovered.SubtractSlice(s.Elems)
			if o.left <= o.allowed {
				o.reached.Store(true)
			}
		}
	}
}

// EmekRosen is the one-pass O(√n)-approximation of [ER14] in its standard
// skeleton: a set covering at least √n yet-uncovered elements is taken
// immediately; every element additionally remembers the first set that
// contained it, and after the pass the leftovers are patched with those
// remembered sets. Space Θ̃(n): the uncovered bitset plus one set ID per
// element.
//
// Approximation: every set covers < √n of the final uncovered elements (a
// set's uncovered-gain only shrinks over the pass), so OPT ≥ u/√n where u is
// the number of leftovers; the algorithm pays ≤ √n picks + u ≤ √n + √n·OPT.
func EmekRosen(repo stream.Repository, engOpts engine.Options) (setcover.Stats, error) {
	return EmekRosenPartial(repo, 0, engOpts)
}

// EmekRosenPartial is EmekRosen for ε-Partial Set Cover ([ER14] prove their
// upper and lower bounds for this generalization): up to eps·n elements may
// stay uncovered, so the patch phase stops early.
func EmekRosenPartial(repo stream.Repository, eps float64, engOpts engine.Options) (setcover.Stats, error) {
	eng := engine.New(engOpts)
	st := setcover.Stats{Algorithm: "emek-rosen[ER14]", Extra: eps}
	passes0 := repo.Passes()
	n := repo.UniverseSize()
	allowed, err := allowedLeftovers(n, eps)
	if err != nil {
		return st, err
	}
	tracker := stream.NewTracker()
	if n == 0 {
		st.Valid = true
		return st, nil
	}
	threshold := math.Sqrt(float64(n))

	uncovered := bitset.New(n)
	uncovered.Fill()
	tracker.Grow(stream.WordsForBitset(n))
	firstCover := make([]int32, n)
	for i := range firstCover {
		firstCover[i] = -1
	}
	tracker.Grow(stream.WordsForElems(n)) // int32 per element

	// Weighted repositories take a set when it covers ≥ √n yet-uncovered
	// elements per unit cost (g ≥ √n·w); the firstCover patch is
	// weight-oblivious either way — it buys completeness, not quality, and
	// remembering the first set containing an element is exactly [ER14]'s
	// rule.
	weight := stream.WeightFunc(repo)
	var cover []int
	if err := eng.Run(repo, engine.Func(func(batch []setcover.Set) {
		for _, s := range batch {
			for _, e := range s.Elems {
				if firstCover[e] < 0 {
					firstCover[e] = int32(s.ID)
				}
			}
			thr := threshold
			if weight != nil {
				thr *= weight(s.ID)
			}
			if g := uncovered.IntersectionWithSlice(s.Elems); float64(g) >= thr {
				cover = append(cover, s.ID)
				tracker.Grow(1)
				uncovered.SubtractSlice(s.Elems)
			}
		}
	})); err != nil {
		return failPass(st, repo, passes0, tracker, err)
	}
	patch, infeasible := patchLeftovers(uncovered, firstCover, allowed)
	tracker.Grow(int64(len(patch)))
	st.Passes = repo.Passes() - passes0
	st.SpaceWords = tracker.Peak()
	if infeasible {
		return st, ErrInfeasible
	}
	for _, id := range patch {
		cover = append(cover, int(id))
	}
	st.Cover = cover
	st.Valid = true
	return st, nil
}

// ChakrabartiWirth is the [CW16] p-pass semi-streaming algorithm in its
// progressive-thresholding form: pass j accepts sets covering at least
// τ_j = n^{(p+1-j)/(p+1)} new elements; after p passes the leftovers are
// patched with remembered first covers, giving a (p+1)·n^{1/(p+1)}-style
// approximation in Θ̃(n) space.
func ChakrabartiWirth(repo stream.Repository, passes int, engOpts engine.Options) (setcover.Stats, error) {
	return ChakrabartiWirthPartial(repo, passes, 0, engOpts)
}

// ChakrabartiWirthPartial is ChakrabartiWirth for ε-Partial Set Cover
// ([CW16] prove their trade-off for this generalization too).
func ChakrabartiWirthPartial(repo stream.Repository, passes int, eps float64, engOpts engine.Options) (setcover.Stats, error) {
	if passes < 1 {
		return setcover.Stats{}, fmt.Errorf("baseline: ChakrabartiWirth needs passes >= 1, got %d", passes)
	}
	eng := engine.New(engOpts)
	st := setcover.Stats{Algorithm: fmt.Sprintf("chakrabarti-wirth[CW16] p=%d", passes), Extra: float64(passes)}
	passes0 := repo.Passes()
	n := repo.UniverseSize()
	allowed, err := allowedLeftovers(n, eps)
	if err != nil {
		return st, err
	}
	tracker := stream.NewTracker()
	if n == 0 {
		st.Valid = true
		return st, nil
	}

	uncovered := bitset.New(n)
	uncovered.Fill()
	tracker.Grow(stream.WordsForBitset(n))
	firstCover := make([]int32, n)
	for i := range firstCover {
		firstCover[i] = -1
	}
	tracker.Grow(stream.WordsForElems(n))

	// Weighted repositories accept on cost-effectiveness (g ≥ τ_j·w), like
	// ThresholdGreedy; the leftover patch stays weight-oblivious.
	weight := stream.WeightFunc(repo)
	var cover []int
	p := float64(passes)
	for j := 1; j <= passes; j++ {
		if uncovered.Count() <= allowed {
			break
		}
		tau := math.Pow(float64(n), (p+1-float64(j))/(p+1))
		if err := eng.Run(repo, engine.Func(func(batch []setcover.Set) {
			for _, s := range batch {
				if j == 1 {
					for _, e := range s.Elems {
						if firstCover[e] < 0 {
							firstCover[e] = int32(s.ID)
						}
					}
				}
				thr := tau
				if weight != nil {
					thr *= weight(s.ID)
				}
				if g := uncovered.IntersectionWithSlice(s.Elems); float64(g) >= thr {
					cover = append(cover, s.ID)
					tracker.Grow(1)
					uncovered.SubtractSlice(s.Elems)
				}
			}
		})); err != nil {
			return failPass(st, repo, passes0, tracker, err)
		}
	}
	patch, infeasible := patchLeftovers(uncovered, firstCover, allowed)
	tracker.Grow(int64(len(patch)))
	st.Passes = repo.Passes() - passes0
	st.SpaceWords = tracker.Peak()
	if infeasible {
		return st, ErrInfeasible
	}
	for _, id := range patch {
		cover = append(cover, int(id))
	}
	st.Cover = cover
	st.Valid = true
	return st, nil
}

// patchLeftovers assigns each leftover element its remembered first cover
// until at most allowed elements remain unpatched. Elements with no
// remembered cover make the instance infeasible unless they fit in the
// allowance. Accounting is conservative: each patched set is guaranteed to
// cover at least its triggering element. The patch is returned in
// first-triggering-element order (deduplicated), so covers stay
// deterministic — the cross-backend conformance suite compares them
// byte for byte.
func patchLeftovers(uncovered *bitset.Bitset, firstCover []int32, allowed int) ([]int32, bool) {
	var patch []int32
	seen := make(map[int32]bool)
	need := uncovered.Count() - allowed
	if need <= 0 {
		return patch, false
	}
	infeasible := false
	uncovered.ForEach(func(e int) bool {
		if need <= 0 {
			return false
		}
		id := firstCover[e]
		if id < 0 {
			infeasible = true
			return false
		}
		if !seen[id] {
			seen[id] = true
			patch = append(patch, id)
		}
		need--
		return true
	})
	return patch, infeasible
}

// DIMV14Options configures the [DIMV14]-style element-sampling baseline.
type DIMV14Options struct {
	// Delta controls the space budget Õ(m·n^δ), like iterSetCover's δ.
	Delta float64
	// Scale multiplies the sample size scale·n^δ·log₂m.
	Scale float64
	// Seed drives sampling.
	Seed int64
}

// DIMV14 is a rendition of the Demaine–Indyk–Mahabadi–Vakilian element
// sampling scheme (see DESIGN.md §3 for the substitution note): each round
// draws a plain uniform sample of the uncovered elements — crucially without
// the paper's Size Test and without the relative (p, ε)-approximation sample
// size — stores every set's projection onto the sample, covers the sample
// offline, and spends a second pass removing what got covered. Plain element
// sampling only shrinks the uncovered set by a constant factor per round, so
// covering everything takes Θ(log n) rounds = Θ(log n) passes at the same
// Õ(m·n^δ) space — the exponential pass blow-up relative to iterSetCover
// that Theorem 2.8 eliminates.
func DIMV14(repo stream.Repository, opts DIMV14Options, engOpts engine.Options) (setcover.Stats, error) {
	eng := engine.New(engOpts)
	weight := stream.WeightFunc(repo)
	st := setcover.Stats{Algorithm: "dimv14-sampling", Extra: opts.Delta}
	passes0 := repo.Passes()
	n, m := repo.UniverseSize(), repo.NumSets()
	if _, err := sample.Iterations(opts.Delta); err != nil {
		return st, fmt.Errorf("baseline: %w", err)
	}
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	tracker := stream.NewTracker()
	if n == 0 {
		st.Valid = true
		return st, nil
	}
	// The sampling rounds are capped at 4·⌈log₂(n+1)⌉+8.
	maxRounds := 4*int(math.Ceil(math.Log2(float64(n+1)))) + 8
	rng := rand.New(rand.NewSource(opts.Seed))

	uncovered := bitset.New(n)
	uncovered.Fill()
	tracker.Grow(stream.WordsForBitset(n))

	logm := math.Log2(float64(m + 2))
	sampleSize := int(math.Ceil(opts.Scale * math.Pow(float64(n), opts.Delta) * logm))
	if sampleSize < 1 {
		sampleSize = 1
	}

	var cover []int
	proj := offline.NewProjections(weight)
	// picked is a bitset over the m stream IDs: pass B probes it per set.
	picked := bitset.New(m)
	for round := 0; round < maxRounds && !uncovered.Empty(); round++ {
		s := sample.UniformFromBitset(rng, uncovered, sampleSize)
		tracker.Grow(stream.WordsForBitset(n))

		// Pass A: store every set's projection onto the sample (plus its
		// cost, one word, on weighted repositories — the offline solve below
		// needs it), charged once per batch.
		var projWords int64
		errA := eng.Run(repo, engine.Func(func(batch []setcover.Set) {
			var w int64
			for _, set := range batch {
				w += proj.Add(set.ID, set.Elems, s)
			}
			projWords += w
			tracker.Grow(w)
		}))
		if errA != nil {
			return failPass(st, repo, passes0, tracker, errA)
		}

		// Offline greedy on the sampled sub-instance.
		subCover, err := proj.Solve(s, offline.Greedy{})
		if err != nil {
			st.Passes = repo.Passes() - passes0
			st.SpaceWords = tracker.Peak()
			return st, ErrInfeasible
		}
		picked.Reset()
		for _, orig := range subCover {
			if !picked.Test(orig) {
				picked.Set(orig)
				cover = append(cover, orig)
				tracker.Grow(1)
			}
		}

		// Pass B: remove everything the new picks cover.
		if err := eng.Run(repo, engine.Func(func(batch []setcover.Set) {
			for _, set := range batch {
				if picked.Test(set.ID) {
					uncovered.SubtractSlice(set.Elems)
				}
			}
		})); err != nil {
			return failPass(st, repo, passes0, tracker, err)
		}
		tracker.Shrink(projWords + stream.WordsForBitset(n))
	}
	st.Passes = repo.Passes() - passes0
	st.SpaceWords = tracker.Peak()
	if !uncovered.Empty() {
		return st, errors.New("baseline: dimv14 sampling did not converge")
	}
	st.Cover = cover
	st.Valid = true
	return st, nil
}
