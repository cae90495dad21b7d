package geom

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

// GeomAlgorithmName identifies algGeomSC in Stats reports.
const GeomAlgorithmName = "algGeomSC"

// heavyW sets the shallowness threshold w = heavyW·|S|/k of the canonical
// representation; Lemma 4.5 uses 3.
const heavyW = 3

// ErrGeomNoCover is returned when no guess completed a cover.
var ErrGeomNoCover = errors.New("geom: no guess produced a complete cover")

// GeomOptions configures AlgGeomSC (Figure 4.1).
type GeomOptions struct {
	// Delta is the paper's δ; Theorem 4.6 sets δ = 1/4 (and requires
	// δ <= 1/4 for the near-linear space analysis). Default 1/4.
	Delta float64
	// Offline is algOfflineSC over the canonical pieces. Default greedy.
	Offline offline.Solver
	// Seed drives sampling.
	Seed int64
	// KMin/KMax restrict the parallel guesses (powers of two); zero values
	// mean the full range {1, ..., 2^ceil(log n)}.
	KMin, KMax int
	// DisableCanonical is an ablation switch (experiment E14): rectangles
	// are stored as whole projections instead of being split at the
	// x-interval tree (Lemma 4.2). On adversarial streams like Figure 1.2
	// the distinct-projection count — and hence the space — blows up toward
	// m while the canonical family stays Õ(n).
	DisableCanonical bool
	// Engine configures the shared pass executor (internal/engine) that
	// fans every physical shape pass out to the parallel guesses, exactly
	// as it does for the set-system algorithms. Results, pass counts, and
	// space accounting are identical for every setting — each guess owns
	// disjoint state and sees the shape stream in order — so this is
	// purely a wall-clock knob.
	Engine engine.Options
}

// GeomResult extends Stats with geometric diagnostics.
type GeomResult struct {
	setcover.Stats
	// BestK is the winning guess.
	BestK int
	// CanonicalPiecesPeak is the largest number of distinct canonical pieces
	// stored in any single iteration (the Õ(n) quantity of Lemma 4.4).
	CanonicalPiecesPeak int
	// RawProjectionsSeen counts shapes with non-empty sample projections
	// processed by compCanonicalRep across the run — compare with
	// CanonicalPiecesPeak to see the dedup factor (Figure 1.2's point).
	RawProjectionsSeen int
}

// failPass closes out a GeomResult whose physical shape pass failed
// mid-stream (a flaky or truncated geometric instance): every guess saw only
// a prefix of the shapes, so no cover can be reported — the run fails loudly
// with the resources it consumed, never with a plausible-looking partial
// answer. The error chain carries engine.ErrPassFailed for service-layer
// classification.
func (res GeomResult) failPass(repo ShapeStream, passes0 int, tracker *stream.Tracker, err error) (GeomResult, error) {
	res.Passes = repo.Passes() - passes0
	res.SpaceWords = tracker.Peak()
	return res, fmt.Errorf("geom: %w", err)
}

type geomRun struct {
	k    int
	left *bitset.Bitset // L, over points
	sol  []int
	done bool
}

// geomIterState is one guess's per-iteration state: the sampled points, the
// shallowness threshold, and the canonical piece store the second pass fills.
type geomIterState struct {
	s       *bitset.Bitset
	sLen    int
	w       float64
	store   *CanonicalStore
	tree    *XSplitTree
	words   int64
	solS    []Piece
	picked  map[int]bool
	rawSeen int // per-guess share of GeomResult.RawProjectionsSeen
}

// AlgGeomSC implements Figure 4.1: a streaming algorithm for Points-Shapes
// Set Cover using Õ(n) space and 3/δ + 1 passes. Per iteration and guess k:
//
//	pass 1: pick every shape covering ≥ n/k points of L;
//	sample S ⊆ L of size ~k·(n/k)^δ; pass 2: compute the canonical
//	representation of (S, F) for w-shallow shapes and cover S offline from
//	the canonical pieces; pass 3: replace each chosen piece by a streamed
//	shape whose projection contains it.
//
// A final pass covers the ≤ k leftovers with one arbitrary set each.
//
// Every pass runs on the shared pass engine (engine.RunOver over the shape
// stream): one RunOver = one counted pass shared by all live guesses
// (Lemma 2.1's accounting, the same sharing the set-system algorithm gets
// from engine.Run), each guess its own observer over disjoint state. A pass
// that cannot be fully drained — a reader error, or a stream that silently
// ends short of NumShapes — aborts the solve with an error wrapping
// engine.ErrPassFailed.
func AlgGeomSC(repo ShapeStream, opts GeomOptions) (GeomResult, error) {
	n := repo.NumPoints()
	if opts.Delta == 0 {
		opts.Delta = 0.25
	}
	iterations, err := sample.Iterations(opts.Delta)
	if err != nil {
		return GeomResult{}, fmt.Errorf("geom: %w", err)
	}
	if opts.Offline == nil {
		opts.Offline = offline.Greedy{}
	}
	res := GeomResult{Stats: setcover.Stats{Algorithm: GeomAlgorithmName, Extra: opts.Delta}}
	passes0 := repo.Passes()
	if n == 0 {
		res.Valid = true
		return res, nil
	}
	tracker := stream.NewTracker()
	// The model stores the points in memory: 2 coordinates per point.
	tracker.Grow(2 * int64(n))
	rng := rand.New(rand.NewSource(opts.Seed))
	pts := repo.Points()

	runs := makeGeomRuns(n, opts, tracker)
	eng := engine.New(opts.Engine)
	src := shapeSource{repo: repo}

	for iter := 0; iter < iterations; iter++ {
		if geomAllDone(runs) {
			break
		}

		// Pass 1: heavy shapes — |r∩L| >= n/k enters sol immediately.
		if err := engine.RunOver(eng, src, liveGeomObservers(runs, func(g *geomRun) engine.ObserverOf[StreamShape] {
			return &heavyShapeObserver{g: g, n: n, tracker: tracker}
		})...); err != nil {
			return res.failPass(repo, passes0, tracker, err)
		}
		for _, g := range runs {
			if !g.done && g.left.Empty() {
				g.done = true
			}
		}
		if geomAllDone(runs) {
			break
		}

		// Sample per guess, then pass 2: canonical representation of (S, F).
		states := make(map[*geomRun]*geomIterState)
		for _, g := range runs {
			if g.done {
				continue
			}
			// The practical sample size k·(n/k)^δ: the paper's
			// c·ρ·k·(n/k)^δ·log m·log n with the constant, ρ and the
			// polylog factors left out.
			size := int(math.Ceil(float64(g.k) * math.Pow(float64(n)/float64(g.k), opts.Delta)))
			if size < 1 {
				size = 1
			}
			st := &geomIterState{store: NewCanonicalStore()}
			st.s = sample.UniformFromBitset(rng, g.left, size)
			st.sLen = st.s.Count()
			st.w = heavyW * float64(st.sLen) / float64(g.k)
			if st.w < 1 {
				st.w = 1
			}
			if !opts.DisableCanonical {
				var spts []Point
				st.s.ForEach(func(i int) bool { spts = append(spts, pts[i]); return true })
				st.tree = NewXSplitTree(spts)
			}
			st.words = stream.WordsForBitset(n) // the sample bitset
			tracker.Grow(st.words)
			states[g] = st
		}

		if err := engine.RunOver(eng, src, liveGeomObservers(runs, func(g *geomRun) engine.ObserverOf[StreamShape] {
			return &canonicalObserver{st: states[g], pts: pts, tracker: tracker}
		})...); err != nil {
			return res.failPass(repo, passes0, tracker, err)
		}
		for _, g := range runs {
			if g.done {
				continue
			}
			st := states[g]
			res.RawProjectionsSeen += st.rawSeen
			if st.store.Count() > res.CanonicalPiecesPeak {
				res.CanonicalPiecesPeak = st.store.Count()
			}
		}

		// Offline cover of S from the canonical pieces (no pass).
		for _, g := range runs {
			if g.done {
				continue
			}
			st := states[g]
			solS, ok := solveCanonical(st.s, st.store, opts.Offline)
			if !ok {
				// Some sampled point lies in no shallow piece: this guess's
				// threshold was too aggressive. The guess continues — the
				// point stays in L for later iterations or the final pass.
				solS = nil
			}
			st.solS = solS
			st.picked = make(map[int]bool)
		}

		// Pass 3: replace chosen pieces by stream shapes covering them.
		if err := engine.RunOver(eng, src, liveGeomObservers(runs, func(g *geomRun) engine.ObserverOf[StreamShape] {
			return &replacePieceObserver{g: g, st: states[g], tracker: tracker}
		})...); err != nil {
			return res.failPass(repo, passes0, tracker, err)
		}

		for _, g := range runs {
			if g.done {
				continue
			}
			st := states[g]
			tracker.Shrink(st.words)
			if g.left.Empty() {
				g.done = true
			}
		}
	}

	// Final pass: one arbitrary shape per leftover point (≤ k of them when
	// the guess is right).
	if !geomAllDone(runs) {
		if err := engine.RunOver(eng, src, liveGeomObservers(runs, func(g *geomRun) engine.ObserverOf[StreamShape] {
			return &patchShapeObserver{g: g, tracker: tracker}
		})...); err != nil {
			return res.failPass(repo, passes0, tracker, err)
		}
	}

	best := -1
	for i, g := range runs {
		if g.done && (best < 0 || len(g.sol) < len(runs[best].sol)) {
			best = i
		}
	}
	res.Passes = repo.Passes() - passes0
	res.SpaceWords = tracker.Peak()
	if best < 0 {
		return res, ErrGeomNoCover
	}
	res.Cover = append([]int(nil), runs[best].sol...)
	res.Valid = true
	res.BestK = runs[best].k
	return res, nil
}

// liveGeomObservers wraps every guess that is still running as an engine
// observer, in run order (the engine's per-observer delivery keeps each
// guess's view sequential; disjoint per-guess state keeps results identical
// at every worker count). done only flips between passes — except in the
// final patch pass, whose observer re-checks it as it flips mid-pass.
func liveGeomObservers(runs []*geomRun, mk func(*geomRun) engine.ObserverOf[StreamShape]) []engine.ObserverOf[StreamShape] {
	obs := make([]engine.ObserverOf[StreamShape], 0, len(runs))
	for _, g := range runs {
		if !g.done {
			obs = append(obs, mk(g))
		}
	}
	return obs
}

// heavyShapeObserver runs pass 1 of an iteration for one guess: any shape
// covering at least n/k of the guess's leftover points is taken immediately.
type heavyShapeObserver struct {
	g       *geomRun
	n       int
	tracker *stream.Tracker
}

func (o *heavyShapeObserver) Observe(batch []StreamShape) {
	g := o.g
	for _, sh := range batch {
		cnt := g.left.IntersectionWithSlice(sh.Contained)
		if cnt > 0 && float64(cnt) >= float64(o.n)/float64(g.k) {
			g.sol = append(g.sol, sh.ID)
			o.tracker.Grow(1)
			g.left.SubtractSlice(sh.Contained)
		}
	}
}

// canonicalObserver runs pass 2 for one guess: every w-shallow shape with a
// non-empty sample projection contributes its canonical pieces (Lemma 4.2)
// to the guess's store.
type canonicalObserver struct {
	st      *geomIterState
	pts     []Point
	tracker *stream.Tracker
	proj    []int32 // scratch: the current shape's sample projection
}

func (o *canonicalObserver) Observe(batch []StreamShape) {
	st := o.st
	for _, sh := range batch {
		o.proj = st.s.AppendMembers(o.proj[:0], sh.Contained)
		if len(o.proj) == 0 || float64(len(o.proj)) > st.w {
			continue // empty or too heavy for the canonical family
		}
		st.rawSeen++
		before := st.store.Words()
		CanonicalPieces(st.store, st.tree, sh.Shape, o.proj, o.pts)
		grown := st.store.Words() - before
		if grown > 0 {
			st.words += grown
			o.tracker.Grow(grown)
		}
	}
}

// replacePieceObserver runs pass 3 for one guess: each chosen canonical
// piece is replaced by the first streamed shape whose sample projection
// contains it.
type replacePieceObserver struct {
	g       *geomRun
	st      *geomIterState
	tracker *stream.Tracker
	proj    []int32 // scratch: the current shape's sample projection
}

func (o *replacePieceObserver) Observe(batch []StreamShape) {
	g, st := o.g, o.st
	for _, sh := range batch {
		if len(st.solS) == 0 {
			return
		}
		o.proj = st.s.AppendMembers(o.proj[:0], sh.Contained)
		if len(o.proj) == 0 {
			continue
		}
		matched := false
		rest := st.solS[:0]
		for _, piece := range st.solS {
			if SubsetOfSorted(piece.Elems, o.proj) {
				matched = true
			} else {
				rest = append(rest, piece)
			}
		}
		st.solS = rest
		if matched && !st.picked[sh.ID] {
			st.picked[sh.ID] = true
			g.sol = append(g.sol, sh.ID)
			o.tracker.Grow(1)
			g.left.SubtractSlice(sh.Contained)
		}
	}
}

// patchShapeObserver runs the final pass for one guess: cover each remaining
// point with an arbitrary shape containing it.
type patchShapeObserver struct {
	g       *geomRun
	tracker *stream.Tracker
}

func (o *patchShapeObserver) Observe(batch []StreamShape) {
	g := o.g
	for _, sh := range batch {
		if g.done {
			return
		}
		if g.left.IntersectionWithSlice(sh.Contained) > 0 {
			g.sol = append(g.sol, sh.ID)
			o.tracker.Grow(1)
			g.left.SubtractSlice(sh.Contained)
			if g.left.Empty() {
				g.done = true
			}
		}
	}
}

func makeGeomRuns(n int, opts GeomOptions, tracker *stream.Tracker) []*geomRun {
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
	var runs []*geomRun
	for k := 1; k <= kMax; k *= 2 {
		if k < kMin {
			continue
		}
		g := &geomRun{k: k, left: bitset.New(n)}
		g.left.Fill()
		tracker.Grow(stream.WordsForBitset(n))
		runs = append(runs, g)
	}
	return runs
}

func geomAllDone(runs []*geomRun) bool {
	for _, g := range runs {
		if !g.done {
			return false
		}
	}
	return true
}

// solveCanonical covers the sampled points from the canonical pieces with
// the offline solver, returning the chosen pieces. ok is false if some
// sampled point is in no piece.
func solveCanonical(s *bitset.Bitset, store *CanonicalStore, solver offline.Solver) ([]Piece, bool) {
	proj := offline.NewProjections(nil)
	pieces := store.Pieces()
	for i, p := range pieces {
		proj.Add(i, p.Elems, s)
	}
	ids, err := proj.Solve(s, solver)
	if err != nil {
		return nil, false
	}
	out := make([]Piece, 0, len(ids))
	for _, id := range ids {
		out = append(out, pieces[id])
	}
	return out, true
}
