// Package maxcover implements the Max k-Cover problem, the primitive behind
// Saha and Getoor's streaming SetCover result [SG09] (the paper's Figure 1.1
// row "O(log n) approx / O(log n) passes"): given a set system and a budget
// k, pick k sets maximizing the number of covered elements.
//
// Three components:
//
//   - Greedy: the classic offline (1-1/e)-approximation;
//   - Streaming: a one-pass thresholding algorithm (accept a set whose
//     marginal gain is at least v/2k for a guessed optimum coverage v, all
//     guesses run in parallel within the single pass) with a constant-factor
//     guarantee — the standard semi-streaming treatment of SG09's primitive;
//   - SahaGetoorSetCover: SetCover by repeated Max k-Cover — each round runs
//     the one-pass algorithm on the residual instance and keeps everything
//     it picked; with k ≥ OPT a constant fraction of the leftovers is
//     covered per round, so O(log n) rounds = O(log n) passes suffice for an
//     O(log n)-approximation in Õ(n) space.
//
// Every pass here runs on the shared pass engine (internal/engine), like
// every other streaming algorithm in the repository: one engine.Run = one
// counted pass shared by all parallel guesses, each guess its own observer
// over disjoint state — so the guesses fan out across workers, segmentable
// repositories get data-parallel decode, and a pass that cannot be fully
// drained fails the solve with an error wrapping engine.ErrPassFailed
// instead of reporting a selection computed from a prefix of F.
package maxcover

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/offline"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// Result reports a Max k-Cover solution.
type Result struct {
	// Sets are the chosen set IDs, at most k of them.
	Sets []int
	// Covered is the number of elements the chosen sets cover.
	Covered int
	// Passes and SpaceWords follow the streaming accounting (zero for the
	// offline greedy).
	Passes     int
	SpaceWords int64
}

// Greedy is the offline (1-1/e)-approximation: k rounds of maximum marginal
// gain, ties toward the smaller set ID — offline.GreedyPicks with budget k,
// unit costs and nothing covered yet.
func Greedy(in *setcover.Instance, k int) (Result, error) {
	if k < 0 {
		return Result{}, fmt.Errorf("maxcover: negative budget %d", k)
	}
	var res Result
	for _, p := range offline.GreedyPicks(in.Sets, nil, bitset.New(in.N), k) {
		res.Sets = append(res.Sets, p.ID)
		res.Covered += len(p.Newly)
	}
	return res, nil
}

// coverageGuess is one parallel guess v of the optimum coverage: its own
// residual bitset and selection, disjoint from every other guess — which is
// what lets the engine run the guesses as independent observers.
type coverageGuess struct {
	v         float64
	k         int
	uncovered *bitset.Bitset
	sets      []int
	covered   int
	tracker   *stream.Tracker
}

// Observe implements engine.Observer: the one-pass thresholding rule for
// this guess.
func (g *coverageGuess) Observe(batch []setcover.Set) {
	for _, s := range batch {
		if len(g.sets) >= g.k {
			return
		}
		gain := g.uncovered.IntersectionWithSlice(s.Elems)
		if float64(gain) >= g.v/(2*float64(g.k)) {
			g.sets = append(g.sets, s.ID)
			g.tracker.Grow(1)
			g.covered += g.uncovered.SubtractSlice(s.Elems)
		}
	}
}

// Streaming solves Max k-Cover in one pass: for each guess v of the optimal
// coverage (powers of two up to n), accept an arriving set while fewer than
// k are held and its marginal gain is at least v/(2k). All guesses share the
// single physical pass (one engine.Run, each guess an observer); the best
// guess's selection is returned.
//
// engOpts configures the pass executor for this call; results are identical
// at every setting.
//
// Guarantee: for the guess with OPT/2 < v <= OPT, either k sets are taken
// (each adding >= v/2k, so coverage >= v/2 >= OPT/4) or every unpicked set
// had marginal gain < v/2k against the final selection, so OPT's k sets add
// less than v/2 beyond it — coverage >= OPT - v/2 >= OPT/2. Either way the
// result is a 1/4-approximation (the standard threshold analysis).
func Streaming(repo stream.Repository, k int, engOpts engine.Options) (Result, error) {
	eng := engine.New(engOpts)
	if k < 0 {
		return Result{}, fmt.Errorf("maxcover: negative budget %d", k)
	}
	n := repo.UniverseSize()
	tracker := stream.NewTracker()
	if n == 0 || k == 0 {
		return Result{SpaceWords: tracker.Peak()}, nil
	}
	passes0 := repo.Passes()

	var guesses []*coverageGuess
	obs := make([]engine.Observer, 0)
	for v := float64(1); v <= float64(2*n); v *= 2 {
		g := &coverageGuess{v: v, k: k, uncovered: bitset.New(n), tracker: tracker}
		g.uncovered.Fill()
		tracker.Grow(stream.WordsForBitset(n))
		guesses = append(guesses, g)
		obs = append(obs, g)
	}

	// One physical pass feeds every guess; a pass that fails mid-stream
	// (truncated or corrupt repository) delivered only a prefix of F, so the
	// selection is meaningless and the failure propagates.
	if err := eng.Run(repo, obs...); err != nil {
		return Result{Passes: repo.Passes() - passes0, SpaceWords: tracker.Peak()},
			fmt.Errorf("maxcover: %w", err)
	}

	best := guesses[0]
	for _, g := range guesses[1:] {
		if g.covered > best.covered {
			best = g
		}
	}
	return Result{
		Sets:       append([]int(nil), best.sets...),
		Covered:    best.covered,
		Passes:     repo.Passes() - passes0,
		SpaceWords: tracker.Peak(),
	}, nil
}

// sgRun is one parallel guess k of the [SG09] loop.
type sgRun struct {
	k         int
	uncovered *bitset.Bitset
	sol       []int
	done      bool // covered everything
	failed    bool // stuck: some element is in no set
}

// sgRoundObserver executes one round's thresholding for one live guess: the
// streaming max-cover rule against the guess's residual, with v guessed as
// the residual size.
type sgRoundObserver struct {
	r       *sgRun
	sets    []int
	counts  *bitset.Bitset
	taken   int
	thresh  float64
	tracker *stream.Tracker
}

// Observe implements engine.Observer.
func (rs *sgRoundObserver) Observe(batch []setcover.Set) {
	for _, s := range batch {
		if rs.taken >= rs.r.k {
			return
		}
		if g := rs.counts.IntersectionWithSlice(s.Elems); float64(g) >= rs.thresh {
			rs.sets = append(rs.sets, s.ID)
			rs.tracker.Grow(1)
			rs.counts.SubtractSlice(s.Elems)
			rs.taken++
		}
	}
}

// SahaGetoorSetCover solves SetCover by repeated one-pass Max k-Cover, the
// [SG09] strategy: guess k = OPT (all powers of two in parallel, sharing
// passes), and in each round keep everything the max-cover pass picked and
// drop the covered elements. With k >= OPT each round covers a constant
// fraction of the residual, so rounds (= passes) stay O(log n) and the
// output is an O(log n)-approximation in Õ(n) space.
//
// engOpts configures the pass executor for this call (internal/serve threads
// its per-solve options here); results are identical at every setting.
func SahaGetoorSetCover(repo stream.Repository, engOpts engine.Options) (setcover.Stats, error) {
	eng := engine.New(engOpts)
	st := setcover.Stats{Algorithm: "saha-getoor[SG09]"}
	passes0 := repo.Passes()
	n := repo.UniverseSize()
	tracker := stream.NewTracker()
	if n == 0 {
		st.Valid = true
		return st, nil
	}
	maxRounds := 4*int(math.Ceil(math.Log2(float64(n+1)))) + 8

	var runs []*sgRun
	kMax := 1 << uint(math.Ceil(math.Log2(float64(n))))
	if kMax < 1 {
		kMax = 1
	}
	for k := 1; k <= kMax; k *= 2 {
		r := &sgRun{k: k, uncovered: bitset.New(n)}
		r.uncovered.Fill()
		tracker.Grow(stream.WordsForBitset(n))
		runs = append(runs, r)
	}

	for round := 0; round < maxRounds; round++ {
		live := false
		for _, r := range runs {
			if !r.done && !r.failed {
				live = true
			}
		}
		if !live {
			break
		}

		// One shared pass: each live run is an observer executing the
		// streaming max-cover thresholding against its own residual.
		states := make(map[*sgRun]*sgRoundObserver)
		obs := make([]engine.Observer, 0, len(runs))
		for _, r := range runs {
			if r.done || r.failed {
				continue
			}
			rs := &sgRoundObserver{r: r, counts: r.uncovered.Clone(), tracker: tracker}
			before := rs.counts.Count()
			rs.thresh = float64(before) / (2 * float64(r.k))
			if rs.thresh < 1 {
				rs.thresh = 1
			}
			tracker.Grow(stream.WordsForBitset(n))
			states[r] = rs
			obs = append(obs, rs)
		}
		if err := eng.Run(repo, obs...); err != nil {
			st.Passes = repo.Passes() - passes0
			st.SpaceWords = tracker.Peak()
			return st, fmt.Errorf("maxcover: %w", err)
		}
		for _, r := range runs {
			if r.done || r.failed {
				continue
			}
			rs := states[r]
			r.sol = append(r.sol, rs.sets...)
			r.uncovered.CopyFrom(rs.counts)
			tracker.Shrink(stream.WordsForBitset(n))
			if r.uncovered.Empty() {
				r.done = true
				continue
			}
			// A round with no progress kills the guess: when k >= OPT some
			// optimal set covers >= residual/k >= threshold, so zero takes
			// mean the guess is below OPT (or leftovers are uncoverable).
			if rs.taken == 0 {
				r.failed = true
			}
		}
	}

	best := -1
	for i, r := range runs {
		if r.done && (best < 0 || len(r.sol) < len(runs[best].sol)) {
			best = i
		}
	}
	st.Passes = repo.Passes() - passes0
	st.SpaceWords = tracker.Peak()
	if best < 0 {
		return st, setcover.ErrInfeasible
	}
	st.Cover = append([]int(nil), runs[best].sol...)
	st.Valid = true
	return st, nil
}
