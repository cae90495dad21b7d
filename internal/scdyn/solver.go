package scdyn

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/offline"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// The dynamic solver ("dyn" on the wire) maintains an EXACT greedy cover —
// max marginal gain, ties to the smallest set ID — under append/tombstone
// mutations. The selection loop is offline.GreedyPicks, the repository's one
// exact-greedy kernel; this package adds the in-memory mirror of the family,
// the selection trace, and the replay that decides how much of the trace a
// mutation batch leaves standing.
//
// Incrementality comes from prefix-stable replay rather than patching the
// cover in place: a greedy trace step t survives a delta batch iff no record
// can change what step t selected —
//
//   - tombstoning a set the trace never selected cannot disturb any step
//     (removing a losing candidate never changes a winner, and the winner's
//     own gain is untouched);
//   - tombstoning the set selected at step t invalidates steps t onward;
//   - an appended set disturbs the first step t where its residual gain
//     STRICTLY exceeds the step's recorded gain (appended IDs are the
//     largest, so ties lose to the incumbent).
//
// The stable prefix is the minimum over all records; the solver truncates
// the trace there and lets the kernel resume from the prefix's coverage.
// Because the resumed loop is the same code as the from-scratch loop,
// incremental and full solves agree by construction — the conformance suite
// then pins that equality across backends and engine settings. When a batch
// dirties more than fallbackDirtyFraction of the family the prefix analysis
// is skipped (t* = 0): still no stream pass, just a fresh greedy over the
// in-memory mirror.

// fallbackDirtyFraction is the dirty-fraction threshold above which EnsureAt
// skips prefix analysis and re-runs greedy from scratch over the mirror
// (DESIGN.md §11).
const fallbackDirtyFraction = 0.2

// AlgorithmName is the Stats.Algorithm / wire name of this solver.
const AlgorithmName = "dyn"

// coreState is the from-scratch/resumable greedy machine: the in-memory
// mirror of the family plus the selection trace. It is shared by the
// stateless Solve and the stateful Solver.
type coreState struct {
	n       int
	sets    []setcover.Set // index = set ID; tombstoned sets have no elements
	steps   []offline.Pick
	stepOf  map[int]int // set ID -> index in steps
	covered *bitset.Bitset
	valid   bool
}

func newCoreState(n int) *coreState {
	return &coreState{n: n, stepOf: make(map[int]int), covered: bitset.New(n)}
}

// ingest mirrors one full pass of repo into memory. Observer batches are
// indexed by set ID, so the mirror is identical at every Workers/BatchSize
// setting — the whole determinism story of the incremental path rests on
// that line. Elements are copied: batch slices belong to the engine.
func (c *coreState) ingest(repo stream.Repository, eng engine.Options) error {
	c.sets = make([]setcover.Set, repo.NumSets())
	return engine.New(eng).Run(repo, engine.Func(func(batch []setcover.Set) {
		for _, s := range batch {
			c.sets[s.ID] = setcover.Set{ID: s.ID, Elems: append([]setcover.Elem(nil), s.Elems...)}
		}
	}))
}

// greedy runs the kernel from the current trace until the universe is
// covered or no set has positive gain. A set the trace already selected has
// every element covered, so its gain is 0 and the kernel never picks it
// again: calling greedy after a truncated trace IS the incremental re-solve.
func (c *coreState) greedy() {
	for _, p := range offline.GreedyPicks(c.sets, nil, c.covered, len(c.sets)) {
		c.stepOf[p.ID] = len(c.steps)
		c.steps = append(c.steps, p)
	}
	c.valid = c.covered.Count() == c.n
}

// truncate rewinds the trace to its first t steps and rebuilds coverage.
func (c *coreState) truncate(t int) {
	if t >= len(c.steps) {
		return
	}
	c.steps = c.steps[:t]
	c.covered = bitset.New(c.n)
	c.stepOf = make(map[int]int, t)
	for i, st := range c.steps {
		c.stepOf[st.ID] = i
		for _, e := range st.Newly {
			c.covered.Set(int(e))
		}
	}
	c.valid = false
}

// stablePrefix returns the length of the trace prefix no record in recs can
// disturb (the t* of the package comment).
//
// For appended sets it exploits two monotonicities of an exact greedy trace:
// recorded gains never increase along the trace, and an appended set's
// residual gain only drops at the steps that covered one of its elements. So
// instead of replaying the trace element by element, it looks up each
// element's covering step in a table built once per batch, and between those
// ≤|set| breakpoints — where the residual gain is constant — binary-searches
// the recorded gains for the first step the appended set would strictly beat.
func (c *coreState) stablePrefix(recs []Rec) int {
	t := len(c.steps)
	var elemStep []int32 // element -> trace step that covered it; -1 = uncovered
	for _, rec := range recs {
		switch rec.Kind {
		case OpTombstone:
			if idx, ok := c.stepOf[rec.ID]; ok && idx < t {
				t = idx
			}
		case OpAppend:
			if len(rec.Elems) == 0 {
				continue
			}
			if elemStep == nil {
				elemStep = make([]int32, c.n)
				for i := range elemStep {
					elemStep[i] = -1
				}
				for i, st := range c.steps {
					for _, e := range st.Newly {
						elemStep[e] = int32(i)
					}
				}
			}
			// Breakpoints: the residual gain at step i counts exactly the
			// elements with covering step >= i (or none), so it drops by one
			// right after each covering step in bps.
			bps := make([]int32, 0, len(rec.Elems))
			for _, e := range rec.Elems {
				if s := elemStep[e]; s >= 0 {
					bps = append(bps, s)
				}
			}
			sort.Slice(bps, func(i, j int) bool { return bps[i] < bps[j] })
			g := len(rec.Elems)
			start, k := 0, 0
			for start < t && g > 0 {
				end := t
				if k < len(bps) && int(bps[k])+1 < end {
					end = int(bps[k]) + 1
				}
				// Residual gain is g throughout [start, end); recorded gains
				// are non-increasing, so the first step it strictly beats is
				// the first with a recorded gain below g.
				i := start + sort.Search(end-start, func(j int) bool {
					return len(c.steps[start+j].Newly) < g
				})
				if i < end {
					t = i
					break
				}
				if k >= len(bps) {
					break
				}
				for b := bps[k]; k < len(bps) && bps[k] == b; k++ {
					g--
				}
				start = end
			}
		}
	}
	return t
}

// apply folds records into the mirror. Record IDs are trusted — they come
// from Repo, which validated them against the family when they were minted.
func (c *coreState) apply(recs []Rec) error {
	for _, rec := range recs {
		switch rec.Kind {
		case OpAppend:
			if rec.ID != len(c.sets) {
				return fmt.Errorf("scdyn: append record id %d, mirror has %d sets", rec.ID, len(c.sets))
			}
			c.sets = append(c.sets, setcover.Set{ID: rec.ID, Elems: rec.Elems})
		case OpTombstone:
			if rec.ID < 0 || rec.ID >= len(c.sets) {
				return fmt.Errorf("scdyn: tombstone record id %d out of [0, %d)", rec.ID, len(c.sets))
			}
			c.sets[rec.ID].Elems = nil
		default:
			return fmt.Errorf("scdyn: unknown record kind %d", byte(rec.Kind))
		}
	}
	return nil
}

// stats assembles the result: cover in ascending ID order, space charged
// for the mirror, the inverted index and gain array greedy builds (the
// high-water mark — both live only during the loop), the coverage bitset,
// and the trace. Extra reports how many trace steps the solve reused (0 for
// a from-scratch run).
func (c *coreState) stats(passes, reused int) setcover.Stats {
	cover := make([]int, 0, len(c.steps))
	for _, st := range c.steps {
		cover = append(cover, st.ID)
	}
	sort.Ints(cover)
	return setcover.Stats{
		Algorithm: AlgorithmName,
		Cover:     cover,
		Valid:     c.valid,
		Passes:    passes,
		SpaceWords: stream.WordsForElems(2*c.elems()) + stream.WordsForBitset(c.n) +
			stream.WordsForIDs(len(c.steps)+len(c.sets)),
		Extra: float64(reused),
	}
}

// elems counts the mirror's elements.
func (c *coreState) elems() int {
	total := 0
	for _, s := range c.sets {
		total += len(s.Elems)
	}
	return total
}

// Solve is the stateless entry point: one engine pass to mirror repo (any
// backend — slice, func, disk, or a scdyn view), then the exact greedy.
// Returns setcover.ErrInfeasible (with the partial cover in Stats) when the
// family cannot cover the universe. A failed pass is reported with the
// passes it used and the space of the mirror it had built: the mirrored
// elements, the coverage bitset and one ID word per set.
func Solve(repo stream.Repository, eng engine.Options) (setcover.Stats, error) {
	_, st, err := solveFresh(repo, eng)
	return st, err
}

// solveFresh is Solve that also returns the solved state, nil when the pass
// failed.
func solveFresh(repo stream.Repository, eng engine.Options) (*coreState, setcover.Stats, error) {
	passes0 := repo.Passes()
	c := newCoreState(repo.UniverseSize())
	if err := c.ingest(repo, eng); err != nil {
		return nil, setcover.Stats{
			Algorithm: AlgorithmName,
			Passes:    repo.Passes() - passes0,
			SpaceWords: stream.WordsForElems(c.elems()) + stream.WordsForBitset(c.n) +
				stream.WordsForIDs(len(c.sets)),
		}, fmt.Errorf("scdyn: %w", err)
	}
	c.greedy()
	st := c.stats(1, 0)
	if !c.valid {
		return c, st, setcover.ErrInfeasible
	}
	return c, st, nil
}

// Solver is the stateful maintenance engine bound to one mutable Repo: it
// remembers the mirror and the greedy trace of the last generation it
// solved, and EnsureAt catches that state up to a later generation without
// touching the stream again.
type Solver struct {
	mu sync.Mutex
	r  *Repo

	core   *coreState
	gen    int
	digest string
}

// NewSolver returns a Solver bound to r with no state yet — the first
// EnsureAt performs the full ingest-and-solve.
func NewSolver(r *Repo) *Solver { return &Solver{r: r} }

// EnsureAt brings the cover to generation gen and returns its stats.
// incremental reports whether the call reused prior state (Passes 0: no
// stream pass) rather than ingesting from scratch (Passes 1). A failed
// ingest pass is reported as Solve reports it and leaves the state as it
// was. Calls serialize; views pinned at gen keep the result meaningful even
// if the repo mutates concurrently.
func (s *Solver) EnsureAt(gen int, eng engine.Options) (st setcover.Stats, incremental bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.core != nil && s.gen == gen {
		st = s.core.stats(0, len(s.core.steps))
		if !s.core.valid {
			return st, true, setcover.ErrInfeasible
		}
		return st, true, nil
	}

	if s.core == nil || s.gen > gen {
		// No state, or asked for a generation BEHIND the state: full solve
		// against the pinned view. State only ever advances — answering a
		// stale-generation request (a client still addressing an old digest)
		// must not roll the maintained cover back under fresher requests.
		view, verr := s.r.ViewAt(gen)
		if verr != nil {
			return setcover.Stats{}, false, verr
		}
		var c *coreState
		c, st, err = solveFresh(view, eng)
		if c != nil && s.core == nil {
			s.core, s.gen, s.digest = c, gen, view.Digest()
		}
		return st, false, err
	}

	recs, rerr := s.r.Records(s.gen, gen)
	if rerr != nil {
		return setcover.Stats{}, false, rerr
	}
	c := s.core
	tStar := 0
	if m := len(c.sets); m == 0 || float64(len(recs))/float64(m) <= fallbackDirtyFraction {
		tStar = c.stablePrefix(recs)
	}
	c.truncate(tStar)
	if aerr := c.apply(recs); aerr != nil {
		// The mirror diverged from the log — discard state rather than
		// serve from a chimera; the next call re-ingests.
		s.core = nil
		return setcover.Stats{}, false, aerr
	}
	c.greedy()
	s.gen = gen
	if s.digest, err = s.r.DigestAt(gen); err != nil {
		return setcover.Stats{}, false, err
	}
	st = c.stats(0, tStar)
	if !c.valid {
		return st, true, setcover.ErrInfeasible
	}
	return st, true, nil
}

// Generation returns the generation of the solver's state (-1 before the
// first solve).
func (s *Solver) Generation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.core == nil {
		return -1
	}
	return s.gen
}
