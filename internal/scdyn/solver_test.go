package scdyn

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// refGreedy is the oracle: the textbook exact greedy (max marginal gain,
// ties to the smallest ID) with none of the density-level machinery.
func refGreedy(in *setcover.Instance) ([]int, bool) {
	covered := make([]bool, in.N)
	used := make([]bool, len(in.Sets))
	cnt := 0
	var cover []int
	for cnt < in.N {
		best, bestGain := -1, 0
		for id, s := range in.Sets {
			if used[id] {
				continue
			}
			g := 0
			for _, e := range s.Elems {
				if !covered[e] {
					g++
				}
			}
			if g > bestGain { // ascending IDs: first max is the min-ID winner
				best, bestGain = id, g
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		cover = append(cover, best)
		for _, e := range in.Sets[best].Elems {
			if !covered[e] {
				covered[e] = true
				cnt++
			}
		}
	}
	sort.Ints(cover)
	return cover, cnt == in.N
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// engineMatrix is the conformance grid: every setting must yield the same
// cover byte for byte.
func engineMatrix() []engine.Options {
	return []engine.Options{
		{Workers: 1, BatchSize: 1},
		{Workers: 2, BatchSize: 3},
		{Workers: runtime.NumCPU(), BatchSize: 0},
		{Workers: runtime.NumCPU(), BatchSize: 64, DisableSegmented: true},
	}
}

func TestSolveMatchesReferenceGreedy(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 400, M: 80, K: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	want, feasible := refGreedy(in)
	if !feasible {
		t.Fatal("planted instance must be coverable")
	}
	st, err := Solve(stream.NewSliceRepo(in), engine.Options{Workers: 2})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !st.Valid || !intsEqual(st.Cover, want) {
		t.Fatalf("Solve cover %v (valid=%t), reference %v", st.Cover, st.Valid, want)
	}
	if st.Algorithm != AlgorithmName || st.Passes != 1 {
		t.Fatalf("stats = %+v, want algo %q with 1 pass", st, AlgorithmName)
	}
}

// TestSolveBackendConformance pins one cover across every backend the
// engine can drive — slice, func, disk, and a mutated dyn view — at every
// engine setting in the matrix.
func TestSolveBackendConformance(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 600, M: 90, K: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, writeBase(t, in))
	if _, err := r.Tombstone(5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.AppendSet([]setcover.Elem{0, 1, 2, 599}); err != nil {
		t.Fatal(err)
	}
	view := r.View()
	mut, err := view.Materialize()
	if err != nil {
		t.Fatal(err)
	}

	want, feasible := refGreedy(mut)
	if !feasible {
		t.Fatal("mutated family must still be coverable")
	}
	// The disk backend gets the mutated family flattened back to a plain
	// SCB1 file — same content through a different decode path.
	disk, err := scdisk.Open(writeBase(t, mut))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	backends := map[string]func() stream.Repository{
		"slice": func() stream.Repository { return stream.NewSliceRepo(mut) },
		"func": func() stream.Repository {
			return stream.NewSequentialFuncRepo(mut.N, len(mut.Sets), func(id int) setcover.Set {
				return mut.Sets[id]
			})
		},
		"disk": func() stream.Repository { return disk },
		"view": func() stream.Repository { return view },
	}
	for name, mk := range backends {
		for _, opts := range engineMatrix() {
			st, err := Solve(mk(), opts)
			if err != nil {
				t.Fatalf("%s w=%d b=%d: %v", name, opts.Workers, opts.BatchSize, err)
			}
			if !st.Valid || !intsEqual(st.Cover, want) {
				t.Fatalf("%s w=%d b=%d: cover %v, want %v", name, opts.Workers, opts.BatchSize, st.Cover, want)
			}
		}
	}
}

// TestIncrementalMatchesFull is the core conformance claim: after every
// mutation batch, EnsureAt's incremental answer equals a from-scratch Solve
// on the pinned view AND the reference greedy on the materialized family —
// at every engine setting.
func TestIncrementalMatchesFull(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 800, M: 120, K: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, writeBase(t, in))
	solver := NewSolver(r)

	// Prime at generation 0: a full solve (one engine pass).
	st0, inc, err := solver.EnsureAt(0, engine.Options{})
	if err != nil {
		t.Fatalf("prime: %v", err)
	}
	if inc || st0.Passes != 1 {
		t.Fatalf("prime: incremental=%t passes=%d, want full with 1 pass", inc, st0.Passes)
	}

	rng := rand.New(rand.NewSource(99))
	for batch := 0; batch < 6; batch++ {
		var ops []Op
		// A couple of tombstones (possibly hitting cover sets) and appends.
		for k := 0; k < 2; k++ {
			id := rng.Intn(r.NumSets())
			ops = append(ops, Op{Kind: OpTombstone, ID: id})
		}
		for k := 0; k < 2; k++ {
			elems := randomElems(rng, in.N, 1+rng.Intn(40))
			ops = append(ops, Op{Kind: OpAppend, Elems: elems})
		}
		ops = dedupeTombstones(r, ops)
		if _, err := r.Apply(ops); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		gen := r.Generation()
		view, err := r.ViewAt(gen)
		if err != nil {
			t.Fatal(err)
		}
		mutInst, err := view.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		refCover, feasible := refGreedy(mutInst)

		stInc, inc, incErr := solver.EnsureAt(gen, engine.Options{})
		if feasible {
			if incErr != nil {
				t.Fatalf("batch %d: EnsureAt: %v", batch, incErr)
			}
		} else if incErr != setcover.ErrInfeasible {
			t.Fatalf("batch %d: EnsureAt err = %v, want ErrInfeasible", batch, incErr)
		}
		if !inc || stInc.Passes != 0 {
			t.Fatalf("batch %d: incremental=%t passes=%d, want incremental with 0 passes", batch, inc, stInc.Passes)
		}
		if feasible && !intsEqual(stInc.Cover, refCover) {
			t.Fatalf("batch %d: incremental %v, reference %v", batch, stInc.Cover, refCover)
		}
		for _, opts := range engineMatrix() {
			stFull, fullErr := Solve(view, opts)
			if (fullErr == nil) != (incErr == nil) {
				t.Fatalf("batch %d: full err %v vs incremental err %v", batch, fullErr, incErr)
			}
			if !intsEqual(stFull.Cover, stInc.Cover) {
				t.Fatalf("batch %d w=%d: full %v vs incremental %v", batch, opts.Workers, stFull.Cover, stInc.Cover)
			}
		}
	}
}

// TestFallbackPathMatches trips the dirty-fraction fallback (t* = 0) with
// one record more than the threshold allows, and checks it still agrees
// with the full solve. The appended sets are too small to beat step 0's
// recorded gain, so the fallback is the only reason no prefix is reused.
func TestFallbackPathMatches(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 500, M: 70, K: 7, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, writeBase(t, in))
	solver := NewSolver(r)
	if _, _, err := solver.EnsureAt(0, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, int(fallbackDirtyFraction*float64(in.M()))+1)
	for i := range ops {
		ops[i] = Op{Kind: OpAppend, Elems: []setcover.Elem{setcover.Elem(i), setcover.Elem(250 + i), 499}}
	}
	if step0 := len(solver.core.steps[0].Newly); step0 <= 3 {
		t.Fatalf("step 0 gained %d; the 3-element appends must not beat it", step0)
	}
	if _, err := r.Apply(ops); err != nil {
		t.Fatal(err)
	}
	recs, err := r.Records(0, r.Generation())
	if err != nil {
		t.Fatal(err)
	}
	if tStar := solver.core.stablePrefix(recs); tStar == 0 {
		t.Fatal("the appends disturb step 0 without the fallback")
	}
	st, inc, err := solver.EnsureAt(r.Generation(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !inc || st.Passes != 0 {
		t.Fatalf("fallback still avoids the stream: incremental=%t passes=%d", inc, st.Passes)
	}
	if st.Extra != 0 {
		t.Fatalf("fallback reused prefix %v, want 0", st.Extra)
	}
	stFull, err := Solve(r.View(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !intsEqual(st.Cover, stFull.Cover) {
		t.Fatalf("fallback %v vs full %v", st.Cover, stFull.Cover)
	}
}

// TestInfeasibleAndBack drives the family infeasible by tombstoning the only
// set covering an element, then appends a repair set.
func TestInfeasibleAndBack(t *testing.T) {
	in := smallInstance()
	r := mustOpen(t, writeBase(t, in))
	solver := NewSolver(r)
	if _, _, err := solver.EnsureAt(0, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	// Sets 1 and 3 are the only ones with 4 and 5; kill both.
	if _, err := r.Apply([]Op{{Kind: OpTombstone, ID: 1}, {Kind: OpTombstone, ID: 3}}); err != nil {
		t.Fatal(err)
	}
	st, _, err := solver.EnsureAt(r.Generation(), engine.Options{})
	if err != setcover.ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if st.Valid {
		t.Fatal("stats claim valid on an uncoverable family")
	}
	if _, _, err := r.AppendSet([]setcover.Elem{4, 5}); err != nil {
		t.Fatal(err)
	}
	st, inc, err := solver.EnsureAt(r.Generation(), engine.Options{})
	if err != nil || !st.Valid {
		t.Fatalf("after repair: err=%v valid=%t", err, st.Valid)
	}
	if !inc {
		t.Fatal("repair should be incremental")
	}
	want, _ := refGreedy(mustMaterialize(t, r.View()))
	if !intsEqual(st.Cover, want) {
		t.Fatalf("repaired cover %v, reference %v", st.Cover, want)
	}
}

// TestEnsureAtOldGeneration asks the solver to step back to an older pinned
// generation: it must re-ingest that view, not serve newer state.
func TestEnsureAtOldGeneration(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 300, M: 40, K: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, writeBase(t, in))
	solver := NewSolver(r)
	if _, _, err := solver.EnsureAt(0, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	want0, _ := refGreedy(mustMaterialize(t, r.View()))
	if _, _, err := r.AppendSet([]setcover.Elem{0, 150, 299}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := solver.EnsureAt(1, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	st, inc, err := solver.EnsureAt(0, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inc {
		t.Fatal("rolling back must be a full solve")
	}
	if !intsEqual(st.Cover, want0) {
		t.Fatalf("gen-0 cover %v, want %v", st.Cover, want0)
	}
	if g := solver.Generation(); g != 1 {
		t.Fatalf("stale-generation request rolled state back to %d, want 1", g)
	}
}

// TestEnsureAtFailedPassMatchesSolve cuts the multi-chunk planted file at
// 3/5 of its bytes. Its header is intact, so it opens, and the ingest pass
// fails. EnsureAt's full solve must report that failure as Solve does on the
// same view: the algorithm, the one pass, the mirror's words and the scdyn
// prefix on an error wrapping engine.ErrPassFailed. It keeps no state, so a
// second call ingests and fails again.
func TestEnsureAtFailedPassMatchesSolve(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 1000, M: 2000, K: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := scdisk.Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.scb")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()*3/5], 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, path)
	eng := engine.Options{Workers: 1}

	want, wantErr := Solve(r.View(), eng)
	if !errors.Is(wantErr, engine.ErrPassFailed) || want.Algorithm != AlgorithmName || want.Passes != 1 || want.SpaceWords <= 0 {
		t.Fatalf("Solve: %+v (%v), want one failed %s pass and its space", want, wantErr, AlgorithmName)
	}
	solver := NewSolver(r)
	for call := 1; call <= 2; call++ {
		got, incremental, err := solver.EnsureAt(0, eng)
		if incremental || !reflect.DeepEqual(got, want) || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("EnsureAt call %d: %+v incremental=%t (%v), want %+v (%v)", call, got, incremental, err, want, wantErr)
		}
	}
}

func mustMaterialize(t *testing.T, v *View) *setcover.Instance {
	t.Helper()
	in, err := v.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// randomElems draws k distinct sorted elements from [0, n).
func randomElems(rng *rand.Rand, n, k int) []setcover.Elem {
	seen := map[int]bool{}
	for len(seen) < k && len(seen) < n {
		seen[rng.Intn(n)] = true
	}
	out := make([]setcover.Elem, 0, len(seen))
	for e := range seen {
		out = append(out, setcover.Elem(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dedupeTombstones drops tombstone ops whose target is already dead (or
// repeated within the batch), keeping random batches valid.
func dedupeTombstones(r *Repo, ops []Op) []Op {
	recs, _ := r.Records(0, r.Generation())
	dead := map[int]bool{}
	for _, rec := range recs {
		if rec.Kind == OpTombstone {
			dead[rec.ID] = true
		}
	}
	out := ops[:0]
	for _, op := range ops {
		if op.Kind == OpTombstone {
			if dead[op.ID] {
				continue
			}
			dead[op.ID] = true
		}
		out = append(out, op)
	}
	if len(out) == 0 {
		out = append(out, Op{Kind: OpAppend, Elems: []setcover.Elem{0}})
	}
	return out
}
