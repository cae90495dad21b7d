package pd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/setcover"
	"repro/internal/stream"
)

func plantedRepo(t *testing.T, n, m, k int, seed int64) (*setcover.Instance, *stream.SliceRepo) {
	t.Helper()
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return in, stream.NewSliceRepo(in)
}

func TestBatchedPrimalDualCovers(t *testing.T) {
	in, repo := plantedRepo(t, 300, 600, 10, 1)
	res, err := BatchedPrimalDual(repo, Options{ElemBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid || !in.IsCover(res.Cover) {
		t.Fatal("pd cover does not cover the universe")
	}
	wantPasses := res.Batches + 1
	if res.Passes != wantPasses {
		t.Fatalf("passes = %d, want batches+1 = %d", res.Passes, wantPasses)
	}
	if res.Batches != (300+63)/64 {
		t.Fatalf("batches = %d, want %d", res.Batches, (300+63)/64)
	}
	if res.MaxFrequency < 1 || res.Rounds < 1 || res.SpaceWords < int64(2*600) {
		t.Fatalf("implausible diagnostics: f=%d rounds=%d space=%d",
			res.MaxFrequency, res.Rounds, res.SpaceWords)
	}
	if res.CoverWeight != float64(len(res.Cover)) {
		t.Fatalf("unweighted CoverWeight %v != |cover| %d", res.CoverWeight, len(res.Cover))
	}
}

func TestBatchedPrimalDualWeighted(t *testing.T) {
	in, _ := plantedRepo(t, 200, 400, 8, 2)
	ws, err := gen.WeightedSlice(gen.WeightedConfig{Kind: gen.WeightUniform, M: 400, Lo: 0.5, Hi: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	in.Weights = ws
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	repo := stream.NewSliceRepo(in)
	res, err := BatchedPrimalDual(repo, Options{ElemBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(res.Cover) {
		t.Fatal("weighted pd cover does not cover the universe")
	}
	want := in.CoverWeight(res.Cover)
	if math.Abs(res.CoverWeight-want) > 1e-9 {
		t.Fatalf("CoverWeight %v != instance CoverWeight %v", res.CoverWeight, want)
	}
}

// The trivial mode must also produce a full cover, at one pass per element
// (plus verification), and generally along a different trajectory.
func TestTrivialMode(t *testing.T) {
	in, repo := plantedRepo(t, 60, 120, 5, 3)
	res, err := BatchedPrimalDual(repo, Options{Mode: ModeTrivial})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(res.Cover) {
		t.Fatal("trivial-mode cover does not cover the universe")
	}
	if res.Batches != 60 || res.Passes != 61 {
		t.Fatalf("trivial mode: batches=%d passes=%d, want 60/61", res.Batches, res.Passes)
	}
}

// One sequential observer per pass means results must be identical at every
// engine configuration.
func TestDeterministicAcrossEngineConfigs(t *testing.T) {
	_, repo := plantedRepo(t, 250, 500, 9, 4)
	ref, err := BatchedPrimalDual(repo, Options{ElemBatch: 50, Engine: engine.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, eo := range []engine.Options{
		{Workers: 2},
		{Workers: runtime.GOMAXPROCS(0), BatchSize: 16},
		{Workers: 2, DisableSegmented: true},
	} {
		in2, repo2 := plantedRepo(t, 250, 500, 9, 4)
		res, err := BatchedPrimalDual(repo2, Options{ElemBatch: 50, Engine: eo})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cover) != len(ref.Cover) || res.Rounds != ref.Rounds || res.SpaceWords != ref.SpaceWords {
			t.Fatalf("config %+v diverged: cover %d/%d rounds %d/%d space %d/%d",
				eo, len(res.Cover), len(ref.Cover), res.Rounds, ref.Rounds, res.SpaceWords, ref.SpaceWords)
		}
		for i := range ref.Cover {
			if res.Cover[i] != ref.Cover[i] {
				t.Fatalf("config %+v: cover[%d] differs", eo, i)
			}
		}
		if !in2.IsCover(res.Cover) {
			t.Fatal("cover invalid")
		}
	}
}

func TestInfeasible(t *testing.T) {
	in := &setcover.Instance{N: 4, Sets: []setcover.Set{{ID: 0, Elems: []setcover.Elem{0, 1}}}}
	_, err := BatchedPrimalDual(stream.NewSliceRepo(in), Options{})
	if !errors.Is(err, setcover.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	_, err = BatchedPrimalDual(stream.NewSliceRepo(&setcover.Instance{N: 3}), Options{})
	if !errors.Is(err, setcover.ErrInfeasible) {
		t.Fatalf("empty family: want ErrInfeasible, got %v", err)
	}
}

func TestBadEpsilon(t *testing.T) {
	_, repo := plantedRepo(t, 20, 40, 3, 5)
	for _, eps := range []float64{-1, math.Inf(1), math.NaN()} {
		if _, err := BatchedPrimalDual(repo, Options{Epsilon: eps}); err == nil {
			t.Fatalf("epsilon %v accepted", eps)
		}
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"dedicated": ModeDedicated, "trivial": ModeTrivial} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode accepted bogus")
	}
}

// matchRef solves in on two fresh SliceRepos, with BatchedPrimalDual and
// with batchedPrimalDualRef, and fails unless both return the same Result —
// cover, passes, space, rounds, batches, frequency and cover weight — and
// the same error text.
func matchRef(t *testing.T, in *setcover.Instance, opts Options) {
	t.Helper()
	got, gotErr := BatchedPrimalDual(stream.NewSliceRepo(in), opts)
	want, wantErr := batchedPrimalDualRef(stream.NewSliceRepo(in), opts)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("n=%d m=%d weighted=%v %+v: err %v, reference %v", in.N, len(in.Sets), in.Weights != nil, opts, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("n=%d m=%d weighted=%v %+v:\n got %+v\nwant %+v", in.N, len(in.Sets), in.Weights != nil, opts, got, want)
	}
}

// randomInstance draws a small family, infeasible now and then, with
// log-uniform costs in [0.05, 20] when weighted.
func randomInstance(rng *rand.Rand, weighted bool) *setcover.Instance {
	n, m := 1+rng.Intn(40), 1+rng.Intn(40)
	density := []float64{0.05, 0.2, 0.5}[rng.Intn(3)]
	in := &setcover.Instance{N: n, Sets: make([]setcover.Set, m)}
	for j := range in.Sets {
		in.Sets[j].ID = j
		for e := 0; e < n; e++ {
			if rng.Float64() < density {
				in.Sets[j].Elems = append(in.Sets[j].Elems, setcover.Elem(e))
			}
		}
	}
	if weighted {
		in.Weights = make([]float64, m)
		for j := range in.Weights {
			in.Weights[j] = 0.05 * math.Pow(400, rng.Float64())
		}
	}
	return in
}

// The raise-count loop must reproduce the reference's floats exactly: the
// same covers, rounds and errors on random weighted and unweighted
// families in both modes over several ε and batch sizes, on a family whose
// counts outgrow the memo tables, and on batch-paper's planted family.
func TestBatchedPrimalDualMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	epss := []float64{0.5, 0.1, 0.01, 2e-3}
	batches := []int{1, 3, 7, 64, 256}
	for i := 0; i < 300; i++ {
		in := randomInstance(rng, i%2 == 1)
		matchRef(t, in, Options{
			Mode:      Mode(rng.Intn(2)),
			Epsilon:   epss[rng.Intn(len(epss))],
			ElemBatch: batches[rng.Intn(len(batches))],
		})
	}

	// Counts past maxTable: one set must be raised about 1/ε = 10^5 times.
	far := &setcover.Instance{N: 3, Sets: []setcover.Set{
		{ID: 0, Elems: []setcover.Elem{0, 1, 2}},
		{ID: 1, Elems: []setcover.Elem{1}},
	}}
	for _, mode := range []Mode{ModeDedicated, ModeTrivial} {
		matchRef(t, far, Options{Mode: mode, Epsilon: 1e-5})
		far.Weights = []float64{1.5, 0.25}
		matchRef(t, far, Options{Mode: mode, Epsilon: 1e-5})
		far.Weights = nil
	}

	// batch-paper's family (planted n=2000, m=12000, K=80) at seed 1.
	genSet, _, _, err := gen.PlantedFunc(gen.PlantedConfig{N: 2000, M: 12000, K: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	paper := &setcover.Instance{N: 2000, Sets: make([]setcover.Set, 12000)}
	for j := range paper.Sets {
		paper.Sets[j] = genSet(j)
	}
	matchRef(t, paper, Options{})
}

// FuzzBatchedPrimalDual holds BatchedPrimalDual to batchedPrimalDualRef on
// small instances decoded from the fuzz input: n and m in [1, 48] from
// shape, set j's members from bits j·n … j·n+n−1 of data and, when
// weighted, its cost in [0.05, 20] from the byte after the bitmap; ε in
// [10⁻³, 0.5] from epsQ and ElemBatch in [1, 64] from batch.
func FuzzBatchedPrimalDual(f *testing.F) {
	vc, err := gen.VCWorstCase(gen.VCWorstCaseConfig{M: 13, VCDim: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fuzzShape(vc), uint16(0), uint8(3), false, false, fuzzBytes(vc))
	f.Add(fuzzShape(vc), uint16(0), uint8(3), false, true, fuzzBytes(vc))
	f.Add(fuzzShape(vc), uint16(20000), uint8(0), true, true, fuzzBytes(vc))
	infeasible := &setcover.Instance{N: 4, Sets: []setcover.Set{{ID: 0, Elems: []setcover.Elem{0, 1}}}}
	f.Add(fuzzShape(infeasible), uint16(40000), uint8(1), false, false, fuzzBytes(infeasible))
	f.Fuzz(func(t *testing.T, shape, epsQ uint16, batch uint8, trivial, weighted bool, data []byte) {
		n, m := int(shape%48)+1, int(shape/48%48)+1
		bit := func(i int) bool { return i/8 < len(data) && data[i/8]>>(i%8)&1 == 1 }
		in := &setcover.Instance{N: n, Sets: make([]setcover.Set, m)}
		for j := range in.Sets {
			in.Sets[j].ID = j
			for e := 0; e < n; e++ {
				if bit(j*n + e) {
					in.Sets[j].Elems = append(in.Sets[j].Elems, setcover.Elem(e))
				}
			}
		}
		if weighted {
			in.Weights = make([]float64, m)
			for j := range in.Weights {
				b := 0
				if k := (m*n+7)/8 + j; k < len(data) {
					b = int(data[k])
				}
				in.Weights[j] = 0.05 * math.Pow(400, float64(b)/255)
			}
		}
		mode := ModeDedicated
		if trivial {
			mode = ModeTrivial
		}
		matchRef(t, in, Options{
			Mode:      mode,
			Epsilon:   1e-3 * math.Pow(500, float64(epsQ)/math.MaxUint16),
			ElemBatch: int(batch%64) + 1,
		})
	})
}

// fuzzShape and fuzzBytes encode an instance with n, m ≤ 48 (costs are
// left to the decoder) in FuzzBatchedPrimalDual's input layout.
func fuzzShape(in *setcover.Instance) uint16 {
	return uint16(in.N - 1 + 48*(len(in.Sets)-1))
}

func fuzzBytes(in *setcover.Instance) []byte {
	data := make([]byte, (in.N*len(in.Sets)+7)/8+len(in.Sets))
	for j, s := range in.Sets {
		for _, e := range s.Elems {
			i := j*in.N + int(e)
			data[i/8] |= 1 << (i % 8)
		}
	}
	for j := range in.Sets {
		data[(in.N*len(in.Sets)+7)/8+j] = byte(37 * j)
	}
	return data
}

// A round cap beyond the int range fails before the first round, naming ε
// and no negative count; the plain loop's int conversion used to wrap it.
func TestRoundCapOverflow(t *testing.T) {
	in := &setcover.Instance{N: 3, Sets: []setcover.Set{{ID: 0, Elems: []setcover.Elem{0, 1, 2}}}}
	res, err := BatchedPrimalDual(stream.NewSliceRepo(in), Options{Epsilon: 1e-300})
	if err == nil {
		t.Fatal("eps=1e-300 converged")
	}
	if msg := err.Error(); !strings.Contains(msg, "eps=1e-300") || strings.Contains(msg, " -") {
		t.Fatalf("error %q must name eps=1e-300 and hold no negative count", msg)
	}
	if res.Rounds != 0 || res.Passes != 1 {
		t.Fatalf("rounds=%d passes=%d, want 0 rounds after the one gather pass", res.Rounds, res.Passes)
	}
}

// An ε whose dual sums stall below coverage fails after the first gather
// pass instead of running about 10^17 rounds: at ε = 1e-17 every sum stops
// at 0.125, where a lone set's x is about 0.09.
func TestDualStallFailsFast(t *testing.T) {
	in := &setcover.Instance{N: 3, Sets: []setcover.Set{{ID: 0, Elems: []setcover.Elem{0, 1, 2}}}}
	start := time.Now()
	res, err := BatchedPrimalDual(stream.NewSliceRepo(in), Options{Epsilon: 1e-17})
	if took := time.Since(start); took > time.Second {
		t.Fatalf("eps=1e-17 took %v, want under 1s", took)
	}
	if !errors.Is(err, ErrDualStall) {
		t.Fatalf("err = %v, want ErrDualStall", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "eps=1e-17") || !strings.Contains(msg, "at 0.125") {
		t.Fatalf("error %q must name eps=1e-17 and the stall value 0.125", msg)
	}
	if res.Rounds != 0 || res.Passes != 1 {
		t.Fatalf("rounds=%d passes=%d, want 0 rounds after the one gather pass", res.Rounds, res.Passes)
	}
}

// stallSum is exactly where y += ε stops: y_s + ε rounds back to y_s, and
// the float just below y_s still grows.
func TestStallSum(t *testing.T) {
	for _, c := range []struct {
		eps, ys float64
	}{
		{1e-17, 0.125},
		{2e-17, 0.25},
		{1e-16, 1},
		{1e-3, 1 << 44},
		{0.5, 1 << 52},
		{0x1p-60, 0x1p-7},
		{5e-324, 0x1p-1021},
	} {
		ys := stallSum(c.eps)
		if ys != c.ys {
			t.Errorf("stallSum(%g) = %g, want %g", c.eps, ys, c.ys)
		}
		if ys+c.eps != ys {
			t.Errorf("eps=%g: %g + eps grows", c.eps, ys)
		}
		if below := math.Nextafter(ys, 0); below+c.eps <= below {
			t.Errorf("eps=%g: the float below %g does not grow", c.eps, ys)
		}
	}
	if ys := stallSum(math.MaxFloat64); !math.IsInf(ys, 1) {
		t.Errorf("stallSum(MaxFloat64) = %g, want +Inf", ys)
	}
}

// batchedPrimalDualRef is the dual-raise loop BatchedPrimalDual replaced,
// kept verbatim as the oracle for its floats: it adds ε to a float Y_j per
// raise, sums coverage for every batch element every round, and calls
// math.Exp once per raise. TestBatchedPrimalDualMatchesRef and
// FuzzBatchedPrimalDual hold the raise-count loop to it.
func batchedPrimalDualRef(repo stream.Repository, opts Options) (Result, error) {
	res := Result{Stats: setcover.Stats{Algorithm: AlgorithmName}}
	n, m := repo.UniverseSize(), repo.NumSets()

	eps := opts.Epsilon
	if eps == 0 {
		eps = DefaultEpsilon
	}
	if !(eps > 0) || eps > math.MaxFloat64 {
		return res, fmt.Errorf("pd: epsilon %v out of (0, +Inf)", opts.Epsilon)
	}
	res.Extra = eps
	batch := opts.ElemBatch
	if batch <= 0 {
		batch = DefaultElemBatch
	}
	if opts.Mode == ModeTrivial {
		batch = 1
	}

	if n == 0 {
		res.Valid = true
		return res, nil
	}
	if m == 0 {
		return res, setcover.ErrInfeasible
	}

	eng := engine.New(opts.Engine)
	tracker := stream.NewTracker()
	weightOf := stream.WeightFunc(repo)
	costOf := func(j int) float64 {
		if weightOf == nil {
			return 1
		}
		return weightOf(j)
	}

	// Primal x and dual sums Y live for the whole run: 2m words.
	x := make([]float64, m)
	Y := make([]float64, m)
	tracker.Grow(2 * int64(m))
	d := float64(m)
	lnFactor := math.Log(1 + d)

	maxFreq := 0
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		res.Batches++

		// One pass: gather the incidence lists of the batch elements.
		// Set IDs fit int32 (the SCB1 dimension limit), halving the
		// footprint of the dominant per-batch structure.
		inc := make([][]int32, hi-lo)
		var incWords int64
		if err := eng.Run(repo, engine.Func(func(sets []setcover.Set) {
			for _, s := range sets {
				es := s.Elems
				i := sort.Search(len(es), func(i int) bool { return int(es[i]) >= lo })
				for ; i < len(es) && int(es[i]) < hi; i++ {
					inc[es[i]-setcover.Elem(lo)] = append(inc[es[i]-setcover.Elem(lo)], int32(s.ID))
				}
			}
		})); err != nil {
			res.Passes = repo.Passes()
			res.SpaceWords = tracker.Peak()
			return res, fmt.Errorf("pd: %w", err)
		}
		// Charge the incidence plus the round cap's input: the costliest
		// cheapest-option over the batch.
		maxMinCost := 0.0
		for i, sets := range inc {
			if len(sets) == 0 {
				res.Passes = repo.Passes()
				res.SpaceWords = tracker.Peak()
				return res, fmt.Errorf("%w: element %d in no set", setcover.ErrInfeasible, lo+i)
			}
			if len(sets) > maxFreq {
				maxFreq = len(sets)
			}
			minC := math.Inf(1)
			for _, j := range sets {
				if c := costOf(int(j)); c < minC {
					minC = c
				}
			}
			if minC > maxMinCost {
				maxMinCost = minC
			}
			incWords += stream.WordsForElems(len(sets))
		}
		tracker.Grow(incWords)

		// Dual-raise rounds. An element still undercovered after
		// ceil(minCost/ε) rounds would have pushed its cheapest set's Y past
		// its cost, forcing x ≥ 1 — so the cap below is unreachable unless
		// the arithmetic is broken, and hitting it is a loud bug, not a
		// tuning problem.
		roundCap := int(math.Ceil(maxMinCost/eps)) + 2
		touched := make([]int32, 0, 64)
		for round := 0; ; round++ {
			if round > roundCap {
				res.Passes = repo.Passes()
				res.SpaceWords = tracker.Peak()
				return res, fmt.Errorf("pd: batch [%d,%d) did not converge in %d rounds (eps=%g)", lo, hi, roundCap, eps)
			}
			touched = touched[:0]
			for _, sets := range inc {
				cov := 0.0
				for _, j := range sets {
					cov += x[j]
				}
				if cov < 1 {
					for _, j := range sets {
						Y[j] += eps
						touched = append(touched, j)
					}
				}
			}
			if len(touched) == 0 {
				break
			}
			res.Rounds++
			for _, j := range touched {
				x[j] = (math.Exp(lnFactor/costOf(int(j))*Y[j]) - 1) / d
			}
		}
		tracker.Shrink(incWords)
	}

	// Frequency rounding: every revealed element has Σ x over its ≤ maxFreq
	// covering sets ≥ 1, so one of them clears 1/maxFreq.
	threshold := 1 / float64(maxFreq)
	var cover []int
	picked := bitset.New(m)
	for j := 0; j < m; j++ {
		if x[j] >= threshold {
			cover = append(cover, j)
			picked.Set(j)
		}
	}
	tracker.Grow(stream.WordsForIDs(len(cover)))

	// Verification pass: the cover is complete by construction, but this
	// repository reports Valid only after checking against the actual stream.
	uncovered := bitset.New(n)
	uncovered.Fill()
	tracker.Grow(stream.WordsForBitset(n))
	if err := eng.Run(repo, engine.Func(func(sets []setcover.Set) {
		for _, s := range sets {
			if picked.Test(s.ID) {
				uncovered.SubtractSlice(s.Elems)
			}
		}
	})); err != nil {
		res.Passes = repo.Passes()
		res.SpaceWords = tracker.Peak()
		return res, fmt.Errorf("pd: %w", err)
	}

	res.Cover = cover
	res.Valid = uncovered.Empty()
	res.Passes = repo.Passes()
	res.SpaceWords = tracker.Peak()
	res.MaxFrequency = maxFreq
	res.CoverWeight = stream.CoverWeight(repo, cover)
	if !res.Valid {
		return res, fmt.Errorf("pd: rounded cover leaves %d elements uncovered", uncovered.Count())
	}
	return res, nil
}
