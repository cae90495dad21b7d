package comm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/maxcover"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// drainCount runs one engine pass over repo and returns how many sets the
// observer saw — the tests' replacement for a hand-rolled Begin/Next loop
// (every pass in this repository goes through the engine, including test
// drains of the protocol simulation).
func drainCount(t *testing.T, repo stream.Repository, opts engine.Options) int {
	t.Helper()
	count := 0
	if err := engine.New(opts).Run(repo, engine.Func(func(batch []setcover.Set) {
		count += len(batch)
	})); err != nil {
		t.Fatal(err)
	}
	return count
}

func TestProtocolRepoCrossings(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 40, M: 12, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	repo := NewProtocolRepo(stream.NewSliceRepo(in), 4)
	if repo.NumSets() != 12 || repo.UniverseSize() != 40 {
		t.Fatal("wrapper dims wrong")
	}
	// One full engine pass: 3 internal boundaries + 1 end-of-pass hand-off.
	if count := drainCount(t, repo, engine.Options{Workers: 1}); count != 12 {
		t.Fatalf("read %d sets", count)
	}
	if repo.Crossings() != 4 {
		t.Fatalf("crossings = %d, want 4", repo.Crossings())
	}
	if repo.Passes() != 1 {
		t.Fatalf("passes = %d", repo.Passes())
	}
	// A second pass doubles the crossings.
	drainCount(t, repo, engine.Options{Workers: 1})
	if repo.Crossings() != 8 {
		t.Fatalf("crossings after 2 passes = %d, want 8", repo.Crossings())
	}
}

// Hand-off accounting must be independent of the engine's batch size:
// boundaries are counted per batch span, and every batch size, from one set
// at a time to 256, must land on the same total — batches never align with
// player boundaries by accident.
func TestProtocolRepoCrossingsBatchInvariant(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 60, M: 97, K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const players = 5
	for _, batch := range []int{1, 2, 7, 32, 256} {
		repo := NewProtocolRepo(stream.NewSliceRepo(in), players)
		if count := drainCount(t, repo, engine.Options{Workers: 1, BatchSize: batch}); count != 97 {
			t.Fatalf("batch=%d: read %d sets", batch, count)
		}
		if repo.Crossings() != players {
			t.Fatalf("batch=%d: crossings = %d, want %d", batch, repo.Crossings(), players)
		}
	}
}

func TestProtocolRepoSinglePlayer(t *testing.T) {
	in, _, _, _ := gen.Planted(gen.PlantedConfig{N: 20, M: 6, K: 2, Seed: 2})
	repo := NewProtocolRepo(stream.NewSliceRepo(in), 1)
	drainCount(t, repo, engine.Options{})
	if repo.Crossings() != 1 {
		t.Fatalf("single player crossings = %d, want 1 (end-of-pass)", repo.Crossings())
	}
	// players < 1 clamps to 1.
	repo0 := NewProtocolRepo(stream.NewSliceRepo(in), 0)
	if repo0.players != 1 {
		t.Fatal("players should clamp to 1")
	}
}

// Observation 5.9 end-to-end: run real streaming algorithms through the
// protocol wrapper and check bits = crossings × space × 64 with
// crossings = passes × players.
func TestObservation59EndToEnd(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 256, M: 512, K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const players = 4

	repo := NewProtocolRepo(stream.NewSliceRepo(in), players)
	res, err := core.IterSetCover(repo, core.Options{Delta: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(res.Cover) {
		t.Fatal("cover invalid through the wrapper")
	}
	wantCrossings := res.Passes * players
	if repo.Crossings() != wantCrossings {
		t.Fatalf("crossings = %d, want passes×players = %d", repo.Crossings(), wantCrossings)
	}
	bits := ProtocolCost(repo.Crossings(), res.SpaceWords)
	if bits != int64(wantCrossings)*res.SpaceWords*64 {
		t.Fatal("ProtocolCost arithmetic wrong")
	}

	// The one-pass ER14 algorithm costs only `players` hand-offs.
	repo2 := NewProtocolRepo(stream.NewSliceRepo(in), players)
	st, err := baseline.EmekRosen(repo2, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if repo2.Crossings() != players {
		t.Fatalf("ER crossings = %d, want %d", repo2.Crossings(), players)
	}
	_ = st

	// The engine-migrated SG09 loop costs rounds×players hand-offs: the
	// faithful repeated-max-cover algorithm simulates as an O(log n)-round
	// protocol (the Figure 1.1 row Observation 5.9 prices).
	repo3 := NewProtocolRepo(stream.NewSliceRepo(in), players)
	sg, err := maxcover.SahaGetoorSetCover(repo3, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if repo3.Crossings() != sg.Passes*players {
		t.Fatalf("SG09 crossings = %d, want passes×players = %d", repo3.Crossings(), sg.Passes*players)
	}
}

// The wrapper carries the wrapped family's costs: a weighted repository
// stays weighted through the simulation, with the same cost per set.
func TestProtocolRepoKeepsWeights(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 40, M: 12, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stream.HasWeights(NewProtocolRepo(stream.NewSliceRepo(in), 3)) {
		t.Fatal("unweighted family reads as weighted through the wrapper")
	}
	in.Weights = make([]float64, in.M())
	for i := range in.Weights {
		in.Weights[i] = float64(i + 1)
	}
	repo := NewProtocolRepo(stream.NewSliceRepo(in), 3)
	for id := range in.Weights {
		if got := stream.WeightOf(repo, id); got != in.Weights[id] {
			t.Fatalf("set %d costs %v through the wrapper, want %v", id, got, in.Weights[id])
		}
	}
}

// The wrapper must forward mid-pass failures of the inner repository (its
// reader's Err): a truncated stream running through the protocol
// simulation still fails loudly at the solve entry points instead of
// reading as a short healthy pass.
func TestProtocolRepoForwardsReaderError(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 64, M: 128, K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := scdisk.Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	d, err := scdisk.NewRepo(bytes.NewReader(truncated), int64(len(truncated)))
	if err != nil {
		t.Fatal(err)
	}

	// A bare engine pass over the wrapped truncated stream is a failed pass.
	if err := engine.New(engine.Options{Workers: 1}).Run(NewProtocolRepo(d, 3)); !errors.Is(err, engine.ErrPassFailed) {
		t.Fatalf("engine pass over truncated protocol repo returned %v, want ErrPassFailed", err)
	}
	if _, err := core.IterSetCover(NewProtocolRepo(d, 3), core.Options{Delta: 0.5, Seed: 5}); err == nil {
		t.Fatal("IterSetCover over a truncated protocol-wrapped repo returned a cover")
	}
}

// flakyRepo wraps a repository with readers that fail after a fixed number
// of sets, with a reported error — the protocol-level failure injector.
type flakyRepo struct {
	stream.Repository
	failAfter int
}

var errFlaky = errors.New("injected protocol stream failure")

func (r *flakyRepo) Begin() stream.Reader {
	return &flakyReader{inner: r.Repository.Begin(), left: r.failAfter}
}

type flakyReader struct {
	inner stream.Reader
	left  int
	err   error
}

func (r *flakyReader) NextBatch(dst []setcover.Set) int {
	if r.err != nil {
		return 0
	}
	if r.left == 0 {
		r.err = errFlaky
		return 0
	}
	n := r.inner.NextBatch(dst[:0:min(cap(dst), r.left)])
	r.left -= n
	return n
}

func (r *flakyReader) Err() error { return r.err }

// Failure injection through the simulation: every engine-migrated algorithm
// solving over a flaky ProtocolRepo must return an error wrapping
// engine.ErrPassFailed and never a valid-looking cover — the protocol
// wrapper must not launder a failed pass into a short healthy one.
func TestFlakyProtocolRepoFailsEveryAlgorithm(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 96, M: 200, K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() stream.Repository {
		return NewProtocolRepo(&flakyRepo{Repository: stream.NewSliceRepo(in), failAfter: 60}, 4)
	}

	if st, err := maxcover.SahaGetoorSetCover(mk(), engine.Options{}); !errors.Is(err, engine.ErrPassFailed) {
		t.Fatalf("SG09 over flaky protocol repo: err=%v, want ErrPassFailed", err)
	} else if st.Valid || len(st.Cover) != 0 {
		t.Fatalf("SG09 failed run still reported a cover (size %d, valid=%v)", len(st.Cover), st.Valid)
	}

	if res, err := maxcover.Streaming(mk(), 4, engine.Options{}); !errors.Is(err, engine.ErrPassFailed) {
		t.Fatalf("Streaming over flaky protocol repo: err=%v, want ErrPassFailed", err)
	} else if len(res.Sets) != 0 {
		t.Fatalf("Streaming failed run still reported %d sets", len(res.Sets))
	}

	if _, err := core.IterSetCover(mk(), core.Options{Delta: 0.5, Seed: 7}); !errors.Is(err, engine.ErrPassFailed) {
		t.Fatalf("IterSetCover over flaky protocol repo: err=%v, want ErrPassFailed", err)
	}

	if st, err := baseline.OnePassGreedy(mk(), engine.Options{}); !errors.Is(err, engine.ErrPassFailed) {
		t.Fatalf("OnePassGreedy over flaky protocol repo: err=%v, want ErrPassFailed", err)
	} else if st.Valid || len(st.Cover) != 0 {
		t.Fatalf("OnePassGreedy failed run still reported a cover")
	}
}

// On the reduced ISC instance, the simulated protocol for an exact streaming
// solver would decide ISC; the measured cost vs the naive "ship the entire
// input" cost illustrates why Ω̃(m·n^δ) space is forced at few passes.
func TestProtocolOnReducedInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	isc := RandomISC(4, 2, 1.2, rng)
	inst, meta := BuildSetCover(isc)
	repo := NewProtocolRepo(stream.NewSliceRepo(inst), 2*meta.P)
	st, err := baseline.OnePassGreedy(repo, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(st.Cover) {
		t.Fatal("greedy failed on reduced instance")
	}
	if repo.Crossings() != 2*meta.P {
		t.Fatalf("one pass should cross %d boundaries, got %d", 2*meta.P, repo.Crossings())
	}
	if ProtocolCost(repo.Crossings(), st.SpaceWords) <= 0 {
		t.Fatal("protocol cost should be positive")
	}
}

// Recycle must reach the inner reader: a disk-backed pass through the
// simulation keeps its pooled decode buffers (the engine hands batches back
// through the wrapper).
func TestProtocolRepoForwardsRecycle(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 64, M: 300, K: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recycleCountRepo{Repository: stream.NewSliceRepo(in)}
	repo := NewProtocolRepo(rec, 3)
	if count := drainCount(t, repo, engine.Options{Workers: 1, BatchSize: 32}); count != 300 {
		t.Fatalf("read %d sets", count)
	}
	if rec.recycled != 300 {
		t.Fatalf("inner reader got %d sets back through Recycle, want 300", rec.recycled)
	}
}

// recycleCountRepo wraps a repository with readers that count recycled sets.
type recycleCountRepo struct {
	stream.Repository
	recycled int
}

func (r *recycleCountRepo) Begin() stream.Reader {
	return &recycleCountReader{Reader: r.Repository.Begin(), repo: r}
}

type recycleCountReader struct {
	stream.Reader
	repo *recycleCountRepo
}

func (r *recycleCountReader) Recycle(sets []setcover.Set) { r.repo.recycled += len(sets) }
