package baseline

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/maxcover"
	"repro/internal/obs"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// Every baseline must be unable to tell the storage backends apart: identical
// covers, pass counts, and space charges on SliceRepo, FuncRepo, and
// DiskRepo. Together with core's TestIterSetCoverBackendConformance this
// covers all seven algorithms of the repository (plus the faithful SG09
// loop from internal/maxcover, which scans through Reader.Next directly and
// so exercises the disk backend's unbatched path).
func TestBaselineBackendConformance(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 350, M: 800, K: 14, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "conf.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	backends := []struct {
		name string
		mk   func() stream.Repository
	}{
		{"slice", func() stream.Repository { return stream.NewSliceRepo(in) }},
		{"func", func() stream.Repository {
			return stream.NewFuncRepo(in.N, in.M(), func(id int) setcover.Set {
				es := make([]setcover.Elem, len(in.Sets[id].Elems))
				copy(es, in.Sets[id].Elems)
				return setcover.Set{ID: id, Elems: es}
			})
		}},
		{"disk", func() stream.Repository {
			d, err := scdisk.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}},
	}

	algos := []struct {
		name string
		run  func(stream.Repository, ...engine.Options) (setcover.Stats, error)
	}{
		{"greedy-1pass", OnePassGreedy},
		{"greedy-npass", MultiPassGreedy},
		{"threshold-greedy", ThresholdGreedy},
		{"emek-rosen", EmekRosen},
		{"chakrabarti-wirth", func(r stream.Repository, eo ...engine.Options) (setcover.Stats, error) {
			return ChakrabartiWirth(r, 3, eo...)
		}},
		{"dimv14", func(r stream.Repository, eo ...engine.Options) (setcover.Stats, error) {
			return DIMV14(r, DIMV14Options{Delta: 0.5, Seed: 5}, eo...)
		}},
		{"saha-getoor", func(r stream.Repository, _ ...engine.Options) (setcover.Stats, error) {
			return maxcover.SahaGetoorSetCover(r)
		}},
	}

	// Sweep the per-call executor options across worker counts: workers = 1
	// is the sequential reference, workers > 1 decodes segmentable backends
	// (func and the indexed SCB1 file) through the segmented parallel path.
	// The baselines must be unable to tell any of it apart.
	engines := []engine.Options{
		{Workers: 1},
		{Workers: 2},
		{Workers: runtime.GOMAXPROCS(0)},
	}
	for _, algo := range algos {
		ref, err := algo.run(stream.NewSliceRepo(in), engine.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: reference run: %v", algo.name, err)
		}
		if !ref.Valid || !in.IsCover(ref.Cover) {
			t.Fatalf("%s: reference cover invalid", algo.name)
		}
		for _, engOpts := range engines {
			for _, b := range backends {
				label := fmt.Sprintf("%s/%s/workers=%d", algo.name, b.name, engOpts.Workers)
				st, err := algo.run(b.mk(), engOpts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if st.Passes != ref.Passes {
					t.Errorf("%s: passes %d, want %d", label, st.Passes, ref.Passes)
				}
				if st.SpaceWords != ref.SpaceWords {
					t.Errorf("%s: space %d, want %d", label, st.SpaceWords, ref.SpaceWords)
				}
				if len(st.Cover) != len(ref.Cover) {
					t.Fatalf("%s: cover size %d, want %d", label, len(st.Cover), len(ref.Cover))
				}
				for i := range ref.Cover {
					if st.Cover[i] != ref.Cover[i] {
						t.Fatalf("%s: cover[%d] = %d, want %d", label, i, st.Cover[i], ref.Cover[i])
					}
				}
			}
		}
	}
}

// A truncated SCB1 file must fail EVERY algorithm loudly — a pass that ends
// early poisons the run, and no baseline may hand back a valid-looking cover
// computed from a prefix of the family. (This is the regression test for the
// silent-truncation bug: before pass failure became an engine concept, only
// cmd/setcover polled the repository's error flag, and library callers got
// covers from partial scans.)
func TestTruncatedFileFailsEveryBaseline(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 350, M: 800, K: 14, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := scdisk.Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()*3/5] // chops sets, footer, and trailer

	algos := []struct {
		name string
		run  func(stream.Repository) (setcover.Stats, error)
	}{
		{"greedy-1pass", func(r stream.Repository) (setcover.Stats, error) { return OnePassGreedy(r) }},
		{"greedy-npass", func(r stream.Repository) (setcover.Stats, error) { return MultiPassGreedy(r) }},
		{"threshold-greedy", func(r stream.Repository) (setcover.Stats, error) { return ThresholdGreedy(r) }},
		{"emek-rosen", func(r stream.Repository) (setcover.Stats, error) { return EmekRosen(r) }},
		{"chakrabarti-wirth", func(r stream.Repository) (setcover.Stats, error) {
			return ChakrabartiWirth(r, 3)
		}},
		{"dimv14", func(r stream.Repository) (setcover.Stats, error) {
			return DIMV14(r, DIMV14Options{Delta: 0.5, Seed: 5})
		}},
		{"saha-getoor", func(r stream.Repository) (setcover.Stats, error) {
			return maxcover.SahaGetoorSetCover(r)
		}},
	}
	for _, algo := range algos {
		d, err := scdisk.NewRepo(bytes.NewReader(truncated), int64(len(truncated)))
		if err != nil {
			t.Fatalf("%s: truncated file should still open (the header is intact): %v", algo.name, err)
		}
		st, err := algo.run(d)
		if err == nil {
			t.Fatalf("%s: solved a truncated family without error (cover size %d, valid=%v)",
				algo.name, len(st.Cover), st.Valid)
		}
		if st.Valid || len(st.Cover) != 0 {
			t.Fatalf("%s: failed run still reported a cover (size %d, valid=%v)",
				algo.name, len(st.Cover), st.Valid)
		}
	}
}

// greedy-npass stops its argmax once a set reaches the bound, but the pass
// still decodes every set after it: a corrupt set there must fail the solve
// on both decode paths. Set 0 covers the universe, so it reaches the
// first pass's bound n at once; set 1's count byte is overwritten with one
// above n, keeping the index valid.
func TestMultiPassGreedyCorruptSetAfterBoundHit(t *testing.T) {
	const n = 8
	in := &setcover.Instance{N: n, Sets: []setcover.Set{{}, {Elems: []setcover.Elem{1, 2}}, {Elems: []setcover.Elem{3}}}}
	for e := 0; e < n; e++ {
		in.Sets[0].Elems = append(in.Sets[0].Elems, setcover.Elem(e))
	}
	in.Normalize()
	var buf bytes.Buffer
	if err := scdisk.Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	clean, err := scdisk.NewRepoBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	off, _, _, ok := clean.SetSpan(1)
	if !ok || data[off] != 2 {
		t.Fatal("test construction broken: set 1's count is not the single byte 2")
	}
	data[off] = n + 1
	for _, workers := range []int{1, 2} {
		d, err := scdisk.NewRepoBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if !d.HasIndex() {
			t.Fatal("the index must still validate: only set data is corrupt")
		}
		st, err := MultiPassGreedy(d, engine.Options{Workers: workers, BatchSize: 1})
		if !errors.Is(err, engine.ErrPassFailed) {
			t.Fatalf("workers=%d: err = %v, want one wrapping engine.ErrPassFailed", workers, err)
		}
		if st.Valid || len(st.Cover) != 0 {
			t.Fatalf("workers=%d: failed solve reported a cover %v", workers, st.Cover)
		}
	}
}

// The ε-partial variants must conform as well (they stop accepting mid-pass,
// which stresses the drain-everything contract on every backend).
func TestPartialBaselineBackendConformance(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 240, M: 520, K: 12, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "conf.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	const eps = 0.15
	algos := []struct {
		name string
		run  func(stream.Repository) (setcover.Stats, error)
	}{
		{"greedyn-partial", func(r stream.Repository) (setcover.Stats, error) {
			return MultiPassGreedyPartial(r, eps)
		}},
		{"threshold-partial", func(r stream.Repository) (setcover.Stats, error) {
			return ThresholdGreedyPartial(r, eps)
		}},
		{"er14-partial", func(r stream.Repository) (setcover.Stats, error) {
			return EmekRosenPartial(r, eps)
		}},
		{"cw16-partial", func(r stream.Repository) (setcover.Stats, error) {
			return ChakrabartiWirthPartial(r, 2, eps)
		}},
	}
	for _, algo := range algos {
		ref, err := algo.run(stream.NewSliceRepo(in))
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		if !in.IsPartialCover(ref.Cover, eps) {
			t.Fatalf("%s: reference not a (1-eps)-cover", algo.name)
		}
		d, err := scdisk.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := algo.run(d)
		d.Close()
		if err != nil {
			t.Fatalf("%s/disk: %v", algo.name, err)
		}
		if st.Passes != ref.Passes || st.SpaceWords != ref.SpaceWords || len(st.Cover) != len(ref.Cover) {
			t.Fatalf("%s/disk: stats diverge: passes %d/%d space %d/%d cover %d/%d",
				algo.name, st.Passes, ref.Passes, st.SpaceWords, ref.SpaceWords, len(st.Cover), len(ref.Cover))
		}
		for i := range ref.Cover {
			if st.Cover[i] != ref.Cover[i] {
				t.Fatalf("%s/disk: cover[%d] differs", algo.name, i)
			}
		}
	}
}

// Concurrent solves with DIFFERENT per-call engine configurations must be
// independent: this is the property the per-call EngineOptions refactor
// exists for (a process-wide SetEngine could not provide it), and the one
// internal/serve relies on to multiplex solves. Run under -race in CI.
func TestConcurrentSolvesWithDistinctEngineOptions(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 300, M: 600, K: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ThresholdGreedy(stream.NewSliceRepo(in), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	configs := []engine.Options{
		{Workers: 1},
		{Workers: 2},
		{Workers: 2, BatchSize: 16},
		{Workers: runtime.GOMAXPROCS(0), DisableSegmented: true},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(configs)*4)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := ThresholdGreedy(stream.NewSliceRepo(in), configs[i%len(configs)])
			if err != nil {
				errs[i] = err
				return
			}
			if len(st.Cover) != len(ref.Cover) || st.Passes != ref.Passes || st.SpaceWords != ref.SpaceWords {
				errs[i] = fmt.Errorf("solve %d diverged: cover %d/%d passes %d/%d space %d/%d",
					i, len(st.Cover), len(ref.Cover), st.Passes, ref.Passes, st.SpaceWords, ref.SpaceWords)
				return
			}
			for j := range ref.Cover {
				if st.Cover[j] != ref.Cover[j] {
					errs[i] = fmt.Errorf("solve %d: cover[%d] differs", i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Tracer injection is read-only: a solve with an obs.Recorder installed must
// produce byte-identical covers, pass counts, and space charges to the same
// solve without one, on every backend — the acceptance pin for the
// observability layer. The trace itself must be coherent: one record per
// engine pass, solve-locally numbered, each delivering the full family.
func TestTracerInjectionConformance(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 350, M: 800, K: 14, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "traced.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	backends := []struct {
		name string
		mk   func() stream.Repository
	}{
		{"slice", func() stream.Repository { return stream.NewSliceRepo(in) }},
		{"func", func() stream.Repository {
			return stream.NewFuncRepo(in.N, in.M(), func(id int) setcover.Set {
				es := make([]setcover.Elem, len(in.Sets[id].Elems))
				copy(es, in.Sets[id].Elems)
				return setcover.Set{ID: id, Elems: es}
			})
		}},
		{"disk", func() stream.Repository {
			d, err := scdisk.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}},
	}
	algos := []struct {
		name string
		run  func(stream.Repository, ...engine.Options) (setcover.Stats, error)
	}{
		{"greedy-1pass", OnePassGreedy},
		{"greedy-npass", MultiPassGreedy},
		{"threshold-greedy", ThresholdGreedy},
	}
	for _, algo := range algos {
		for _, b := range backends {
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				label := fmt.Sprintf("%s/%s/workers=%d", algo.name, b.name, workers)
				ref, err := algo.run(b.mk(), engine.Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s: untraced run: %v", label, err)
				}
				rec := &obs.Recorder{}
				st, err := algo.run(b.mk(), engine.Options{Workers: workers, Tracer: rec})
				if err != nil {
					t.Fatalf("%s: traced run: %v", label, err)
				}
				if st.Passes != ref.Passes || st.SpaceWords != ref.SpaceWords {
					t.Errorf("%s: traced stats diverge: passes %d/%d space %d/%d",
						label, st.Passes, ref.Passes, st.SpaceWords, ref.SpaceWords)
				}
				if len(st.Cover) != len(ref.Cover) {
					t.Fatalf("%s: traced cover size %d, want %d", label, len(st.Cover), len(ref.Cover))
				}
				for i := range ref.Cover {
					if st.Cover[i] != ref.Cover[i] {
						t.Fatalf("%s: traced cover[%d] = %d, want %d", label, i, st.Cover[i], ref.Cover[i])
					}
				}
				passes := rec.Passes()
				if len(passes) == 0 {
					t.Fatalf("%s: tracer saw no passes", label)
				}
				for i, p := range passes {
					if p.Index != i+1 {
						t.Fatalf("%s: pass %d has index %d", label, i, p.Index)
					}
					if p.Kind != "sets" || p.Items != in.M() {
						t.Fatalf("%s: pass %d delivered %d %q items, want %d sets",
							label, i, p.Items, p.Kind, in.M())
					}
					if p.Err != nil {
						t.Fatalf("%s: pass %d carries error %v", label, i, p.Err)
					}
				}
			}
		}
	}
}

// Removal note: the deprecated process-wide engine shims — baseline.SetEngine
// (an atomic.Pointer default), the streamsetcover.SetBaselineEngine alias,
// and experiments.SetEngine — were retired once the last callers (legacy CLI
// plumbing, removed in PRs 5–6) migrated to per-call engine.Options. A
// mutable global default could not serve concurrent solves with different
// configurations (the property TestConcurrentSolvesWithDistinctEngineOptions
// pins); per-call options can, and results are identical at every setting by
// the engine's determinism contract. This test exists so a grep for SetEngine
// finds the story instead of silence, and pins the replacement default path:
// a baseline called WITHOUT options must match the per-call reference.
func TestSetEngineRemoved(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 200, M: 400, K: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := EmekRosen(stream.NewSliceRepo(in), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := EmekRosen(stream.NewSliceRepo(in)) // no options: immutable default engine
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cover) != len(ref.Cover) || st.Passes != ref.Passes {
		t.Fatal("default-engine run diverged from per-call reference")
	}
	for i := range ref.Cover {
		if st.Cover[i] != ref.Cover[i] {
			t.Fatalf("cover[%d] differs", i)
		}
	}
}
