package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// conformanceRepos builds the three storage backends over the same instance.
// Algorithms must be unable to tell them apart: covers, pass counts, and
// space charges have to be byte-identical, because the model's Repository is
// the only thing they are allowed to observe.
func conformanceRepos(t testing.TB, in *setcover.Instance) map[string]func() stream.Repository {
	t.Helper()
	path := filepath.Join(t.TempDir(), "conf.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	return map[string]func() stream.Repository{
		"slice": func() stream.Repository { return stream.NewSliceRepo(in) },
		"func": func() stream.Repository {
			return stream.NewFuncRepo(in.N, in.M(), func(id int) setcover.Set {
				es := make([]setcover.Elem, len(in.Sets[id].Elems))
				copy(es, in.Sets[id].Elems)
				return setcover.Set{ID: id, Elems: es}
			})
		},
		"disk": func() stream.Repository {
			d, err := scdisk.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		},
	}
}

func conformanceInstances(t testing.TB) map[string]*setcover.Instance {
	t.Helper()
	planted, _, _, err := gen.Planted(gen.PlantedConfig{N: 400, M: 900, K: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	uniform := gen.Uniform(300, 600, 0.03, 17)
	// 147 KB of SCB1 set data: about 9 chunks of a segmented disk pass, where
	// the two instances above fit in one.
	large, _, _, err := gen.Planted(gen.PlantedConfig{N: 2000, M: 6000, K: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*setcover.Instance{"planted": planted, "uniform": uniform, "planted-large": large}
}

func sameStats(t *testing.T, label string, want, got setcover.Stats) {
	t.Helper()
	if got.Passes != want.Passes {
		t.Errorf("%s: passes %d, want %d", label, got.Passes, want.Passes)
	}
	if got.SpaceWords != want.SpaceWords {
		t.Errorf("%s: space %d, want %d", label, got.SpaceWords, want.SpaceWords)
	}
	if got.Valid != want.Valid {
		t.Errorf("%s: valid %v, want %v", label, got.Valid, want.Valid)
	}
	if len(got.Cover) != len(want.Cover) {
		t.Fatalf("%s: cover size %d, want %d", label, len(got.Cover), len(want.Cover))
	}
	for i := range want.Cover {
		if got.Cover[i] != want.Cover[i] {
			t.Fatalf("%s: cover[%d] = %d, want %d", label, i, got.Cover[i], want.Cover[i])
		}
	}
}

// IterSetCover must produce byte-identical covers, pass counts, and space
// charges on SliceRepo, FuncRepo, and DiskRepo, at Workers ∈ {1, 2,
// GOMAXPROCS} — which also pits the segmented parallel decode (workers > 1)
// against the sequential reference (workers = 1) on every backend — and
// with segmented decode force-disabled, which must change nothing either.
// The large instance's segmented disk passes are traced, and each must have
// been cut into at least 4 chunks, so chunk handoff and record recycling
// across chunks stay under this test.
func TestIterSetCoverBackendConformance(t *testing.T) {
	engines := []engine.Options{
		{Workers: 1},
		{Workers: 2},
		{Workers: runtime.GOMAXPROCS(0)},
		{Workers: 2, DisableSegmented: true},
	}
	for instName, in := range conformanceInstances(t) {
		repos := conformanceRepos(t, in)
		ref, err := IterSetCover(stream.NewSliceRepo(in),
			Options{Delta: 0.5, Seed: 7, FinalPatch: true, Engine: engine.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range engines {
			opts := Options{Delta: 0.5, Seed: 7, FinalPatch: true, Engine: eng}
			for backend, mk := range repos {
				label := fmt.Sprintf("%s/%s/workers=%d/noseg=%v", instName, backend, eng.Workers, eng.DisableSegmented)
				var rec *obs.Recorder
				opts := opts
				if instName == "planted-large" && backend == "disk" && eng.Workers >= 2 && !eng.DisableSegmented {
					rec = &obs.Recorder{}
					opts.Engine.Tracer = rec
				}
				res, err := IterSetCover(mk(), opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if rec != nil {
					if len(rec.Passes()) == 0 {
						t.Errorf("%s: no pass traced", label)
					}
					for _, p := range rec.Passes() {
						if !p.Segmented || p.Chunks < 4 {
							t.Errorf("%s: pass %d segmented=%v in %d chunks, want segmented in >= 4", label, p.Index, p.Segmented, p.Chunks)
						}
					}
				}
				sameStats(t, label, ref.Stats, res.Stats)
				if res.BestK != ref.BestK || res.Iterations != ref.Iterations {
					t.Errorf("%s: bestK/iterations %d/%d, want %d/%d",
						label, res.BestK, res.Iterations, ref.BestK, ref.Iterations)
				}
				if res.StoredProjectionWordsPeak != ref.StoredProjectionWordsPeak {
					t.Errorf("%s: projection peak %d, want %d",
						label, res.StoredProjectionWordsPeak, ref.StoredProjectionWordsPeak)
				}
			}
		}
	}
}

// IterSetCover over a truncated SCB1 file must fail loudly at every worker
// count: the first pass ends early, poisons the run, and no guess's state
// may surface as a cover.
func TestTruncatedFileFailsIterSetCover(t *testing.T) {
	in := conformanceInstances(t)["planted"]
	var buf bytes.Buffer
	if err := scdisk.Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		d, err := scdisk.NewRepo(bytes.NewReader(truncated), int64(len(truncated)))
		if err != nil {
			t.Fatalf("truncated file should still open (header intact): %v", err)
		}
		res, err := IterSetCover(d, Options{Delta: 0.5, Seed: 7, FinalPatch: true,
			Engine: engine.Options{Workers: workers}})
		if err == nil {
			t.Fatalf("workers=%d: truncated solve returned a cover of %d sets", workers, len(res.Cover))
		}
		if errors.Is(err, ErrNoCover) {
			t.Fatalf("workers=%d: failure reads as ErrNoCover — the decode error was swallowed", workers)
		}
		if res.Valid || len(res.Cover) != 0 {
			t.Fatalf("workers=%d: failed run still reported a cover", workers)
		}
		if res.Passes != 1 {
			t.Fatalf("workers=%d: failed run consumed %d passes, want 1 (fail at the first)", workers, res.Passes)
		}
	}
}

// The partial-cover variant must conform too (it exercises the patch pass's
// mid-pass done flipping).
func TestIterSetCoverPartialBackendConformance(t *testing.T) {
	in := conformanceInstances(t)["planted"]
	repos := conformanceRepos(t, in)
	opts := Options{Delta: 0.5, Seed: 5, PartialEps: 0.1, FinalPatch: true}
	ref, err := IterSetCover(stream.NewSliceRepo(in), opts)
	if err != nil {
		t.Fatal(err)
	}
	for backend, mk := range repos {
		res, err := IterSetCover(mk(), opts)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		sameStats(t, backend, ref.Stats, res.Stats)
	}
}

// IterSetCover on a WEIGHTED instance must conform across every backend that
// can carry costs — SliceRepo (Instance.Weights), FuncRepo (a weight
// function), and the two disk variants (the SCWT section, positional reads
// and mmap) — at several worker counts and with segmented decode disabled.
// Unit weights must reproduce the unweighted cover exactly.
func TestIterSetCoverWeightedConformance(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 400, M: 900, K: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := gen.WeightedSlice(gen.WeightedConfig{
		Kind: gen.WeightLogUniform, M: in.M(), Lo: 0.05, Hi: 20, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Weights = ws
	path := filepath.Join(t.TempDir(), "weighted.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	openDisk := func(opts ...scdisk.OpenOption) stream.Repository {
		d, err := scdisk.Open(path, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	backends := map[string]func() stream.Repository{
		"slice": func() stream.Repository { return stream.NewSliceRepo(in) },
		"func": func() stream.Repository {
			fr := stream.NewFuncRepo(in.N, in.M(), func(id int) setcover.Set {
				es := make([]setcover.Elem, len(in.Sets[id].Elems))
				copy(es, in.Sets[id].Elems)
				return setcover.Set{ID: id, Elems: es}
			})
			fr.SetWeightFunc(func(id int) float64 { return ws[id] })
			return fr
		},
		"disk":      func() stream.Repository { return openDisk() },
		"disk-mmap": func() stream.Repository { return openDisk(scdisk.ReadOnlyMmap()) },
	}
	mkOpts := func(eng engine.Options) Options {
		return Options{Delta: 0.5, Seed: 7, FinalPatch: true, Engine: eng}
	}
	ref, err := IterSetCover(stream.NewSliceRepo(in), mkOpts(engine.Options{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Valid || !in.IsCover(ref.Cover) {
		t.Fatal("weighted reference cover invalid")
	}
	for _, eng := range []engine.Options{
		{Workers: 1},
		{Workers: 2},
		{Workers: runtime.GOMAXPROCS(0)},
		{Workers: 2, DisableSegmented: true},
	} {
		for backend, mk := range backends {
			label := fmt.Sprintf("weighted/%s/workers=%d/noseg=%v", backend, eng.Workers, eng.DisableSegmented)
			res, err := IterSetCover(mk(), mkOpts(eng))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameStats(t, label, ref.Stats, res.Stats)
		}
	}

	// Unit weights: same cover and passes as no weights at all.
	plain, _, _, err := gen.Planted(gen.PlantedConfig{N: 400, M: 900, K: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	unit, _, _, err := gen.Planted(gen.PlantedConfig{N: 400, M: 900, K: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	unit.Weights = make([]float64, unit.M())
	for i := range unit.Weights {
		unit.Weights[i] = 1
	}
	want, err := IterSetCover(stream.NewSliceRepo(plain), mkOpts(engine.Options{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := IterSetCover(stream.NewSliceRepo(unit), mkOpts(engine.Options{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Passes != want.Passes || len(got.Cover) != len(want.Cover) {
		t.Fatalf("unit weights changed the solve: passes %d/%d cover %d/%d",
			got.Passes, want.Passes, len(got.Cover), len(want.Cover))
	}
	for i := range want.Cover {
		if got.Cover[i] != want.Cover[i] {
			t.Fatalf("unit weights changed cover[%d]: %d vs %d", i, got.Cover[i], want.Cover[i])
		}
	}
}
