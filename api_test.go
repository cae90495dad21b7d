package streamsetcover

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/algos"
)

// End-to-end smoke test of the public façade: generate, stream, solve with
// the main algorithm and two baselines, round-trip through the text format.
func TestPublicAPIEndToEnd(t *testing.T) {
	in, plantedIDs, opt, err := Planted(PlantedConfig{N: 300, M: 600, K: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(plantedIDs) || opt != 6 {
		t.Fatal("planted generator misbehaved through the façade")
	}

	repo := NewRepository(in)
	res, err := IterSetCover(repo, Options{Delta: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(res.Cover) {
		t.Fatal("IterSetCover cover invalid")
	}
	if res.Passes > 4 {
		t.Fatalf("passes = %d, want <= 4 at delta 1/2", res.Passes)
	}

	er, err := EmekRosen(NewRepository(in), EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(er.Cover) {
		t.Fatal("EmekRosen cover invalid")
	}
	cw, err := ChakrabartiWirth(NewRepository(in), 2, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(cw.Cover) {
		t.Fatal("ChakrabartiWirth cover invalid")
	}

	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != in.N || back.M() != in.M() {
		t.Fatal("instance text round-trip mismatch")
	}
}

func TestPublicAPIGeometric(t *testing.T) {
	gi, planted, err := PlantedDisks(200, 400, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	repo := NewShapeRepo(gi)
	repo.Precompute()
	res, err := AlgGeomSC(repo, GeomOptions{Delta: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !gi.IsCover(res.Cover) {
		t.Fatal("AlgGeomSC cover invalid")
	}
	_ = planted

	fig, err := Figure12(16)
	if err != nil {
		t.Fatal(err)
	}
	if fig.M() != 64 {
		t.Fatalf("Figure12 m = %d", fig.M())
	}
}

// A truncated SCB1 instance must fail loudly through the public API: the
// solve entry points return the decode error, never a valid-looking cover
// built from the prefix of the family that still decodes. This is the
// regression test for the silent-truncation bug (library callers used to get
// a "valid" partial-stream cover unless they knew to poll DiskRepo.Err).
func TestPublicAPITruncatedFileFailsLoudly(t *testing.T) {
	in, _, _, err := Planted(PlantedConfig{N: 300, M: 600, K: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(t.TempDir(), "full.scb")
	if err := WriteInstanceFile(full, in); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.scb")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := OpenFile(trunc)
	if err != nil {
		t.Fatalf("truncated file should still open (header intact): %v", err)
	}
	defer d.Close()

	if res, err := IterSetCover(d, Options{Delta: 0.5, Seed: 1}); err == nil {
		t.Fatalf("IterSetCover returned a cover of %d sets from a truncated stream", len(res.Cover))
	}
	if st, err := EmekRosen(d, EngineOptions{}); err == nil {
		t.Fatalf("EmekRosen returned a cover of %d sets from a truncated stream", len(st.Cover))
	}
	if st, err := SahaGetoorSetCover(d, EngineOptions{}); err == nil {
		t.Fatalf("SahaGetoorSetCover returned a cover of %d sets from a truncated stream", len(st.Cover))
	}
	if _, _, err := VerifyCover(d, []int{0, 1, 2}, EngineOptions{}); err == nil {
		t.Fatal("VerifyCover reported counts from a truncated stream without error")
	}
}

// VerifyCover over a healthy disk repository reports full coverage for a
// real cover and no error — and still works after a failed pass on the same
// repository (pass errors are scoped per pass).
func TestPublicAPIVerifyCoverDisk(t *testing.T) {
	in, plantedIDs, _, err := Planted(PlantedConfig{N: 300, M: 600, K: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "full.scb")
	if err := WriteInstanceFile(path, in); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, opts := range []EngineOptions{{}, {Workers: 1}, {Workers: 4, DisableSegmented: true}} {
		covered, n, err := VerifyCover(d, plantedIDs, opts)
		if err != nil {
			t.Fatalf("opts %+v: verify pass failed: %v", opts, err)
		}
		if covered != n {
			t.Fatalf("opts %+v: planted cover leaves %d of %d uncovered", opts, n-covered, n)
		}
	}
}

func TestPublicAPIDefaults(t *testing.T) {
	o := DefaultOptions()
	if o.Delta != 0.5 {
		t.Fatalf("default delta = %v", o.Delta)
	}
	var g GreedySolver
	if g.Rho(100) <= 1 {
		t.Fatal("greedy rho should exceed 1")
	}
	var x ExactSolver
	if x.Rho(100) != 1 {
		t.Fatal("exact rho should be 1")
	}
}

// Stats.Passes counts one solve's own passes: every algorithm family solved
// twice on one handle — an in-memory repository and an SCB1 file — must
// report the same pass count both times, although the handle's lifetime
// counter keeps growing across them.
func TestPassesPerSolveOnSharedHandle(t *testing.T) {
	in, _, _, err := Planted(PlantedConfig{N: 200, M: 600, K: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shared.scb")
	if err := WriteInstanceFile(path, in); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	type solve struct {
		name  string
		solve func(Repository) (int, error)
	}
	// Every algorithm of the table (cw16 at p = 3, pd at 64-element
	// batches), plus the max-k-cover primitive.
	p := algos.Defaults()
	p.Passes, p.PD.ElemBatch = 3, 64
	var solves []solve
	for _, e := range algos.All() {
		solves = append(solves, solve{e.Name, func(r Repository) (int, error) {
			res, err := e.Solve(r, p)
			return res.Passes, err
		}})
	}
	solves = append(solves, solve{"maxkcover", func(r Repository) (int, error) {
		res, err := MaxKCoverStreaming(r, 10, EngineOptions{})
		return res.Passes, err
	}})
	for _, repo := range []Repository{NewRepository(in), disk} {
		for _, s := range solves {
			first, err := s.solve(repo)
			if err != nil {
				t.Fatalf("%s on %T: %v", s.name, repo, err)
			}
			again, err := s.solve(repo)
			if err != nil {
				t.Fatalf("%s on %T, second solve: %v", s.name, repo, err)
			}
			if first < 1 || again != first {
				t.Errorf("%s on %T: passes %d then %d on one handle, want the same positive count", s.name, repo, first, again)
			}
		}
	}

	gi, _, err := PlantedDisks(200, 400, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	shapes := NewShapeRepo(gi)
	shapes.Precompute()
	var geomPasses [2]int
	for i := range geomPasses {
		res, err := AlgGeomSC(shapes, GeomOptions{Delta: 0.25, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		geomPasses[i] = res.Passes
	}
	if geomPasses[0] < 1 || geomPasses[1] != geomPasses[0] {
		t.Errorf("AlgGeomSC: passes %v on one shape handle, want the same positive count", geomPasses)
	}
}
