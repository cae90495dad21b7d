package geom

import (
	"math"
	"strings"
	"testing"

	"repro/internal/offline"
)

func TestFigure12Construction(t *testing.T) {
	in, err := Figure12(16)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 16 {
		t.Fatalf("n = %d", in.N())
	}
	// n²/4 distinct rectangles.
	if in.M() != 64 {
		t.Fatalf("m = %d, want 16²/4 = 64", in.M())
	}
	// Every rectangle contains exactly two points: one top, one bottom.
	for id, s := range in.Shapes {
		got := ContainedPoints(s, in.Points, nil)
		if len(got) != 2 {
			t.Fatalf("rect %d contains %d points (%v), want exactly 2", id, len(got), got)
		}
		if int(got[0]) >= 8 || int(got[1]) < 8 {
			t.Fatalf("rect %d contains %v: want one top (<8) and one bottom (>=8)", id, got)
		}
	}
	// All projections are distinct (that is why raw storage needs Ω(n²)).
	seen := map[[2]int32]bool{}
	for _, s := range in.Shapes {
		p := ContainedPoints(s, in.Points, nil)
		key := [2]int32{p[0], p[1]}
		if seen[key] {
			t.Fatalf("duplicate projection %v", key)
		}
		seen[key] = true
	}
}

func TestFigure12Errors(t *testing.T) {
	if _, err := Figure12(7); err == nil {
		t.Fatal("odd n should error")
	}
	if _, err := Figure12(0); err == nil {
		t.Fatal("n=0 should error")
	}
}

func TestFigure12CanonicalCompression(t *testing.T) {
	// The heart of Figure 1.2 + Lemma 4.2: n²/4 raw projections, but the
	// split-tree canonical family stays near-linear.
	const n = 64
	in, err := Figure12(n)
	if err != nil {
		t.Fatal(err)
	}
	tree := NewXSplitTree(in.Points)
	cs := NewCanonicalStore()
	for _, s := range in.Shapes {
		proj := ContainedPoints(s, in.Points, nil)
		CanonicalPieces(cs, tree, s, proj, in.Points)
	}
	raw := in.M() // 1024 distinct projections
	if cs.Count() >= raw/4 {
		t.Fatalf("canonical pieces = %d, raw = %d: expected strong compression", cs.Count(), raw)
	}
	// Near-linear: within a polylog factor of n.
	limit := int(4 * float64(n) * math.Log2(float64(n)))
	if cs.Count() > limit {
		t.Fatalf("canonical pieces = %d exceed Õ(n) budget %d", cs.Count(), limit)
	}
}

func TestPlantedDisksGenerator(t *testing.T) {
	in, planted, err := PlantedDisks(300, 60, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 300 || in.M() != 60 || len(planted) != 9 {
		t.Fatalf("dims n=%d m=%d planted=%d", in.N(), in.M(), len(planted))
	}
	if !in.IsCover(planted) {
		t.Fatal("planted disks must cover all points")
	}
	if _, _, err := PlantedDisks(10, 5, 20, 1); err == nil {
		t.Fatal("k > m should error")
	}
}

func TestPlantedRectsGenerator(t *testing.T) {
	in, planted, err := PlantedRects(300, 80, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(planted) {
		t.Fatal("planted rects must cover all points")
	}
	for _, id := range planted {
		if in.Shapes[id].Kind() != "rect" {
			t.Fatal("planted shapes should be rects")
		}
	}
}

func TestPlantedTrianglesGenerator(t *testing.T) {
	in, planted, err := PlantedTriangles(300, 80, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(planted) {
		t.Fatal("planted triangles must cover all points")
	}
	// Planted triangles are right isoceles: 2-fat.
	for _, id := range planted {
		tri := in.Shapes[id].(Triangle)
		if !tri.IsFat(2.01) {
			t.Fatalf("planted triangle fatness %v > 2", tri.Fatness())
		}
	}
	if _, _, err := PlantedTriangles(300, 10, 9, 3); err == nil {
		t.Fatal("m < 2k should error")
	}
}

func TestAlgGeomSCDisks(t *testing.T) {
	in, planted, err := PlantedDisks(400, 1600, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	repo := NewShapeRepo(in)
	repo.Precompute()
	res, err := AlgGeomSC(repo, GeomOptions{Delta: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(res.Cover) {
		t.Fatal("algGeomSC cover invalid")
	}
	// Theorem 4.6: 3/δ + 1 passes.
	if res.Passes > 13 {
		t.Fatalf("passes = %d, want <= 13 for δ=1/4", res.Passes)
	}
	// O(ρ)-approximation vs the planted upper bound — generous constant.
	if len(res.Cover) > 20*len(planted) {
		t.Fatalf("cover %d vs planted %d", len(res.Cover), len(planted))
	}
}

func TestAlgGeomSCRects(t *testing.T) {
	in, planted, err := PlantedRects(400, 1600, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	repo := NewShapeRepo(in)
	repo.Precompute()
	res, err := AlgGeomSC(repo, GeomOptions{Delta: 0.25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(res.Cover) {
		t.Fatal("cover invalid")
	}
	_ = planted
}

func TestAlgGeomSCTriangles(t *testing.T) {
	in, _, err := PlantedTriangles(400, 1600, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	repo := NewShapeRepo(in)
	repo.Precompute()
	res, err := AlgGeomSC(repo, GeomOptions{Delta: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(res.Cover) {
		t.Fatal("cover invalid")
	}
}

func TestAlgGeomSCSpaceSublinearInM(t *testing.T) {
	// Theorem 4.6: space Õ(n), in particular it must not scale with m.
	// Quadruple m at fixed n and verify the peak space stays put (within
	// noise), far below m.
	mk := func(m int) int64 {
		in, _, err := PlantedDisks(300, m, 9, 7)
		if err != nil {
			t.Fatal(err)
		}
		repo := NewShapeRepo(in)
		repo.Precompute()
		res, err := AlgGeomSC(repo, GeomOptions{Delta: 0.25, Seed: 4, KMin: 4, KMax: 32})
		if err != nil {
			t.Fatal(err)
		}
		if !in.IsCover(res.Cover) {
			t.Fatal("cover invalid")
		}
		return res.SpaceWords
	}
	s1, s4 := mk(800), mk(3200)
	if s4 > 2*s1 {
		t.Fatalf("space grew with m: %d -> %d (want ~flat)", s1, s4)
	}
}

func TestAlgGeomSCEmptyPoints(t *testing.T) {
	repo := NewShapeRepo(&Instance{})
	res, err := AlgGeomSC(repo, GeomOptions{})
	if err != nil || !res.Valid {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestAlgGeomSCUncoverable(t *testing.T) {
	in := &Instance{
		Points: []Point{{0, 0}, {10, 10}},
		Shapes: []Shape{Disk{C: Point{0, 0}, R: 1}},
	}
	repo := NewShapeRepo(in)
	if _, err := AlgGeomSC(repo, GeomOptions{Seed: 1}); err == nil {
		t.Fatal("uncoverable instance should error")
	}
}

// A δ outside (0, 1], NaN, or so small that ⌈1/δ⌉ overflows an int fails
// before the first pass, with an error that names δ.
func TestAlgGeomSCBadDelta(t *testing.T) {
	repo := NewShapeRepo(&Instance{Points: []Point{{0, 0}}, Shapes: []Shape{Disk{C: Point{0, 0}, R: 1}}})
	for _, d := range []float64{2, -0.5, math.NaN(), 1e-300} {
		if _, err := AlgGeomSC(repo, GeomOptions{Delta: d}); err == nil || !strings.Contains(err.Error(), "delta") {
			t.Errorf("delta=%v: err %v, want an error naming delta", d, err)
		}
	}
	if repo.Passes() != 0 {
		t.Errorf("bad deltas spent %d passes", repo.Passes())
	}
}

func TestAlgGeomSCWithExactSolver(t *testing.T) {
	in, _, err := PlantedDisks(120, 240, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	repo := NewShapeRepo(in)
	repo.Precompute()
	res, err := AlgGeomSC(repo, GeomOptions{Delta: 0.25, Seed: 5, Offline: offline.Exact{}})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(res.Cover) {
		t.Fatal("cover invalid")
	}
}

func TestAlgGeomSCFigure12(t *testing.T) {
	// End-to-end on the adversarial Figure 1.2 stream: m = n²/4 shapes,
	// space must stay near-linear in n.
	in, err := Figure12(64)
	if err != nil {
		t.Fatal(err)
	}
	repo := NewShapeRepo(in)
	repo.Precompute()
	res, err := AlgGeomSC(repo, GeomOptions{Delta: 0.25, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(res.Cover) {
		t.Fatal("cover invalid")
	}
	// OPT = n/2 = 32 (each shape covers exactly 2 points).
	if len(res.Cover) < 32 {
		t.Fatalf("cover %d below the information floor 32", len(res.Cover))
	}
	if len(res.Cover) > 4*32 {
		t.Fatalf("cover %d too far above OPT=32", len(res.Cover))
	}
}

func BenchmarkAlgGeomSCDisks(b *testing.B) {
	in, _, err := PlantedDisks(1000, 8000, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	repo := NewShapeRepo(in)
	repo.Precompute()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo.ResetPasses()
		if _, err := AlgGeomSC(repo, GeomOptions{Delta: 0.25, Seed: int64(i), KMin: 8, KMax: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCanonicalFigure12(b *testing.B) {
	in, err := Figure12(128)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := NewXSplitTree(in.Points)
		cs := NewCanonicalStore()
		for _, s := range in.Shapes {
			proj := ContainedPoints(s, in.Points, nil)
			CanonicalPieces(cs, tree, s, proj, in.Points)
		}
	}
}
