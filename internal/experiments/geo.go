package experiments

import (
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/geom"
)

// E3Figure12 reproduces Figure 1.2: n²/4 distinct two-point rectangles whose
// raw projections need Ω(n²) storage, against the near-linear canonical
// representation of Lemma 4.2.
func E3Figure12(quick bool) Table {
	sizes := []int{64, 128, 256}
	if quick {
		sizes = []int{32, 64}
	}
	t := Table{
		ID:    "E3",
		Title: "Figure 1.2: quadratic rectangles vs canonical pieces",
		Head:  []string{"n", "rectangles (n²/4)", "raw proj words", "canonical pieces", "canonical words", "compression"},
	}
	for _, n := range sizes {
		in, err := geom.Figure12(n)
		if err != nil {
			panic(err)
		}
		tree := geom.NewXSplitTree(in.Points)
		cs := geom.NewCanonicalStore()
		rawWords := int64(0)
		for _, s := range in.Shapes {
			proj := geom.ContainedPoints(s, in.Points, nil)
			rawWords += int64(len(proj)+1) / 2
			geom.CanonicalPieces(cs, tree, s, proj, in.Points)
		}
		t.AddRow(d(n), d(in.M()), d64(rawWords), d(cs.Count()), d64(cs.Words()),
			f1(float64(rawWords)/float64(cs.Words())))
	}
	t.AddNote("every rectangle contains exactly 2 points; all projections distinct")
	return t
}

// E4Geometric reproduces Theorem 4.6: algGeomSC on disks, rectangles and fat
// triangles uses Õ(n) space (flat in m), constant passes, and an O(ρ)
// approximation against the planted cover.
func E4Geometric(seed int64, quick bool, eng engine.Options) Table {
	n, k := 2000, 16
	ms := []int{8000, 16000}
	if quick {
		n, k = 400, 9
		ms = []int{1600, 3200}
	}
	t := Table{
		ID:    "E4",
		Title: "Theorem 4.6: algGeomSC across shape classes (space flat in m)",
		Head:  []string{"shapes", "n", "m", "cover", "planted k", "passes", "space(words)", "canon pieces", "raw projs"},
	}
	type mk func(n, m, k int, seed int64) (*geom.Instance, []int, error)
	gens := []struct {
		name string
		f    mk
	}{
		{"disks", geom.PlantedDisks},
		{"rects", geom.PlantedRects},
		{"triangles", geom.PlantedTriangles},
	}
	for _, g := range gens {
		for _, m := range ms {
			kk := k
			if g.name == "triangles" && m < 2*k {
				kk = m / 2
			}
			in, planted, err := g.f(n, m, kk, seed)
			if err != nil {
				panic(err)
			}
			repo := geom.NewShapeRepo(in)
			repo.Precompute()
			res, err := geom.AlgGeomSC(repo, geom.GeomOptions{
				Delta: 0.25, Seed: seed, KMin: 4, KMax: 64, Engine: eng,
			})
			if err != nil {
				t.AddRow(g.name, d(n), d(m), "failed", d(len(planted)), "-", "-", "-", "-")
				continue
			}
			t.AddRow(g.name, d(n), d(m), d(len(res.Cover)), d(len(planted)), d(res.Passes),
				d64(res.SpaceWords), d(res.CanonicalPiecesPeak), d(res.RawProjectionsSeen))
		}
	}
	t.AddNote("δ=1/4 (Theorem 4.6), guesses restricted to k∈[4,64] to keep single-core runtime sane")
	t.AddNote("planted k is an upper bound on OPT; space must stay ~flat as m doubles")
	return t
}

// E5CanonicalCounts reproduces Lemma 4.4's counting: the number of distinct
// canonical pieces of w-shallow shapes stays near-linear in n across shape
// classes and shallowness levels.
func E5CanonicalCounts(seed int64, quick bool, _ engine.Options) Table {
	n, numShapes := 2000, 20000
	if quick {
		n, numShapes = 500, 4000
	}
	t := Table{
		ID:    "E5",
		Title: "Lemma 4.4: distinct canonical pieces of shallow ranges",
		Head:  []string{"shapes", "w", "shallow shapes seen", "distinct pieces", "pieces/n"},
	}
	rng := rand.New(rand.NewSource(seed))
	pts := geom.RandomPoints(n, seed)
	tree := geom.NewXSplitTree(pts)

	mkDisk := func() geom.Shape {
		return geom.Disk{C: geom.Point{X: rng.Float64(), Y: rng.Float64()}, R: 0.02 + 0.05*rng.Float64()}
	}
	mkRect := func() geom.Shape {
		w, h := 0.02+0.1*rng.Float64(), 0.02+0.1*rng.Float64()
		x, y := rng.Float64()*(1-w), rng.Float64()*(1-h)
		return geom.Rect{X0: x, X1: x + w, Y0: y, Y1: y + h}
	}
	mkTri := func() geom.Shape {
		c := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		r := 0.02 + 0.08*rng.Float64()
		a := rng.Float64() * 2 * math.Pi
		return geom.Triangle{
			A: geom.Point{X: c.X + r*math.Cos(a), Y: c.Y + r*math.Sin(a)},
			B: geom.Point{X: c.X + r*math.Cos(a+2.1), Y: c.Y + r*math.Sin(a+2.1)},
			C: geom.Point{X: c.X + r*math.Cos(a+4.2), Y: c.Y + r*math.Sin(a+4.2)},
		}
	}
	gens := []struct {
		name string
		f    func() geom.Shape
	}{{"disks", mkDisk}, {"rects", mkRect}, {"triangles", mkTri}}

	for _, g := range gens {
		for _, w := range []int{8, 32} {
			cs := geom.NewCanonicalStore()
			seen := 0
			for i := 0; i < numShapes; i++ {
				s := g.f()
				proj := geom.ContainedPoints(s, pts, nil)
				if len(proj) == 0 || len(proj) > w {
					continue
				}
				seen++
				geom.CanonicalPieces(cs, tree, s, proj, pts)
			}
			t.AddRow(g.name, d(w), d(seen), d(cs.Count()), f2c(float64(cs.Count())/float64(n)))
		}
	}
	t.AddNote("n=%d points, %d random shapes per class; pieces/n staying O(polylog) is the Õ(n) claim", n, numShapes)
	return t
}
