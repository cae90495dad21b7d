package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDiskContains(t *testing.T) {
	d := Disk{C: Point{0, 0}, R: 1}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{1, 0}, true}, // boundary
		{Point{0.7, 0.7}, true},
		{Point{1.01, 0}, false},
		{Point{-2, 0}, false},
	}
	for _, c := range cases {
		if got := d.Contains(c.p); got != c.want {
			t.Errorf("disk contains %v = %v, want %v", c.p, got, c.want)
		}
	}
	if d.Kind() != "disk" {
		t.Fatal("kind")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{X0: 0, Y0: 0, X1: 2, Y1: 1}
	if !r.Valid() {
		t.Fatal("rect should be valid")
	}
	for _, p := range []Point{{0, 0}, {2, 1}, {1, 0.5}, {0, 1}} {
		if !r.Contains(p) {
			t.Errorf("rect should contain %v", p)
		}
	}
	for _, p := range []Point{{-0.1, 0}, {2.1, 1}, {1, 1.5}} {
		if r.Contains(p) {
			t.Errorf("rect should not contain %v", p)
		}
	}
	if (Rect{X0: 1, X1: 0}).Valid() {
		t.Fatal("inverted rect should be invalid")
	}
	if r.Kind() != "rect" {
		t.Fatal("kind")
	}
}

func TestTriangleContains(t *testing.T) {
	tri := Triangle{A: Point{0, 0}, B: Point{4, 0}, C: Point{0, 4}}
	for _, p := range []Point{{1, 1}, {0, 0}, {2, 0}, {2, 2}} { // interior, vertex, edge, hypotenuse
		if !tri.Contains(p) {
			t.Errorf("triangle should contain %v", p)
		}
	}
	for _, p := range []Point{{3, 3}, {-1, 0}, {5, 0}} {
		if tri.Contains(p) {
			t.Errorf("triangle should not contain %v", p)
		}
	}
	// Orientation must not matter.
	rev := Triangle{A: tri.C, B: tri.B, C: tri.A}
	if !rev.Contains(Point{1, 1}) {
		t.Fatal("reversed orientation broke containment")
	}
	if tri.Kind() != "triangle" {
		t.Fatal("kind")
	}
}

func TestTriangleFatness(t *testing.T) {
	equi := Triangle{A: Point{0, 0}, B: Point{1, 0}, C: Point{0.5, math.Sqrt(3) / 2}}
	if f := equi.Fatness(); math.Abs(f-2/math.Sqrt(3)) > 1e-9 {
		t.Fatalf("equilateral fatness = %v, want 2/sqrt(3)", f)
	}
	if !equi.IsFat(2) {
		t.Fatal("equilateral should be 2-fat")
	}
	right := Triangle{A: Point{0, 0}, B: Point{1, 0}, C: Point{0, 1}}
	if f := right.Fatness(); math.Abs(f-2) > 1e-9 {
		t.Fatalf("right isoceles fatness = %v, want 2", f)
	}
	sliver := Triangle{A: Point{0, 0}, B: Point{10, 0}, C: Point{5, 0.01}}
	if sliver.IsFat(10) {
		t.Fatal("sliver should not be 10-fat")
	}
	degen := Triangle{A: Point{0, 0}, B: Point{1, 0}, C: Point{2, 0}}
	if !math.IsInf(degen.Fatness(), 1) {
		t.Fatal("degenerate fatness should be +Inf")
	}
}

func TestContainedPoints(t *testing.T) {
	pts := []Point{{0, 0}, {0.5, 0.5}, {2, 2}}
	d := Disk{C: Point{0, 0}, R: 1}
	got := ContainedPoints(d, pts, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("ContainedPoints = %v, want [0 1]", got)
	}
	got = ContainedPoints(d, pts, func(i int) bool { return i != 0 })
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("filtered ContainedPoints = %v, want [1]", got)
	}
}

func TestInstanceToSetCoverAndIsCover(t *testing.T) {
	in := &Instance{
		Points: []Point{{0, 0}, {1, 0}, {2, 0}},
		Shapes: []Shape{
			Disk{C: Point{0, 0}, R: 1.1},
			Disk{C: Point{2, 0}, R: 0.5},
		},
	}
	sc := in.ToSetCover()
	if sc.N != 3 || sc.M() != 2 {
		t.Fatalf("dims %d/%d", sc.N, sc.M())
	}
	if !in.IsCover([]int{0, 1}) {
		t.Fatal("both disks cover everything")
	}
	if in.IsCover([]int{0}) {
		t.Fatal("disk 0 misses point 2")
	}
	if in.IsCover([]int{-1, 5}) {
		t.Fatal("bogus ids cover nothing")
	}
}

func TestShapeRepoPassesAndPrecompute(t *testing.T) {
	in := &Instance{
		Points: []Point{{0, 0}, {1, 1}},
		Shapes: []Shape{Rect{X0: -1, Y0: -1, X1: 0.5, Y1: 0.5}, Disk{C: Point{1, 1}, R: 0.1}},
	}
	repo := NewShapeRepo(in)
	if repo.NumPoints() != 2 || repo.NumItems() != 2 || repo.Passes() != 0 {
		t.Fatal("repo dims/passes wrong")
	}
	it := repo.Begin()
	count := 0
	batch := make([]StreamShape, 1)
	for n := it.NextBatch(batch); n > 0; n = it.NextBatch(batch) {
		if s := batch[0]; s.Shape == nil || s.ID != count {
			t.Fatalf("cursor yielded shape=%v id=%d at pos %d", s.Shape, s.ID, count)
		}
		count++
	}
	if count != 2 || repo.Passes() != 1 || it.Err() != nil {
		t.Fatalf("count=%d passes=%d err=%v", count, repo.Passes(), it.Err())
	}
	before := repo.Contained(0) // on the fly
	repo.Precompute()
	after := repo.Contained(0) // cached
	if len(before) != len(after) || len(before) != 1 || before[0] != 0 {
		t.Fatalf("Contained mismatch: %v vs %v", before, after)
	}
	repo.ResetPasses()
	if repo.Passes() != 0 {
		t.Fatal("ResetPasses failed")
	}
}

func TestXSplitTree(t *testing.T) {
	pts := []Point{{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0}, {7, 0}, {8, 0}}
	tree := NewXSplitTree(pts)
	// Root splits at median of [1..8] -> xs[3] = 4 (lo=0, hi=7, mid=3).
	node, split, ok := tree.SplitNode(2, 7)
	if !ok || split != 4 {
		t.Fatalf("root split = %v (ok=%v), want 4", split, ok)
	}
	_ = node
	// An interval entirely to the left descends and splits lower.
	_, split2, ok := tree.SplitNode(1, 3)
	if !ok || split2 >= 4 {
		t.Fatalf("left split = %v (ok=%v), want < 4", split2, ok)
	}
	// An interval within a single x is a leaf.
	if _, _, ok := tree.SplitNode(5.1, 5.9); ok {
		t.Fatal("interval containing no split line should be a leaf")
	}
	if tree.Levels() != 3 {
		t.Fatalf("levels = %d, want 3", tree.Levels())
	}
}

func TestXSplitTreeDegenerate(t *testing.T) {
	if _, _, ok := NewXSplitTree(nil).SplitNode(0, 1); ok {
		t.Fatal("empty tree cannot split")
	}
	if _, _, ok := NewXSplitTree([]Point{{1, 1}}).SplitNode(0, 2); ok {
		t.Fatal("single-x tree cannot split")
	}
	// Duplicate xs collapse.
	tree := NewXSplitTree([]Point{{1, 0}, {1, 5}, {2, 0}})
	_, split, ok := tree.SplitNode(0.5, 1.5)
	if !ok || split != 1 {
		t.Fatalf("split = %v (ok=%v), want 1", split, ok)
	}
}

func TestCanonicalStoreDedup(t *testing.T) {
	cs := NewCanonicalStore()
	if i, added := cs.Add(0, []int32{1, 2}); !added || i != 0 {
		t.Fatal("first add should insert at 0")
	}
	if _, added := cs.Add(0, []int32{1, 2}); added {
		t.Fatal("duplicate piece should dedup")
	}
	if _, added := cs.Add(1, []int32{1, 2}); !added {
		t.Fatal("same elems at different node is a distinct piece")
	}
	if _, added := cs.Add(0, []int32{1, 3}); !added {
		t.Fatal("different elems should insert")
	}
	if i, added := cs.Add(0, nil); added || i != -1 {
		t.Fatal("empty piece should be ignored")
	}
	if cs.Count() != 3 {
		t.Fatalf("count = %d, want 3", cs.Count())
	}
	if cs.Words() <= 0 {
		t.Fatal("words should be positive")
	}
}

func TestSubsetOfSorted(t *testing.T) {
	cases := []struct {
		a, b []int32
		want bool
	}{
		{nil, nil, true},
		{nil, []int32{1}, true},
		{[]int32{1}, nil, false},
		{[]int32{1, 3}, []int32{1, 2, 3}, true},
		{[]int32{1, 4}, []int32{1, 2, 3}, false},
		{[]int32{2}, []int32{1, 2, 3}, true},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, true},
	}
	for _, c := range cases {
		if got := SubsetOfSorted(c.a, c.b); got != c.want {
			t.Errorf("SubsetOfSorted(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: triangle containment is invariant under vertex rotation.
func TestPropTriangleVertexOrder(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, px, py float64) bool {
		norm := func(v float64) float64 { return math.Mod(math.Abs(v), 10) }
		tri := Triangle{
			A: Point{norm(ax), norm(ay)},
			B: Point{norm(bx), norm(by)},
			C: Point{norm(cx), norm(cy)},
		}
		p := Point{norm(px), norm(py)}
		r1 := tri.Contains(p)
		rot := Triangle{A: tri.B, B: tri.C, C: tri.A}
		return rot.Contains(p) == r1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: canonical rectangle splitting preserves the projection exactly
// (Definition 4.1's covering condition with two pieces).
func TestPropRectSplitPreservesProjection(t *testing.T) {
	f := func(seed int64) bool {
		pts := RandomPoints(60, seed)
		tree := NewXSplitTree(pts)
		// A random rectangle.
		rng := seed
		rnd := func() float64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return math.Abs(float64(rng%1000)) / 1000
		}
		x0, x1 := rnd(), rnd()
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		y0, y1 := rnd(), rnd()
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		r := Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}
		proj := ContainedPoints(r, pts, nil)
		if len(proj) == 0 {
			return true
		}
		cs := NewCanonicalStore()
		CanonicalPieces(cs, tree, r, proj, pts)
		// Union of the stored pieces must equal the projection.
		union := map[int32]bool{}
		for _, p := range cs.Pieces() {
			for _, e := range p.Elems {
				union[e] = true
			}
		}
		if len(union) != len(proj) {
			return false
		}
		for _, e := range proj {
			if !union[e] {
				return false
			}
		}
		// At most two pieces per rectangle (Lemma 4.2).
		return cs.Count() <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
