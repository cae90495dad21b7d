package serve

import (
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/scdisk"
	"repro/internal/setcover"
)

func writePlanted(t *testing.T, seed int64) string {
	t.Helper()
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 200, M: 400, K: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "inst.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	return path
}

// The pooling contract: sequential solves of a disk instance REUSE the same
// open handle (no per-solve open), concurrent checkouts get distinct handles,
// handles past the pool cap close on release, and Close drains the pool while
// leaving the instance solvable.
func TestCatalogPoolsRepoHandles(t *testing.T) {
	cat := NewCatalog()
	inst, err := cat.AddFile("p", writePlanted(t, 3))
	if err != nil {
		t.Fatal(err)
	}

	r1, rel1, err := inst.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := rel1(); err != nil {
		t.Fatal(err)
	}
	r2, rel2, err := inst.Open()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("sequential opens did not reuse the pooled handle")
	}

	// Concurrent checkout: the pooled handle is held by r2, so a second Open
	// must hand out a DIFFERENT handle — never shared decode state.
	r3, rel3, err := inst.Open()
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r3 {
		t.Fatal("concurrent opens shared one handle")
	}

	// A reused handle must report exact per-solve pass counts: run a pass on
	// r2, release, re-open, and the counter starts at zero again.
	repo := r2.(*scdisk.Repo)
	it := repo.Begin()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if repo.Passes() == 0 {
		t.Fatal("pass not counted")
	}
	if err := rel2(); err != nil {
		t.Fatal(err)
	}
	r4, rel4, err := inst.Open()
	if err != nil {
		t.Fatal(err)
	}
	if r4 != r2 {
		t.Fatal("expected the released handle back")
	}
	if got := r4.(*scdisk.Repo).Passes(); got != 0 {
		t.Fatalf("reused handle starts with %d passes, want 0", got)
	}
	if err := rel4(); err != nil {
		t.Fatal(err)
	}
	if err := rel3(); err != nil {
		t.Fatal(err)
	}

	// More releases than the pool holds: overflow handles close quietly.
	var rels []func() error
	for i := 0; i < repoPoolSize+3; i++ {
		_, rel, err := inst.Open()
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	for _, rel := range rels {
		if err := rel(); err != nil {
			t.Fatal(err)
		}
	}

	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-Close the instance still solves (fresh handle per solve).
	r5, rel5, err := inst.Open()
	if err != nil {
		t.Fatal(err)
	}
	if r5 == r1 {
		t.Fatal("Close left a pooled handle live")
	}
	if err := rel5(); err != nil {
		t.Fatal(err)
	}
}

// The serve-hardening gap the issue names: two generators registered with the
// SAME tag but different output must get DIFFERENT digests, because the
// registration digest now samples the generator's actual output instead of
// trusting the tag. Identical generators must still agree (the digest is the
// fleet-wide cache key).
func TestGeneratorSelfDigestBindsOutput(t *testing.T) {
	mkGen := func(offset int) func(id int) setcover.Set {
		return func(id int) setcover.Set {
			return setcover.Set{ID: id, Elems: []setcover.Elem{setcover.Elem((id + offset) % 50)}}
		}
	}
	digest := func(t *testing.T, name string, g func(id int) setcover.Set) string {
		cat := NewCatalog()
		inst, err := cat.AddGenerator(name, 50, 100, "stale-tag-v1", g)
		if err != nil {
			t.Fatal(err)
		}
		return inst.Digest
	}

	same1 := digest(t, "g", mkGen(0))
	same2 := digest(t, "g", mkGen(0))
	if same1 != same2 {
		t.Fatal("identical generators got different digests (cache key unstable)")
	}
	if other := digest(t, "g", mkGen(1)); other == same1 {
		t.Fatal("same tag, different output: digests alias — the self-digest is not binding output")
	}

	// Output differing only in the LAST set is still caught (the sample
	// covers both ends of the stream).
	tailDiff := func(id int) setcover.Set {
		s := mkGen(0)(id)
		if id == 99 {
			s.Elems = []setcover.Elem{0, 1} // mkGen(0)(99) yields {49}
		}
		return s
	}
	if d := digest(t, "g", tailDiff); d == same1 {
		t.Fatal("tail-differing generator aliases the original")
	}

	// Name and dimensions still bind as before.
	if d := digest(t, "h", mkGen(0)); d == same1 {
		t.Fatal("different name, same digest")
	}
}

// Small generator families (m smaller than both samples) digest every set
// without double-counting or panicking; m=0 registers cleanly.
func TestGeneratorSelfDigestSmallFamilies(t *testing.T) {
	g := func(id int) setcover.Set {
		return setcover.Set{ID: id, Elems: []setcover.Elem{setcover.Elem(id)}}
	}
	for _, m := range []int{0, 1, generatorDigestSets, 2*generatorDigestSets - 1, 2 * generatorDigestSets} {
		cat := NewCatalog()
		inst, err := cat.AddGenerator("g", 64, m, "t", g)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if inst.Digest == "" {
			t.Fatalf("m=%d: empty digest", m)
		}
	}
	// A one-set difference in a tiny family changes the digest.
	cat := NewCatalog()
	a, err := cat.AddGenerator("g", 64, 3, "t", g)
	if err != nil {
		t.Fatal(err)
	}
	cat2 := NewCatalog()
	b, err := cat2.AddGenerator("g", 64, 3, "t", func(id int) setcover.Set {
		return setcover.Set{ID: id, Elems: []setcover.Elem{setcover.Elem(63 - id)}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatal("tiny families alias")
	}
}

// One file has one identity: registered as a disk instance in one catalog
// and as a dynamic instance in another, it lists the same digest at
// generation 0 — scdisk.Repo.Digest, the hash of every byte — and each
// catalog resolves it by that digest.
func TestCatalogVerifyDigestMode(t *testing.T) {
	path := writePlanted(t, 9)
	d, err := scdisk.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Digest()
	d.Close()
	if err != nil {
		t.Fatal(err)
	}
	disk, dyn := NewCatalog(), NewCatalog()
	defer disk.Close()
	defer dyn.Close()
	di, err := disk.AddFile("p", path)
	if err != nil {
		t.Fatal(err)
	}
	yi, err := dyn.AddDynamic("p", path)
	if err != nil {
		t.Fatal(err)
	}
	if yi.Generation != 0 {
		t.Fatalf("dynamic instance registered at generation %d, want 0", yi.Generation)
	}
	for _, c := range []struct {
		cat  *Catalog
		inst *Instance
	}{{disk, di}, {dyn, yi}} {
		if c.inst.Digest != want {
			t.Fatalf("%s instance lists digest %s, scdisk.Repo.Digest is %s", c.inst.Kind, c.inst.Digest, want)
		}
		if got, ok := c.cat.Get(want); !ok || got != c.inst {
			t.Fatalf("%s catalog does not resolve the file digest", c.inst.Kind)
		}
	}
}
