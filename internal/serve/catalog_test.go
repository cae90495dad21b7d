package serve

import (
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/scdisk"
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
	if err := engine.New(engine.Options{Workers: 1}).Run(repo); err != nil {
		t.Fatal(err)
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
