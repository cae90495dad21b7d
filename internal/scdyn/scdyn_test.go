package scdyn

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/scdisk"
	"repro/internal/setcover"
)

// writeBase writes an instance to a temp SCB1 file and returns its path.
func writeBase(t *testing.T, in *setcover.Instance) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatalf("write base: %v", err)
	}
	return path
}

func smallInstance() *setcover.Instance {
	return &setcover.Instance{
		N: 8,
		Sets: []setcover.Set{
			{ID: 0, Elems: []setcover.Elem{0, 1, 2, 3}},
			{ID: 1, Elems: []setcover.Elem{4, 5}},
			{ID: 2, Elems: []setcover.Elem{6, 7}},
			{ID: 3, Elems: []setcover.Elem{0, 4, 6}},
		},
	}
}

func mustOpen(t *testing.T, path string) *Repo {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestMutationsAdvanceIdentity(t *testing.T) {
	r := mustOpen(t, writeBase(t, smallInstance()))
	if got, want := r.Generation(), 0; got != want {
		t.Fatalf("Generation = %d, want %d", got, want)
	}
	if r.ContentDigest() != r.BaseDigest() {
		t.Fatalf("gen-0 digest %q != base digest %q", r.ContentDigest(), r.BaseDigest())
	}

	seen := map[string]bool{r.ContentDigest(): true}
	id, d1, err := r.AppendSet([]setcover.Elem{1, 5, 7})
	if err != nil {
		t.Fatalf("AppendSet: %v", err)
	}
	if id != 4 {
		t.Fatalf("appended id = %d, want 4", id)
	}
	if seen[d1] {
		t.Fatalf("append did not mint a new digest")
	}
	seen[d1] = true
	d2, err := r.Tombstone(1)
	if err != nil {
		t.Fatalf("Tombstone: %v", err)
	}
	if seen[d2] {
		t.Fatalf("tombstone did not mint a new digest")
	}
	if r.Generation() != 2 || r.NumSets() != 5 {
		t.Fatalf("gen=%d m=%d, want 2 and 5", r.Generation(), r.NumSets())
	}
	if got := r.ContentDigest(); got != d2 {
		t.Fatalf("ContentDigest = %q, want %q", got, d2)
	}
	if d0, err := r.DigestAt(0); err != nil || d0 != r.BaseDigest() {
		t.Fatalf("DigestAt(0) = %q, %v", d0, err)
	}
}

func TestApplyValidation(t *testing.T) {
	r := mustOpen(t, writeBase(t, smallInstance()))
	cases := []struct {
		name string
		ops  []Op
	}{
		{"empty batch", nil},
		{"unsorted elems", []Op{{Kind: OpAppend, Elems: []setcover.Elem{3, 1}}}},
		{"duplicate elems", []Op{{Kind: OpAppend, Elems: []setcover.Elem{3, 3}}}},
		{"out of range elem", []Op{{Kind: OpAppend, Elems: []setcover.Elem{8}}}},
		{"tombstone out of range", []Op{{Kind: OpTombstone, ID: 4}}},
		{"double tombstone in batch", []Op{{Kind: OpTombstone, ID: 1}, {Kind: OpTombstone, ID: 1}}},
		{"unknown kind", []Op{{Kind: OpKind(9)}}},
	}
	for _, tc := range cases {
		if _, err := r.Apply(tc.ops); err == nil {
			t.Errorf("%s: Apply succeeded, want error", tc.name)
		}
	}
	if r.Generation() != 0 {
		t.Fatalf("rejected batches mutated the repo: gen = %d", r.Generation())
	}
	// A batch may tombstone a set it just appended.
	if _, err := r.Apply([]Op{{Kind: OpAppend, Elems: []setcover.Elem{0}}, {Kind: OpTombstone, ID: 4}}); err != nil {
		t.Fatalf("append+tombstone batch: %v", err)
	}
}

func TestReopenReplaysLog(t *testing.T) {
	path := writeBase(t, smallInstance())
	r := mustOpen(t, path)
	if _, _, err := r.AppendSet([]setcover.Elem{1, 5, 7}); err != nil {
		t.Fatal(err)
	}
	want, err := r.Tombstone(0)
	if err != nil {
		t.Fatal(err)
	}
	wantInst, err := r.View().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	r.Close()

	r2 := mustOpen(t, path)
	if r2.Generation() != 2 || r2.ContentDigest() != want {
		t.Fatalf("reopen: gen=%d digest=%q, want 2 and %q", r2.Generation(), r2.ContentDigest(), want)
	}
	gotInst, err := r2.View().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotInst.Sets) != len(wantInst.Sets) {
		t.Fatalf("reopen m = %d, want %d", len(gotInst.Sets), len(wantInst.Sets))
	}
	for i := range gotInst.Sets {
		if !elemsEqual(gotInst.Sets[i].Elems, wantInst.Sets[i].Elems) {
			t.Fatalf("set %d differs after reopen: %v vs %v", i, gotInst.Sets[i].Elems, wantInst.Sets[i].Elems)
		}
	}

	// Mutating after reopen continues the same chain.
	if _, _, err := r2.AppendSet([]setcover.Elem{2}); err != nil {
		t.Fatalf("mutate after reopen: %v", err)
	}
}

func TestTamperedLogFailsOpen(t *testing.T) {
	path := writeBase(t, smallInstance())
	r := mustOpen(t, path)
	if _, _, err := r.AppendSet([]setcover.Elem{1, 5, 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Tombstone(2); err != nil {
		t.Fatal(err)
	}
	r.Close()

	logPath := path + LogSuffix
	orig, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bit flip", func(t *testing.T) {
		bad := append([]byte(nil), orig...)
		bad[len(bad)/2] ^= 0x40
		if err := os.WriteFile(logPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Fatal("Open accepted a bit-flipped log")
		}
	})
	t.Run("truncation", func(t *testing.T) {
		if err := os.WriteFile(logPath, orig[:len(orig)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Fatal("Open accepted a truncated log")
		}
	})
	// A log is anchored on its base file's content digest, a hash of every
	// byte, so a log beside any other file — another family, or the same
	// family written under an older digest scheme — fails Open with an error
	// that names both digests and the remedy.
	t.Run("wrong base", func(t *testing.T) {
		other := smallInstance()
		other.Sets[0].Elems = []setcover.Elem{0, 1}
		otherPath := writeBase(t, other)
		if err := os.WriteFile(otherPath+LogSuffix, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(otherPath)
		if err == nil {
			t.Fatal("Open accepted a log bound to a different base")
		}
		if !strings.Contains(err.Error(), "bound to base digest") || !strings.Contains(err.Error(), "move the log aside and re-apply its mutations") {
			t.Fatalf("wrong-base error = %v, want binding message and remedy", err)
		}
	})
	// Restore and confirm the pristine log still opens.
	if err := os.WriteFile(logPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, path)
}

func TestViewSnapshotIsolation(t *testing.T) {
	r := mustOpen(t, writeBase(t, smallInstance()))
	v0 := r.View()
	if _, _, err := r.AppendSet([]setcover.Elem{1, 5, 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Tombstone(0); err != nil {
		t.Fatal(err)
	}
	v2 := r.View()

	// v0 still streams the pre-mutation family.
	in0, err := v0.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(in0.Sets) != 4 || !elemsEqual(in0.Sets[0].Elems, []setcover.Elem{0, 1, 2, 3}) {
		t.Fatalf("gen-0 view drifted: m=%d set0=%v", len(in0.Sets), in0.Sets[0].Elems)
	}
	if v0.Digest() != r.BaseDigest() {
		t.Fatalf("gen-0 view digest %q != base %q", v0.Digest(), r.BaseDigest())
	}

	// v2 sees the tombstone (empty, position held) and the appended set.
	in2, err := v2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(in2.Sets) != 5 {
		t.Fatalf("gen-2 m = %d, want 5", len(in2.Sets))
	}
	if len(in2.Sets[0].Elems) != 0 {
		t.Fatalf("tombstoned set streams %v, want empty", in2.Sets[0].Elems)
	}
	if !elemsEqual(in2.Sets[4].Elems, []setcover.Elem{1, 5, 7}) {
		t.Fatalf("appended set streams %v", in2.Sets[4].Elems)
	}

	// ViewAt reaches intermediate generations.
	v1, err := r.ViewAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if v1.NumSets() != 5 || v1.Generation() != 1 {
		t.Fatalf("ViewAt(1): m=%d gen=%d", v1.NumSets(), v1.Generation())
	}
	if _, err := r.ViewAt(3); err == nil {
		t.Fatal("ViewAt beyond current generation succeeded")
	}
}

func TestViewPassAccounting(t *testing.T) {
	r := mustOpen(t, writeBase(t, smallInstance()))
	v := r.View()
	if v.Passes() != 0 {
		t.Fatalf("fresh view Passes = %d", v.Passes())
	}
	drainView(t, v, 2)
	if v.Passes() != 1 {
		t.Fatalf("Passes = %d after one pass", v.Passes())
	}
	v.ResetPasses()
	if v.Passes() != 0 {
		t.Fatalf("ResetPasses left %d", v.Passes())
	}
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The repo is still usable after a view Close.
	if r.NumSets() != 4 {
		t.Fatalf("repo broken after view close")
	}
}

// drainView reads one pass of v size sets at a time and returns copies of
// its sets.
func drainView(t *testing.T, v *View, size int) []setcover.Set {
	t.Helper()
	var sets []setcover.Set
	it, batch := v.Begin(), make([]setcover.Set, size)
	for n := it.NextBatch(batch); n > 0; n = it.NextBatch(batch) {
		for _, s := range batch[:n] {
			sets = append(sets, setcover.Set{ID: s.ID, Elems: slices.Clone(s.Elems)})
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("pass error: %v", err)
	}
	return sets
}

// A view streams the same family at every batch size: the base sets in file
// order with the tombstoned one empty, then the appended set.
func TestViewBatchSizesAgree(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 500, M: 60, K: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, writeBase(t, in))
	if _, err := r.Tombstone(3); err != nil {
		t.Fatal(err)
	}
	appended := []setcover.Elem{0, 499}
	if _, _, err := r.AppendSet(appended); err != nil {
		t.Fatal(err)
	}
	v := r.View()
	for _, size := range []int{1, 7, 60, 256} {
		sets := drainView(t, v, size)
		if len(sets) != v.NumSets() {
			t.Fatalf("batch size %d: %d sets, want %d", size, len(sets), v.NumSets())
		}
		for i, s := range sets {
			var want []setcover.Elem
			switch {
			case i == in.M():
				want = appended
			case i != 3:
				want = in.Sets[i].Elems
			}
			if s.ID != i || !elemsEqual(s.Elems, want) {
				t.Fatalf("batch size %d: set %d (id %d) = %v, want %v", size, i, s.ID, s.Elems, want)
			}
		}
	}
}

// A pass over a view allocates per batch, not per set: its base sets are
// decoded into the base file's recycled arenas, at every worker count and
// whether or not the view has mutations.
func TestViewPassAllocatesPerBatch(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 2000, M: 12000, K: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, writeBase(t, in))
	v0 := r.View()
	if _, _, err := r.AppendSet([]setcover.Elem{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Tombstone(5); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*View{v0, r.View()} {
		for _, workers := range []int{1, 2} {
			// Two counting observers, so that at Workers 2 batches are
			// delivered, and recycled, on the worker goroutines.
			e := engine.New(engine.Options{Workers: workers})
			var sets [2]int
			count := func(i int) engine.Func {
				return func(batch []setcover.Set) { sets[i] += len(batch) }
			}
			observers := []engine.Observer{count(0), count(1)}
			pass := func() {
				sets = [2]int{}
				if err := e.Run(v, observers...); err != nil {
					t.Fatal(err)
				}
			}
			pass() // warm-up: fills the base file's arena list
			allocs := testing.AllocsPerRun(5, pass)
			if sets != [2]int{v.NumSets(), v.NumSets()} {
				t.Fatalf("gen %d workers=%d: observers saw %v of %d sets", v.Generation(), workers, sets, v.NumSets())
			}
			t.Logf("gen %d workers=%d: %.0f allocations per pass", v.Generation(), workers, allocs)
			if allocs > 64 {
				t.Fatalf("gen %d workers=%d: %.0f allocations per pass, want at most 64", v.Generation(), workers, allocs)
			}
		}
	}
}

// A weighted base cannot be opened as a dynamic instance: the delta log has
// no weight representation, so its views would stream it as unweighted.
func TestOpenRefusesWeightedBase(t *testing.T) {
	in := smallInstance()
	in.Weights = []float64{1, 2, 3, 4}
	if _, err := Open(writeBase(t, in)); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Fatalf("Open of a weighted base: err = %v, want a refusal naming weights", err)
	}
}

func elemsEqual(a, b []setcover.Elem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
