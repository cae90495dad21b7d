package scdisk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// checkBounds fails unless b is a well-formed boundary list over m sets —
// strictly increasing from exactly 0 to exactly m — which is what the engine
// demands before it trusts a plan (a malformed one silently falls back).
func checkBounds(t *testing.T, b []int, m int) {
	t.Helper()
	if len(b) < 1 || b[0] != 0 || b[len(b)-1] != m {
		t.Fatalf("bounds %v do not span [0,%d]", b, m)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds %v not strictly increasing at %d", b, i)
		}
	}
}

// chunkBytes returns the byte span of chunk i under bounds b.
func chunkBytes(offs []int64, b []int, i int) int64 {
	return offs[b[i+1]] - offs[b[i]]
}

func TestPlanByteChunksUniform(t *testing.T) {
	// 100 sets of 10 bytes each: byte balance must reduce to count balance.
	offs := make([]int64, 101)
	for i := range offs {
		offs[i] = int64(100 + 10*i) // nonzero base: plans must be base-relative
	}
	b := planByteChunks(offs, 10)
	checkBounds(t, b, 100)
	if len(b) != 11 {
		t.Fatalf("uniform family: got %d chunks, want 10", len(b)-1)
	}
	for i := 0; i+1 < len(b); i++ {
		if got := chunkBytes(offs, b, i); got != 100 {
			t.Fatalf("uniform family: chunk %d spans %d bytes, want 100", i, got)
		}
	}
}

func TestPlanByteChunksSkewed(t *testing.T) {
	// Set 0 carries half the bytes; 99 light sets share the rest. A
	// count-uniform cut into 10 chunks gives chunk 0 ≈55%, every byte-
	// balanced chunk must stay within one light set of the ideal width —
	// except the unsplittable heavy chunk itself.
	offs := make([]int64, 101)
	offs[0] = 0
	offs[1] = 5000
	for i := 2; i <= 100; i++ {
		offs[i] = offs[i-1] + 50
	}
	total := offs[100]
	b := planByteChunks(offs, 10)
	checkBounds(t, b, 100)
	width := total / 10
	for i := 0; i+1 < len(b); i++ {
		got := chunkBytes(offs, b, i)
		if b[i] == 0 { // the chunk that absorbs the heavy set
			if got < 5000 {
				t.Fatalf("heavy chunk spans %d bytes, must include the 5000-byte set", got)
			}
			continue
		}
		if got > width+50 {
			t.Fatalf("chunk %d spans %d bytes, ideal width %d + one light set", i, got, width)
		}
	}
	// The plan must actually beat count-uniform chunking: no LIGHT chunk may
	// approach the heavy chunk's unavoidable size.
	for i := 0; i+1 < len(b); i++ {
		if b[i] != 0 && chunkBytes(offs, b, i) > total/4 {
			t.Fatalf("light chunk %d spans %d of %d bytes — not balanced", i, chunkBytes(offs, b, i), total)
		}
	}
}

func TestPlanByteChunksEdges(t *testing.T) {
	if b := planByteChunks([]int64{7}, 4); len(b) != 1 || b[0] != 0 {
		t.Fatalf("m=0: got %v, want [0]", b)
	}
	offs := []int64{0, 3, 9, 10}
	for _, target := range []int{-1, 0, 1} {
		b := planByteChunks(offs, target)
		checkBounds(t, b, 3)
		if len(b) != 2 {
			t.Fatalf("target=%d: got %v, want the single chunk [0,3]", target, b)
		}
	}
	// target > m clamps to one set per chunk at most.
	b := planByteChunks(offs, 100)
	checkBounds(t, b, 3)
	if len(b)-1 > 3 {
		t.Fatalf("target>m: %d chunks for 3 sets", len(b)-1)
	}
}

// planByteChunksLinear is the sweep planByteChunks replaced: it walks every
// offset and cuts at the first set whose start reaches the next ideal byte
// position. It is the reference the binary-search plan must match exactly.
func planByteChunksLinear(offs []int64, target int) []int {
	m := len(offs) - 1
	if m <= 0 {
		return []int{0}
	}
	if target < 1 {
		target = 1
	}
	if target > m {
		target = m
	}
	base, total := offs[0], offs[m]-offs[0]
	width := total / int64(target)
	bounds := make([]int, 1, target+1)
	k := int64(1)
	for i := 1; i < m && k < int64(target); i++ {
		if pos := offs[i] - base; pos >= k*width {
			bounds = append(bounds, i)
			k = pos/width + 1
		}
	}
	return append(bounds, m)
}

// The binary-search plan must equal the linear sweep on every input: random
// strictly increasing offsets with m from 0 to 60, set sizes of 1 to 40
// bytes with an occasional set of thousands, and every target from -1 to
// m+1.
func TestPlanByteChunksMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		m := trial % 61
		offs := make([]int64, m+1)
		offs[0] = rng.Int63n(100)
		for i := 1; i <= m; i++ {
			size := 1 + rng.Int63n(40)
			if rng.Intn(15) == 0 {
				size = 1000 + rng.Int63n(10000)
			}
			offs[i] = offs[i-1] + size
		}
		for target := -1; target <= m+1; target++ {
			got, want := planByteChunks(offs, target), planByteChunksLinear(offs, target)
			if !slices.Equal(got, want) {
				t.Fatalf("offs %v target %d: plan %v, linear sweep %v", offs, target, got, want)
			}
		}
	}
}

// skewedFile writes a byte-skewed family (gen.SkewedFunc) in the indexed
// format and returns the encoded bytes plus the materialized reference sets.
func skewedFile(t testing.TB, n, m int) ([]byte, []setcover.Set) {
	t.Helper()
	genSet, err := gen.SkewedFunc(gen.SkewedConfig{N: n, M: m, HeavyID: m / 3, LightSize: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, n, m)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]setcover.Set, 0, m)
	for id := 0; id < m; id++ {
		s := genSet(id)
		if err := w.WriteSet(s.Elems); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, s)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ref
}

// The tentpole conformance: on the adversarially skewed family, the engine's
// segmented pass — now cut by the byte-balanced plan — must deliver a stream
// byte-identical to the reference at EVERY worker count, on both the
// positional-read and the byte-backed (mmap-equivalent) repos.
func TestSkewedSegmentedConformance(t *testing.T) {
	data, ref := skewedFile(t, 2000, 300)
	repos := map[string]*Repo{}
	d1, err := NewRepo(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	repos["readat"] = d1
	d2, err := NewRepoBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	repos["bytes"] = d2

	for name, d := range repos {
		if !d.HasIndex() {
			t.Fatalf("%s: skewed file lost its index", name)
		}
		for _, workers := range []int{1, 2, 3, 5} {
			for _, batch := range []int{1, 7, 64} {
				seen := 0
				err := engine.New(engine.Options{Workers: workers, BatchSize: batch}).Run(d,
					engine.Func(func(sets []setcover.Set) {
						for _, s := range sets {
							if s.ID != seen {
								t.Fatalf("%s w=%d b=%d: set %d delivered at position %d", name, workers, batch, s.ID, seen)
							}
							want := ref[seen].Elems
							if len(s.Elems) != len(want) {
								t.Fatalf("%s w=%d b=%d set %d: %d elems, want %d", name, workers, batch, seen, len(s.Elems), len(want))
							}
							for i := range want {
								if s.Elems[i] != want[i] {
									t.Fatalf("%s w=%d b=%d set %d: elem %d diverges", name, workers, batch, seen, i)
								}
							}
							seen++
						}
					}))
				if err != nil {
					t.Fatalf("%s w=%d b=%d: %v", name, workers, batch, err)
				}
				if seen != len(ref) {
					t.Fatalf("%s w=%d b=%d: saw %d of %d sets", name, workers, batch, seen, len(ref))
				}
			}
		}
	}
}

// Concurrent segmented passes share pooled scratch: the engine's chunk
// records with their arenas, and the repository's segment readers. 4
// goroutines each run 5 segmented passes through ONE engine over ONE
// repository, on the positional-read and the mmap path, and every pass must
// deliver the sequential stream. Run under -race this catches a decoder that
// touches a chunk record after handing it to the consumer. The
// three-observer variants recycle batches from three delivery goroutines, in
// racing order, and their batches of 7 straddle chunk boundaries: a chunk
// record released while a batch still views its arena shows up as a set that
// differs from the reference.
func TestConcurrentSegmentedPasses(t *testing.T) {
	data, ref := skewedFile(t, 2000, 3000)
	path := filepath.Join(t.TempDir(), "skewed.scb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		opts      []OpenOption
		batch     int
		observers int
	}{
		{"readat", nil, 16, 1},
		{"mmap", []OpenOption{ReadOnlyMmap()}, 16, 1},
		{"readat-3-observers", nil, 7, 3},
		{"mmap-3-observers", []OpenOption{ReadOnlyMmap()}, 7, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := Open(path, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			eng := engine.New(engine.Options{Workers: 3, BatchSize: c.batch})
			const goroutines, passes = 4, 5
			errc := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				go func() {
					for p := 0; p < passes; p++ {
						if err := sequentialPass(eng, d, ref, c.observers); err != nil {
							errc <- fmt.Errorf("pass %d: %w", p, err)
							return
						}
					}
					errc <- nil
				}()
			}
			for g := 0; g < goroutines; g++ {
				if err := <-errc; err != nil {
					t.Error(err)
				}
			}
			if got := d.Passes(); got != goroutines*passes {
				t.Errorf("%d passes counted, want %d", got, goroutines*passes)
			}
		})
	}
}

// sequentialPass runs one pass of eng over d with the given number of
// observers, each checking every set against ref, and reports the first way
// a delivered stream differs from ref.
func sequentialPass(eng *engine.Engine, d *Repo, ref []setcover.Set, observers int) error {
	bad := make([]error, observers)
	seen := make([]int, observers)
	obs := make([]engine.Observer, observers)
	for o := range obs {
		obs[o] = engine.Func(func(sets []setcover.Set) {
			for _, s := range sets {
				if i := seen[o]; bad[o] == nil && (s.ID != i || !slices.Equal(s.Elems, ref[i].Elems)) {
					bad[o] = fmt.Errorf("observer %d: set %d delivered at position %d with %d elements, want %d", o, s.ID, i, len(s.Elems), len(ref[i].Elems))
				}
				seen[o]++
			}
		})
	}
	if err := eng.Run(d, obs...); err != nil {
		return err
	}
	for o := range obs {
		if bad[o] == nil && seen[o] != len(ref) {
			bad[o] = fmt.Errorf("observer %d saw %d of %d sets", o, seen[o], len(ref))
		}
	}
	return errors.Join(bad...)
}

// Open(ReadOnlyMmap) must behave identically to plain Open in every
// observable way — same digest, same sets, same index — differing only in
// Mapped(). On platforms without mmap it silently degrades, which the test
// accepts (the option is a hint).
func TestOpenReadOnlyMmap(t *testing.T) {
	in := testInstance(t)
	path := writeTemp(t, in)

	plain, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	mapped, err := Open(path, ReadOnlyMmap())
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	if plain.Mapped() {
		t.Fatal("plain Open reports Mapped")
	}
	if runtime.GOOS == "linux" && !mapped.Mapped() {
		t.Fatal("ReadOnlyMmap did not map on linux")
	}
	dp, err := plain.Digest()
	if err != nil {
		t.Fatal(err)
	}
	dm, err := mapped.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if dp != dm {
		t.Fatalf("digest differs between read paths: %s vs %s", dp, dm)
	}
	if plain.HasIndex() != mapped.HasIndex() || plain.NumSets() != mapped.NumSets() {
		t.Fatal("metadata differs between read paths")
	}

	// Streams must agree set for set.
	rp, rm := plain.Begin(), mapped.Begin()
	for {
		sp, okp := rp.Next()
		sm, okm := rm.Next()
		if okp != okm {
			t.Fatal("streams end at different positions")
		}
		if !okp {
			break
		}
		if sp.ID != sm.ID || len(sp.Elems) != len(sm.Elems) {
			t.Fatalf("set %d diverges between read paths", sp.ID)
		}
		for i := range sp.Elems {
			if sp.Elems[i] != sm.Elems[i] {
				t.Fatalf("set %d: elem %d diverges", sp.ID, i)
			}
		}
	}
	if err := stream.ReaderErr(rp); err != nil {
		t.Fatal(err)
	}
	if err := stream.ReaderErr(rm); err != nil {
		t.Fatal(err)
	}
}

// Both backends must enforce the segment span check: an index whose interior
// boundary lies (total preserved) must fail the pass, never decode garbage
// mid-set, and a span with bytes left after its last set must fail too.
func TestByteBackedSegmentSpanVerify(t *testing.T) {
	in := testInstance(t)
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	d, err := NewRepoBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Shift an interior boundary by hand: sets [10, 12) read with a start
	// offset one byte early, which cannot consume the span exactly.
	d.offs[10]--
	src, ok := d.BeginSegmented()
	if !ok {
		t.Fatal("BeginSegmented declined")
	}
	if _, _, err := src.DecodeSegment(10, 12, nil, nil); err == nil {
		t.Fatal("lying interior boundary decoded cleanly on the byte path")
	}

	// A span that ends one byte past set 11 decodes both sets cleanly and
	// must then fail the span check — on both backends.
	for name, open := range map[string]func([]byte) (*Repo, error){
		"readat": func(b []byte) (*Repo, error) { return NewRepo(bytes.NewReader(b), int64(len(b))) },
		"bytes":  NewRepoBytes,
	} {
		d, err := open(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		d.offs[12]++
		src, ok := d.BeginSegmented()
		if !ok {
			t.Fatalf("%s: BeginSegmented declined", name)
		}
		sets, _, err := src.DecodeSegment(10, 12, nil, nil)
		if len(sets) != 2 || err == nil || !strings.Contains(err.Error(), "index span mismatch") {
			t.Fatalf("%s: overlong span gave %d sets and err %v, want 2 sets then a span mismatch", name, len(sets), err)
		}
	}
}
