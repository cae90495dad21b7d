package scdisk_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	ssc "repro"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// skewedImage encodes the byte-skewed family (gen.SkewedFunc) at n, m as an
// indexed SCB1 image: n=2000 m=12000 makes 265 KB of set data, 17 chunks of
// the engine's 16 KB.
func skewedImage(tb testing.TB, n, m int) []byte {
	tb.Helper()
	genSet, err := gen.SkewedFunc(gen.SkewedConfig{N: n, M: m, HeavyID: m / 3, LightSize: 16, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := scdisk.NewWriter(&buf, n, m)
	if err != nil {
		tb.Fatal(err)
	}
	for id := 0; id < m; id++ {
		if err := w.WriteSet(genSet(id).Elems); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// dataSpan is the [start, end) file span of d's set-data section.
func dataSpan(tb testing.TB, d *scdisk.Repo) (int64, int64) {
	tb.Helper()
	off, _, _, ok := d.SetSpan(0)
	if !ok {
		tb.Fatal("fixture has no index")
	}
	return off, off + d.DataBytes()
}

// countingReaderAt counts the bytes its reads return from [lo, hi).
type countingReaderAt struct {
	r      io.ReaderAt
	lo, hi int64
	n      atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	k, err := c.r.ReadAt(p, off)
	if lo, hi := max(off, c.lo), min(off+int64(k), c.hi); hi > lo {
		c.n.Add(hi - lo)
	}
	return k, err
}

// A pass whose observer skips ranges stops decoding them, not reading them:
// every pass of a greedyn solve at Workers 2 reads at least the whole
// set-data section and drains all m sets, and some of them check chunks
// instead of decoding them. A zero-observer scan and a VerifyCover pass on
// the same handle, which have no skipping observer, decode every chunk, and
// a settled pass allocates no more than a full one. Four greedyn solves at once on
// one fresh handle, readat and mmap, record and read the chunk checksums
// concurrently (run under -race) and must each find the sequential solve's
// cover.
func TestSettledPassReadsEveryByte(t *testing.T) {
	const n, m = 2000, 12000
	data := skewedImage(t, n, m)
	cr := &countingReaderAt{r: bytes.NewReader(data)}
	d, err := scdisk.NewRepo(cr, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	cr.lo, cr.hi = dataSpan(t, d)

	var passes []obs.PassTrace
	var read []int64
	last := cr.n.Load()
	tracer := obs.TracerFunc(func(p obs.PassTrace) {
		now := cr.n.Load()
		passes, read = append(passes, p), append(read, now-last)
		last = now
	})
	want, err := baseline.MultiPassGreedy(d, engine.Options{Workers: 2, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for i, p := range passes {
		if read[i] < d.DataBytes() || p.Items != m {
			t.Fatalf("greedyn pass %d read %d of %d set-data bytes and drained %d of %d sets",
				p.Index, read[i], d.DataBytes(), p.Items, m)
		}
		skipped += p.Skipped
	}
	if skipped == 0 {
		t.Fatalf("none of %d greedyn passes checked a chunk instead of decoding it", len(passes))
	}

	passes, read = nil, nil
	if err := engine.New(engine.Options{Workers: 2, Tracer: tracer}).Run(d); err != nil {
		t.Fatal(err)
	}
	if covered, _, err := ssc.VerifyCover(d, want.Cover, ssc.EngineOptions{Workers: 2, Tracer: tracer}); err != nil || covered != n {
		t.Fatalf("VerifyCover: %d of %d covered, err %v", covered, n, err)
	}
	for i, p := range passes {
		if p.Skipped != 0 || p.Items != m || read[i] < d.DataBytes() {
			t.Fatalf("pass %d without a skipping observer skipped %d sets, drained %d, read %d bytes",
				i, p.Skipped, p.Items, read[i])
		}
	}

	// A settled pass allocates no more than a full one: checked chunks take
	// the same pooled records as decoded ones.
	eng := engine.New(engine.Options{Workers: 2})
	full := engine.Func(func([]setcover.Set) {})
	settled := &firstSets{want: 1000}
	allocs := func(o engine.Observer) float64 { return testing.AllocsPerRun(20, func() { _ = eng.Run(d, o) }) }
	if a, b := allocs(full), allocs(settled); b > a+2 {
		t.Errorf("a settled pass allocates %.1f times, a full one %.1f", b, a)
	}

	path := filepath.Join(t.TempDir(), "skewed.scb")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts []scdisk.OpenOption
	}{{"readat", nil}, {"mmap", []scdisk.OpenOption{scdisk.ReadOnlyMmap()}}} {
		t.Run(c.name, func(t *testing.T) {
			d, err := scdisk.Open(path, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					st, err := baseline.MultiPassGreedy(d, engine.Options{Workers: 2})
					if err != nil || !slices.Equal(st.Cover, want.Cover) || st.SpaceWords != want.SpaceWords {
						t.Errorf("concurrent solve: %d sets, %d words, err %v; want %d sets, %d words",
							len(st.Cover), st.SpaceWords, err, len(want.Cover), want.SpaceWords)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// firstSets reads the first want sets of a pass and then can skip every
// range. CanSkip runs on decoder goroutines, so seen is atomic.
type firstSets struct {
	seen atomic.Int64
	want int64
}

func (f *firstSets) BeginPass()            { f.seen.Store(0) }
func (f *firstSets) EndPass()              {}
func (f *firstSets) CanSkip(_, _ int) bool { return f.seen.Load() >= f.want }
func (f *firstSets) Observe(batch []setcover.Set) {
	if !f.CanSkip(0, 0) {
		f.seen.Add(int64(len(batch)))
	}
}

// outcome is what a solve reports that a skipped chunk could change.
type outcome struct {
	passFailed, infeasible bool
	cover                  []int
	passes                 int
	space                  int64
}

func (o outcome) String() string {
	return fmt.Sprintf("pass failed %v, infeasible %v, %d sets, %d passes, %d words",
		o.passFailed, o.infeasible, len(o.cover), o.passes, o.space)
}

func (o outcome) equal(p outcome) bool {
	if o.passFailed || p.passFailed {
		return o.passFailed == p.passFailed
	}
	return o.infeasible == p.infeasible && slices.Equal(o.cover, p.cover) && o.passes == p.passes && o.space == p.space
}

// settleSolvers are the table's algorithms whose observers skip ranges.
var settleSolvers = []struct {
	name  string
	solve func(stream.Repository, engine.Options) (setcover.Stats, error)
}{
	{"greedyn", baseline.MultiPassGreedy},
	{"threshold", baseline.ThresholdGreedy},
}

func solveOutcome(d stream.Repository, solve func(stream.Repository, engine.Options) (setcover.Stats, error), opts engine.Options) outcome {
	st, err := solve(d, opts)
	return outcome{passFailed: errors.Is(err, engine.ErrPassFailed), infeasible: errors.Is(err, setcover.ErrInfeasible),
		cover: st.Cover, passes: st.Passes, space: st.SpaceWords}
}

// openPaths opens an image on the byte path (the slice itself, so a rewrite
// of it is a file rewritten in place under a mapping) and on the
// positional-read path over the same slice.
func openPaths(tb testing.TB, image []byte) map[string]*scdisk.Repo {
	tb.Helper()
	db, err := scdisk.NewRepoBytes(image)
	if err != nil {
		tb.Fatal(err)
	}
	dr, err := scdisk.NewRepo(bytes.NewReader(image), int64(len(image)))
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*scdisk.Repo{"bytes": db, "readat": dr}
}

// FuzzSettledPassMatchesFullDecode rewrites the set data of an image in
// place between two solves on one handle. The handle's chunk checksums were
// recorded over the old bytes, so every chunk a pass checks either
// still matches — the bytes are unchanged — or is decoded. The second solve
// must therefore report what a solve on a fresh handle over the rewritten
// image reports: the same pass failure, or the same cover, passes and space
// words. The seeds rewrite the last chunk so that it still decodes and so
// that it fails to decode.
func FuzzSettledPassMatchesFullDecode(f *testing.F) {
	base := skewedImage(f, 2000, 12000)
	d, err := scdisk.NewRepoBytes(base)
	if err != nil {
		f.Fatal(err)
	}
	lo, hi := dataSpan(f, d)
	f.Add(uint32(hi-lo-1), []byte{0})    // the last gap shrinks: still decodes
	f.Add(uint32(hi-lo-1), []byte{0xff}) // the last gap runs past the section: fails

	opts := engine.Options{Workers: 2}
	f.Fuzz(func(t *testing.T, off uint32, patch []byte) {
		at := lo + int64(off)%(hi-lo)
		patch = patch[:min(int64(len(patch)), hi-at)]
		image := slices.Clone(base)
		handles := openPaths(t, image)
		for path, d := range handles {
			for _, s := range settleSolvers {
				if o := solveOutcome(d, s.solve, opts); o.passFailed || o.infeasible {
					t.Fatalf("%s/%s: clean image: %v", path, s.name, o)
				}
			}
		}
		copy(image[at:], patch)
		fresh := openPaths(t, slices.Clone(image))
		for path, d := range handles {
			for _, s := range settleSolvers {
				got, want := solveOutcome(d, s.solve, opts), solveOutcome(fresh[path], s.solve, opts)
				if !got.equal(want) {
					t.Fatalf("%s/%s after rewriting %d bytes at %d: reused handle %v, fresh handle %v",
						path, s.name, len(patch), at, got, want)
				}
			}
		}
	})
}

// Nothing is checked before it was first decoded: on a fresh handle over an
// image whose last chunk fails to decode, the first solve fails the way a
// solve that never segments does.
func TestFirstSolveOnCorruptImageFailsLikeFullDecode(t *testing.T) {
	image := skewedImage(t, 2000, 12000)
	d, err := scdisk.NewRepoBytes(image)
	if err != nil {
		t.Fatal(err)
	}
	_, hi := dataSpan(t, d)
	image[hi-1] = 0xff // the last gap runs past the section
	for _, s := range settleSolvers {
		for path, d := range openPaths(t, image) {
			got := solveOutcome(d, s.solve, engine.Options{Workers: 2})
			want := solveOutcome(openPaths(t, image)[path], s.solve, engine.Options{Workers: 2, DisableSegmented: true})
			if !got.passFailed || got.passes != want.passes || !want.passFailed {
				t.Fatalf("%s/%s: segmented first solve %v, single-reader solve %v", path, s.name, got, want)
			}
		}
	}
}
