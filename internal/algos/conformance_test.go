package algos

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/maxcover"
	"repro/internal/obs"
	"repro/internal/scdisk"
	"repro/internal/scdyn"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// The conformance matrix pins the determinism contract for every algorithm
// the repository serves: each row is solved on every fixture, storage
// backend, engine setting and trace setting, and every cell must return the
// Result of the reference cell, SliceRepo at Workers 1, untraced. A new axis
// is one more loop here.

// streamingK is the budget of the Max k-Cover row.
const streamingK = 14

// row is one algorithm of the matrix.
type row struct {
	name string
	// partial rows are also solved at ε = 0.1.
	partial bool
	// maxK is a Max k-Cover row's budget: its Cover is a selection of at
	// most maxK sets, not a cover. 0 for the set cover rows.
	maxK  int
	solve func(stream.Repository, Params) (Result, error)
}

// rows is every entry of the table, plus the one-pass Max k-Cover, which
// is not an entry.
func rows() []row {
	var rs []row
	for _, e := range All() {
		rs = append(rs, row{name: e.Name, partial: e.Partial, solve: e.Solve})
	}
	return append(rs, row{name: "maxkcover", maxK: streamingK, solve: func(r stream.Repository, p Params) (Result, error) {
		res, err := maxcover.Streaming(r, streamingK, p.Engine)
		return Result{Stats: setcover.Stats{Cover: res.Sets, Passes: res.Passes, SpaceWords: res.SpaceWords}}, err
	}})
}

// epsilons are the ε values r is solved at.
func (r row) epsilons() []float64 {
	if r.partial {
		return []float64{0, 0.1}
	}
	return []float64{0}
}

// params are one cell's parameters: the defaults, with cw16 at three passes
// and pd at 64-element batches so that both take several passes.
func params(eps float64, eo engine.Options) Params {
	p := Defaults()
	p.Eps, p.Passes, p.PD.ElemBatch, p.Engine = eps, 3, 64, eo
	return p
}

// settings are the engine settings of the matrix. The traced ones are also
// solved with an obs.Recorder, one on each decode path.
var settings = []struct {
	name   string
	opts   engine.Options
	traced bool
}{
	{"workers=1", engine.Options{Workers: 1}, true},
	{"workers=2", engine.Options{Workers: 2}, true},
	{"workers=8", engine.Options{Workers: 8}, false},
	{"zero", engine.Options{}, false},
	{"workers=2/batch=7", engine.Options{Workers: 2, BatchSize: 7}, false},
	{"workers=2/noseg", engine.Options{Workers: 2, DisableSegmented: true}, false},
}

// fixture is one instance of the matrix, with its indexed SCB1 file.
type fixture struct {
	name string
	in   *setcover.Instance
	path string
}

func planted(t testing.TB, n, m, k int) *setcover.Instance {
	t.Helper()
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: n, M: m, K: k, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// fixtures are the small family (14.6 KB of set data, one 16 KB chunk), the
// multi-chunk one (95 KB in 6 chunks, more than the 4 that the decoders
// claim at once at Workers 2) and the small family with log-uniform costs.
func fixtures(t testing.TB) []fixture {
	t.Helper()
	weighted := planted(t, 400, 900, 20)
	ws, err := gen.WeightedSlice(gen.WeightedConfig{
		Kind: gen.WeightLogUniform, M: weighted.M(), Lo: 0.05, Hi: 20, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	weighted.Weights = ws
	fs := []fixture{
		{name: "small", in: planted(t, 400, 900, 20)},
		{name: "multi-chunk", in: planted(t, 1000, 2000, 16)},
		{name: "weighted", in: weighted},
	}
	dir := t.TempDir()
	for i := range fs {
		fs[i].path = filepath.Join(dir, fs[i].name+".scb")
		if err := scdisk.WriteFile(fs[i].path, fs[i].in); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// open opens f's SCB1 file until the test ends, memory-mapped or read
// with positional reads.
func (f fixture) open(t testing.TB, mmap bool) *scdisk.Repo {
	t.Helper()
	var opts []scdisk.OpenOption
	if mmap {
		opts = append(opts, scdisk.ReadOnlyMmap())
	}
	d, err := scdisk.Open(f.path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if d.Mapped() != mmap {
		t.Fatalf("%s: opened with mmap=%v, mapped=%v", f.name, mmap, d.Mapped())
	}
	return d
}

// backend is one storage backend over a fixture.
type backend struct {
	name string
	repo stream.Repository
	scb1 bool
}

// backends opens every storage backend over f. The FuncRepos generate fresh
// copies of the sets and carry f's costs. protocol runs the readat handle
// through comm's three-player simulation. view reads the file as a dynamic
// instance at generation 0, which only an unweighted file can be: scdyn.Open
// must refuse the weighted one.
func (f fixture) backends(t testing.TB) []backend {
	t.Helper()
	in := f.in
	sets := func(id int) setcover.Set { return setcover.Set{ID: id, Elems: slices.Clone(in.Sets[id].Elems)} }
	fn, seq := stream.NewFuncRepo(in.N, in.M(), sets), stream.NewSequentialFuncRepo(in.N, in.M(), sets)
	if in.Weighted() {
		fn.SetWeightFunc(in.Weight)
		seq.SetWeightFunc(in.Weight)
	}
	readat := f.open(t, false)
	bs := []backend{
		{"slice", stream.NewSliceRepo(in), false},
		{"func", fn, false},
		{"func-sequential", seq, false},
		{"readat", readat, true},
		{"mmap", f.open(t, true), true},
		{"protocol", comm.NewProtocolRepo(readat, 3), false},
	}
	dyn, err := scdyn.Open(f.path)
	if in.Weighted() {
		if err == nil {
			dyn.Close()
			t.Fatalf("%s: scdyn.Open accepted a weighted file", f.name)
		}
		return bs
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dyn.Close() })
	return append(bs, backend{"view", dyn.View(), false})
}

// reference solves the reference cell of r on in at ε and checks it
// independently: a cover of in (of a 1-ε fraction at ε > 0), or, for a Max
// k-Cover row, a selection of at most k sets.
func reference(t testing.TB, r row, in *setcover.Instance, eps float64) Result {
	t.Helper()
	ref, err := r.solve(stream.NewSliceRepo(in), params(eps, engine.Options{Workers: 1}))
	if err != nil {
		t.Fatalf("%s: reference at ε=%v: %v", r.name, eps, err)
	}
	var ok bool
	switch {
	case r.maxK > 0:
		ok = len(ref.Cover) <= r.maxK
	case eps > 0:
		ok = in.IsPartialCover(ref.Cover, eps)
	default:
		ok = ref.Valid && in.IsCover(ref.Cover)
	}
	if !ok {
		t.Fatalf("%s: reference at ε=%v fails its own check: %#v", r.name, eps, ref)
	}
	return ref
}

// Every row returns the reference Result on every fixture, backend, engine
// setting and trace setting, at ε = 0 and, for the partial rows, at ε = 0.1.
func TestConformanceMatrix(t *testing.T) {
	fs := fixtures(t)
	for _, r := range rows() {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			for _, f := range fs {
				bs := f.backends(t)
				for _, eps := range r.epsilons() {
					ref := reference(t, r, f.in, eps)
					for _, b := range bs {
						for _, s := range settings {
							label := fmt.Sprintf("%s/%s/ε=%v/%s", f.name, b.name, eps, s.name)
							p := params(eps, s.opts)
							got, err := r.solve(b.repo, p)
							if err != nil || !reflect.DeepEqual(got, ref) {
								t.Errorf("%s: %#v (%v), want %#v", label, got, err, ref)
								continue
							}
							if s.traced {
								checkTraced(t, label, r, b, p, ref, f.in.M(), f.name == "multi-chunk" && b.scb1 && s.opts.Workers == 2)
							}
						}
					}
				}
			}
		})
	}
}

// checkTraced solves a cell again with an obs.Recorder. Tracing is
// read-only: the traced solve returns the untraced Result, and it records
// one pass per Stats.Passes, numbered 1..k, each delivering all m sets
// without error. With segmented set, every pass must have been decoded in
// at least 4 chunks.
func checkTraced(t *testing.T, label string, r row, b backend, p Params, want Result, m int, segmented bool) {
	t.Helper()
	rec := &obs.Recorder{}
	p.Engine.Tracer = rec
	got, err := r.solve(b.repo, p)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%s traced: %#v (%v), want %#v", label, got, err, want)
		return
	}
	passes := rec.Passes()
	if len(passes) != want.Passes {
		t.Errorf("%s traced: %d passes recorded, want %d", label, len(passes), want.Passes)
	}
	for i, pt := range passes {
		if pt.Index != i+1 || pt.Kind != "sets" || pt.Items != m || pt.Err != nil {
			t.Errorf("%s traced: record %d is pass %d of %d %q items (%v), want pass %d of %d sets",
				label, i, pt.Index, pt.Items, pt.Kind, pt.Err, i+1, m)
		}
		if segmented && (!pt.Segmented || pt.Chunks < 4) {
			t.Errorf("%s traced: pass %d segmented=%v in %d chunks, want segmented in at least 4",
				label, pt.Index, pt.Segmented, pt.Chunks)
		}
	}
}

// A multi-chunk file cut at 3/5 of its bytes, through set data, index and
// trailer, still opens, since its header is intact. Solved on either read
// path at Workers 1 or 2, every row must fail with an error wrapping
// engine.ErrPassFailed and report the one pass that found the cut, the space
// it had charged by then, and no cover.
func TestTruncatedFileFailsEveryRow(t *testing.T) {
	var buf bytes.Buffer
	if err := scdisk.Write(&buf, planted(t, 1000, 2000, 16)); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()*3/5]
	opens := []struct {
		name string
		open func() (*scdisk.Repo, error)
	}{
		{"readat", func() (*scdisk.Repo, error) { return scdisk.NewRepo(bytes.NewReader(cut), int64(len(cut))) }},
		{"mmap", func() (*scdisk.Repo, error) { return scdisk.NewRepoBytes(cut) }},
	}
	for _, r := range rows() {
		for _, o := range opens {
			for _, workers := range []int{1, 2} {
				d, err := o.open()
				if err != nil {
					t.Fatalf("%s: the cut file does not open: %v", o.name, err)
				}
				got, err := r.solve(d, params(0, engine.Options{Workers: workers}))
				if !errors.Is(err, engine.ErrPassFailed) || got.Passes != 1 || got.SpaceWords <= 0 || len(got.Cover) != 0 || got.Valid {
					t.Errorf("%s/%s/workers=%d: %#v (%v), want one failed pass wrapping engine.ErrPassFailed, its space and no cover",
						r.name, o.name, workers, got, err)
				}
			}
		}
	}
}

// Every row solves at four engine settings at once, all on one SCB1 readat
// handle of the multi-chunk fixture. Each solve must return the reference
// cover and space. Passes is left out: a shared handle counts every solve's
// passes (DESIGN §2). CI runs this test under -race, five times over.
func TestConcurrentSolvesOnOneHandle(t *testing.T) {
	f := fixtures(t)[1]
	d := f.open(t, false)
	concurrent := []engine.Options{
		{Workers: 1},
		{Workers: 2},
		{Workers: 2, BatchSize: 7},
		{Workers: 2, DisableSegmented: true},
	}
	var wg sync.WaitGroup
	for _, r := range rows() {
		ref := reference(t, r, f.in, 0)
		for _, eo := range concurrent {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := r.solve(d, params(0, eo))
				if err != nil || !slices.Equal(got.Cover, ref.Cover) || got.SpaceWords != ref.SpaceWords {
					t.Errorf("%s at %+v: cover %v space %d (%v), want cover %v space %d",
						r.name, eo, got.Cover, got.SpaceWords, err, ref.Cover, ref.SpaceWords)
				}
			}()
		}
	}
	wg.Wait()
}

// All-ones costs are no costs: every row returns the same cover after the
// same passes on a unit-weighted copy of the small family, at Workers 1 and
// 2. Space may differ, because storing a projected set's cost takes a word.
func TestUnitWeightsMatchNoWeights(t *testing.T) {
	plain := planted(t, 400, 900, 20)
	unit := &setcover.Instance{N: plain.N, Sets: plain.Sets, Weights: slices.Repeat([]float64{1}, plain.M())}
	for _, r := range rows() {
		for _, workers := range []int{1, 2} {
			p := params(0, engine.Options{Workers: workers})
			want, wantErr := r.solve(stream.NewSliceRepo(plain), p)
			got, err := r.solve(stream.NewSliceRepo(unit), p)
			if err != nil || wantErr != nil || !slices.Equal(got.Cover, want.Cover) || got.Passes != want.Passes {
				t.Errorf("%s/workers=%d: unit costs give cover %v after %d passes (%v), no costs %v after %d (%v)",
					r.name, workers, got.Cover, got.Passes, err, want.Cover, want.Passes, wantErr)
			}
		}
	}
}
