package core

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// These pins hold IterSetCover's whole Result to one value on every storage
// backend, Iterations and StoredProjectionWordsPeak included, which
// algos.Result does not carry. The conformance matrix
// (internal/algos/conformance_test.go) sweeps the iter row over every
// fixture, backend, engine setting and trace setting, and checks that the
// multi-chunk fixture's segmented passes decode in several chunks.

// settings are the engine settings the pins sweep.
var settings = []engine.Options{{Workers: 1}, {Workers: 2}, {Workers: 8}, {Workers: 2, DisableSegmented: true}}

// backends are in on every storage backend: SliceRepo, a FuncRepo carrying
// in's costs, and in's SCB1 encoding read positionally and in place, which
// is the mmap decode path.
func backends(t *testing.T, in *setcover.Instance) []stream.Repository {
	t.Helper()
	var buf bytes.Buffer
	if err := scdisk.Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	readat, err1 := scdisk.NewRepo(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	inplace, err2 := scdisk.NewRepoBytes(buf.Bytes())
	if err := errors.Join(err1, err2); err != nil {
		t.Fatal(err)
	}
	fn := stream.NewFuncRepo(in.N, in.M(), func(id int) setcover.Set { return setcover.Set{ID: id, Elems: slices.Clone(in.Sets[id].Elems)} })
	if in.Weighted() {
		fn.SetWeightFunc(in.Weight)
	}
	return []stream.Repository{stream.NewSliceRepo(in), fn, readat, inplace}
}

// conform solves in with opts on every backend at every setting, and
// requires the Result of SliceRepo at Workers 1, which must cover in, or a
// 1-ε fraction of it at opts.PartialEps.
func conform(t *testing.T, in *setcover.Instance, opts Options) {
	t.Helper()
	opts.Engine = engine.Options{Workers: 1}
	want, err := IterSetCover(stream.NewSliceRepo(in), opts)
	if err != nil || !in.IsPartialCover(want.Cover, opts.PartialEps) {
		t.Fatalf("reference %v (%v) is no cover at ε=%v", want.Cover, err, opts.PartialEps)
	}
	for i, r := range backends(t, in) {
		for _, eo := range settings {
			opts.Engine = eo
			if got, err := IterSetCover(r, opts); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("backend %d (%T) at %+v: %#v (%v), want %#v", i, r, eo, got, err, want)
			}
		}
	}
}

func TestIterSetCoverBackendConformance(t *testing.T) {
	mem, _ := plantedRepo(t, 400, 900, 20, 3)
	conform(t, mem.Instance(), Options{Delta: 0.5, Seed: 7})
	conform(t, gen.Uniform(300, 600, 0.03, 17), Options{Delta: 0.5, Seed: 7})
}

// The partial variant stops its guesses mid-pass, on every backend alike.
func TestIterSetCoverPartialBackendConformance(t *testing.T) {
	mem, _ := plantedRepo(t, 400, 900, 20, 3)
	conform(t, mem.Instance(), Options{Delta: 0.5, Seed: 5, PartialEps: 0.1})
}

// Costs reach every backend: SliceRepo reads Instance.Weights, FuncRepo a
// weight function, and both SCB1 read paths the SCWT section.
func TestIterSetCoverWeightedConformance(t *testing.T) {
	mem, _ := plantedRepo(t, 400, 900, 20, 3)
	in := mem.Instance()
	ws, err := gen.WeightedSlice(gen.WeightedConfig{Kind: gen.WeightLogUniform, M: in.M(), Lo: 0.05, Hi: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	conform(t, &setcover.Instance{N: in.N, Sets: in.Sets, Weights: ws}, Options{Delta: 0.5, Seed: 7})
}

// IterSetCover over an SCB1 file cut in half must fail at every worker
// count with an error wrapping engine.ErrPassFailed, not ErrNoCover: the
// first pass ends early, poisons the run, and no guess's state may surface
// as a cover.
func TestTruncatedFileFailsIterSetCover(t *testing.T) {
	mem, _ := plantedRepo(t, 400, 900, 20, 3)
	var buf bytes.Buffer
	if err := scdisk.Write(&buf, mem.Instance()); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	for _, workers := range []int{1, 2, 8} {
		d, err := scdisk.NewRepo(bytes.NewReader(cut), int64(len(cut)))
		if err != nil {
			t.Fatalf("the cut file does not open: %v", err)
		}
		res, err := IterSetCover(d, Options{Delta: 0.5, Seed: 7, Engine: engine.Options{Workers: workers}})
		if !errors.Is(err, engine.ErrPassFailed) || errors.Is(err, ErrNoCover) || res.Passes != 1 || res.Valid || len(res.Cover) != 0 {
			t.Errorf("workers=%d: %#v (%v), want one failed pass wrapping engine.ErrPassFailed and no cover", workers, res, err)
		}
	}
}
