package baseline

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// These pins call the baselines' own entry points and hold each to one
// Stats on every storage backend. The conformance matrix
// (internal/algos/conformance_test.go) is the full sweep: every table entry
// on every fixture, backend, engine setting and trace setting.

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

// solver is one baseline with its parameters fixed.
type solver = func(stream.Repository, engine.Options) (setcover.Stats, error)

// solvers are the six baselines at ε, cw16 at three passes. greedy1 and
// dimv14 have no partial variant and always cover in full.
func solvers(eps float64) map[string]solver {
	partial := func(solve func(stream.Repository, float64, engine.Options) (setcover.Stats, error)) solver {
		return func(r stream.Repository, eo engine.Options) (setcover.Stats, error) { return solve(r, eps, eo) }
	}
	return map[string]solver{
		"greedy1":   OnePassGreedy,
		"greedyn":   partial(MultiPassGreedyPartial),
		"threshold": partial(ThresholdGreedyPartial),
		"er14":      partial(EmekRosenPartial),
		"cw16": func(r stream.Repository, eo engine.Options) (setcover.Stats, error) {
			return ChakrabartiWirthPartial(r, 3, eps, eo)
		},
		"dimv14": func(r stream.Repository, eo engine.Options) (setcover.Stats, error) {
			return DIMV14(r, DIMV14Options{Delta: 0.5, Seed: 5}, eo)
		},
	}
}

// conform solves in with every baseline at ε on every backend at each
// engine setting, and requires the Stats of SliceRepo at Workers 1, which
// must cover in, or a 1-ε fraction of it.
func conform(t *testing.T, in *setcover.Instance, eps float64, settings ...engine.Options) {
	t.Helper()
	rs := backends(t, in)
	for name, solve := range solvers(eps) {
		want, err := solve(stream.NewSliceRepo(in), engine.Options{Workers: 1})
		if err != nil || !in.IsPartialCover(want.Cover, eps) {
			t.Fatalf("%s: reference %v (%v) is no cover at ε=%v", name, want.Cover, err, eps)
		}
		for i, r := range rs {
			for _, eo := range settings {
				if got, err := solve(r, eo); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s on backend %d (%T) at %+v: %+v (%v), want %+v", name, i, r, eo, got, err, want)
				}
			}
		}
	}
}

func TestBaselineBackendConformance(t *testing.T) {
	mem, _ := plantedRepo(t, 350, 800, 14, 21)
	conform(t, mem.Instance(), 0, settings...)
}

// The ε-partial variants stop accepting mid-pass, which stresses the
// drain-everything contract on every backend.
func TestPartialBaselineBackendConformance(t *testing.T) {
	mem, _ := plantedRepo(t, 240, 520, 12, 8)
	conform(t, mem.Instance(), 0.15, settings...)
}

// Costs reach every backend: SliceRepo reads Instance.Weights, FuncRepo a
// weight function, and both SCB1 read paths the SCWT section.
func TestWeightedBaselineBackendConformance(t *testing.T) {
	conform(t, weightedTestInstance(t), 0, settings...)
}

// Removal note: the process-wide engine shims (baseline.SetEngine, the
// streamsetcover.SetBaselineEngine alias and experiments.SetEngine) are gone.
// A mutable global default could not serve concurrent solves with
// different configurations; per-call engine.Options can. A grep for
// SetEngine finds this story, and the test pins the default path: zero
// options return the Workers 1 Stats.
func TestSetEngineRemoved(t *testing.T) {
	mem, _ := plantedRepo(t, 200, 400, 10, 3)
	conform(t, mem.Instance(), 0, engine.Options{})
}

// Tracing is read-only: on every backend at Workers 1 and 2, a solve with an
// obs.Recorder returns the untraced Stats and records one pass per
// Stats.Passes, numbered 1..k, each delivering all m sets without error.
func TestTracerInjectionConformance(t *testing.T) {
	mem, _ := plantedRepo(t, 350, 800, 14, 21)
	in := mem.Instance()
	rs := backends(t, in)
	for name, solve := range solvers(0) {
		for i, r := range rs {
			for _, workers := range []int{1, 2} {
				label := fmt.Sprintf("%s on backend %d (%T) at workers=%d", name, i, r, workers)
				want, err := solve(r, engine.Options{Workers: workers})
				rec := &obs.Recorder{}
				got, errTraced := solve(r, engine.Options{Workers: workers, Tracer: rec})
				if err != nil || errTraced != nil || !reflect.DeepEqual(got, want) || len(rec.Passes()) != want.Passes {
					t.Errorf("%s: traced %+v (%v) in %d records, untraced %+v (%v)",
						label, got, errTraced, len(rec.Passes()), want, err)
				}
				for j, p := range rec.Passes() {
					if p.Index != j+1 || p.Kind != "sets" || p.Items != in.M() || p.Err != nil {
						t.Errorf("%s: record %d is pass %d of %d %q items (%v)", label, j, p.Index, p.Items, p.Kind, p.Err)
					}
				}
			}
		}
	}
}

// An SCB1 file cut at 3/5 of its bytes still opens, since its header is
// intact. Every baseline must fail on it with an error wrapping
// engine.ErrPassFailed, report the one pass that found the cut, and hand
// back no cover computed from a prefix of the family.
func TestTruncatedFileFailsEveryBaseline(t *testing.T) {
	mem, _ := plantedRepo(t, 350, 800, 14, 21)
	var buf bytes.Buffer
	if err := scdisk.Write(&buf, mem.Instance()); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()*3/5]
	for name, solve := range solvers(0) {
		for _, workers := range []int{1, 2} {
			d, err := scdisk.NewRepo(bytes.NewReader(cut), int64(len(cut)))
			if err != nil {
				t.Fatalf("the cut file does not open: %v", err)
			}
			st, err := solve(d, engine.Options{Workers: workers})
			if !errors.Is(err, engine.ErrPassFailed) || st.Passes != 1 || st.Valid || len(st.Cover) != 0 {
				t.Errorf("%s at workers=%d: %+v (%v), want one failed pass wrapping engine.ErrPassFailed and no cover",
					name, workers, st, err)
			}
		}
	}
}
