package maxcover

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// Golden outputs of the pre-engine (seed-state) direct-scan implementations
// on gen.Planted{N:350, M:800, K:14, Seed:21}, captured before the migration
// onto engine.Run. The engine migration must be invisible: byte-identical
// selections and covers, exact pass budgets, exact space charges — at every
// worker count, on every backend, segmented or not.
var (
	goldenStreamingSets    = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 17, 19}
	goldenStreamingCovered = 183
	goldenStreamingSpace   = int64(195)

	goldenSG09Cover = []int{12, 24, 27, 32, 411, 521, 19, 37, 58, 63, 102, 133, 193, 623,
		1, 2, 14, 36, 38, 75, 145, 155, 6, 7, 9, 26, 55, 69, 73, 83,
		4, 5, 21, 23, 39, 43, 44, 46, 59, 81, 82, 101}
	goldenSG09Passes = 6
	goldenSG09Space  = int64(470)
)

func conformanceInstance(t *testing.T) *setcover.Instance {
	t.Helper()
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 350, M: 800, K: 14, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// backendsFor mirrors the baseline/core conformance suites: the same family
// through the in-memory, generated, and disk repositories.
func backendsFor(t *testing.T, in *setcover.Instance) []struct {
	name string
	mk   func() stream.Repository
} {
	t.Helper()
	path := filepath.Join(t.TempDir(), "conf.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		mk   func() stream.Repository
	}{
		{"slice", func() stream.Repository { return stream.NewSliceRepo(in) }},
		{"func", func() stream.Repository {
			return stream.NewFuncRepo(in.N, in.M(), func(id int) setcover.Set {
				es := make([]setcover.Elem, len(in.Sets[id].Elems))
				copy(es, in.Sets[id].Elems)
				return setcover.Set{ID: id, Elems: es}
			})
		}},
		{"disk", func() stream.Repository {
			d, err := scdisk.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}},
	}
}

// engineSweep is the Workers × DisableSegmented grid every conformance run
// must be invariant under.
func engineSweep() []engine.Options {
	var out []engine.Options
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for _, ds := range []bool{false, true} {
			out = append(out, engine.Options{Workers: w, DisableSegmented: ds})
		}
	}
	return out
}

// The one-pass streaming Max k-Cover must produce the golden seed-state
// selection — same sets in the same order, one pass exactly, same space —
// on every backend at every engine setting.
func TestStreamingBackendConformance(t *testing.T) {
	in := conformanceInstance(t)
	for _, engOpts := range engineSweep() {
		for _, b := range backendsFor(t, in) {
			label := fmt.Sprintf("%s/workers=%d/noseg=%v", b.name, engOpts.Workers, engOpts.DisableSegmented)
			res, err := Streaming(b.mk(), 14, engOpts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Passes != 1 {
				t.Errorf("%s: passes = %d, want exactly 1", label, res.Passes)
			}
			if res.Covered != goldenStreamingCovered {
				t.Errorf("%s: covered = %d, want %d", label, res.Covered, goldenStreamingCovered)
			}
			if res.SpaceWords != goldenStreamingSpace {
				t.Errorf("%s: space = %d, want %d", label, res.SpaceWords, goldenStreamingSpace)
			}
			if len(res.Sets) != len(goldenStreamingSets) {
				t.Fatalf("%s: %d sets, want %d", label, len(res.Sets), len(goldenStreamingSets))
			}
			for i, id := range goldenStreamingSets {
				if res.Sets[i] != id {
					t.Fatalf("%s: sets[%d] = %d, want %d", label, i, res.Sets[i], id)
				}
			}
		}
	}
}

// The SG09 SetCover loop must produce the golden seed-state cover with its
// exact pass budget on every backend at every engine setting.
func TestSahaGetoorBackendConformance(t *testing.T) {
	in := conformanceInstance(t)
	for _, engOpts := range engineSweep() {
		for _, b := range backendsFor(t, in) {
			label := fmt.Sprintf("%s/workers=%d/noseg=%v", b.name, engOpts.Workers, engOpts.DisableSegmented)
			st, err := SahaGetoorSetCover(b.mk(), engOpts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !st.Valid || !in.IsCover(st.Cover) {
				t.Fatalf("%s: cover invalid", label)
			}
			if st.Passes != goldenSG09Passes {
				t.Errorf("%s: passes = %d, want exactly %d", label, st.Passes, goldenSG09Passes)
			}
			if st.SpaceWords != goldenSG09Space {
				t.Errorf("%s: space = %d, want %d", label, st.SpaceWords, goldenSG09Space)
			}
			if len(st.Cover) != len(goldenSG09Cover) {
				t.Fatalf("%s: cover size %d, want %d", label, len(st.Cover), len(goldenSG09Cover))
			}
			for i, id := range goldenSG09Cover {
				if st.Cover[i] != id {
					t.Fatalf("%s: cover[%d] = %d, want %d", label, i, st.Cover[i], id)
				}
			}
		}
	}
}

// A truncated SCB1 stream must fail both max-cover entry points with an
// error wrapping engine.ErrPassFailed — never a valid-looking selection from
// a prefix of F. (The engine migration replaced maxcover's bespoke
// stream.ReaderErr polling; this pins that the failure contract survived.)
func TestTruncatedStreamFailsMaxCover(t *testing.T) {
	in := conformanceInstance(t)
	var buf bytes.Buffer
	if err := scdisk.Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()*3/5]

	open := func() stream.Repository {
		d, err := scdisk.NewRepo(bytes.NewReader(truncated), int64(len(truncated)))
		if err != nil {
			t.Fatalf("truncated file should still open (the header is intact): %v", err)
		}
		return d
	}

	if res, err := Streaming(open(), 14, engine.Options{}); !errors.Is(err, engine.ErrPassFailed) {
		t.Fatalf("Streaming on truncated stream: err=%v, want ErrPassFailed", err)
	} else if len(res.Sets) != 0 {
		t.Fatalf("Streaming failed run still reported %d sets", len(res.Sets))
	}

	if st, err := SahaGetoorSetCover(open(), engine.Options{}); !errors.Is(err, engine.ErrPassFailed) {
		t.Fatalf("SG09 on truncated stream: err=%v, want ErrPassFailed", err)
	} else if st.Valid || len(st.Cover) != 0 {
		t.Fatalf("SG09 failed run still reported a cover (size %d, valid=%v)", len(st.Cover), st.Valid)
	}
}
