package maxcover

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// These pins hold both entry points to their golden values on every storage
// backend, Streaming's coverage included, which the conformance matrix
// (internal/algos/conformance_test.go) does not carry. The matrix holds
// every cell to a reference cell, so it cannot see a change that moves
// every backend alike; the golden values can.

// settings are the engine settings the pins sweep.
var settings = []engine.Options{{Workers: 1}, {Workers: 2}, {Workers: 8}, {Workers: 2, DisableSegmented: true}}

// backends are in on every storage backend: SliceRepo, a FuncRepo, and in's
// SCB1 encoding read positionally and in place, which is the mmap decode
// path.
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
	return []stream.Repository{stream.NewSliceRepo(in), fn, readat, inplace}
}

// Streaming returns the golden selection, the same sets in the same order,
// with its coverage, one pass and the same space, on every backend at every
// engine setting.
func TestStreamingBackendConformance(t *testing.T) {
	for i, r := range backends(t, goldenInstance(t)) {
		for _, eo := range settings {
			if res, err := Streaming(r, 14, eo); err != nil || !reflect.DeepEqual(res, goldenStreaming) {
				t.Errorf("backend %d (%T) at %+v: %+v (%v), want %+v", i, r, eo, res, err, goldenStreaming)
			}
		}
	}
}

// The SG09 set cover loop returns the golden cover in its exact pass budget
// and space on every backend at every engine setting.
func TestSahaGetoorBackendConformance(t *testing.T) {
	in := goldenInstance(t)
	for i, r := range backends(t, in) {
		for _, eo := range settings {
			st, err := SahaGetoorSetCover(r, eo)
			if err != nil || !st.Valid || !in.IsCover(st.Cover) ||
				!slices.Equal(st.Cover, goldenSG09Cover) || st.Passes != goldenSG09Passes || st.SpaceWords != goldenSG09Space {
				t.Errorf("backend %d (%T) at %+v: cover %v in %d passes, space %d (%v); want %v in %d, space %d",
					i, r, eo, st.Cover, st.Passes, st.SpaceWords, err, goldenSG09Cover, goldenSG09Passes, goldenSG09Space)
			}
		}
	}
}

// An SCB1 stream cut at 3/5 of its bytes must fail both entry points with an
// error wrapping engine.ErrPassFailed after the one pass that found the
// cut, never with a selection from a prefix of the family.
func TestTruncatedStreamFailsMaxCover(t *testing.T) {
	var buf bytes.Buffer
	if err := scdisk.Write(&buf, goldenInstance(t)); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()*3/5]
	open := func() stream.Repository {
		d, err := scdisk.NewRepo(bytes.NewReader(cut), int64(len(cut)))
		if err != nil {
			t.Fatalf("the cut file does not open: %v", err)
		}
		return d
	}
	if res, err := Streaming(open(), 14, engine.Options{}); !errors.Is(err, engine.ErrPassFailed) || res.Passes != 1 || len(res.Sets) != 0 {
		t.Errorf("Streaming: %+v (%v), want one failed pass wrapping engine.ErrPassFailed and no sets", res, err)
	}
	if st, err := SahaGetoorSetCover(open(), engine.Options{}); !errors.Is(err, engine.ErrPassFailed) || st.Passes != 1 || st.Valid || len(st.Cover) != 0 {
		t.Errorf("SahaGetoorSetCover: %+v (%v), want one failed pass wrapping engine.ErrPassFailed and no cover", st, err)
	}
}
