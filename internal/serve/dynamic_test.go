package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/scdisk"
	"repro/internal/scdyn"
	"repro/internal/setcover"
)

// dynCatalog registers a planted instance as DYNAMIC and returns the
// catalog, the backing instance, and the registered *Instance.
func dynCatalog(t *testing.T) (*Catalog, *setcover.Instance, *Instance) {
	t.Helper()
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 300, M: 200, K: 10, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dyn.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	inst, err := cat.AddDynamic("dyn", path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	return cat, in, inst
}

// A weighted file cannot be registered as dynamic: the delta log has no
// weight representation, so scdyn.Open refuses it and the catalog registers
// nothing under the name.
func TestAddDynamicRefusesWeightedFile(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 100, M: 80, K: 5, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	in.Weights = make([]float64, in.M())
	for i := range in.Weights {
		in.Weights[i] = float64(1 + i%3)
	}
	path := filepath.Join(t.TempDir(), "weighted.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	t.Cleanup(func() { cat.Close() })
	if _, err := cat.AddDynamic("w", path); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Fatalf("AddDynamic of a weighted file: err = %v, want a refusal naming weights", err)
	}
	if _, ok := cat.Get("w"); ok || cat.Len() != 0 {
		t.Fatalf("refused file is registered (%d instances)", cat.Len())
	}
}

// postMutate posts a mutation batch and returns status, response, error.
func postMutate(t *testing.T, url, name string, ops []map[string]any) (int, MutateResponse, *APIError, http.Header) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/instances/"+name+"/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == nil {
			t.Fatalf("status %d with unstructured body %q", resp.StatusCode, raw)
		}
		return resp.StatusCode, MutateResponse{}, eb.Error, resp.Header
	}
	var mr MutateResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return resp.StatusCode, mr, nil, resp.Header
}

// TestPoolBindsEntriesToDigest is the satellite-2 regression at the pool
// level: a view handle pooled under the pre-mutation digest must never be
// checked out for the post-mutation instance. Reverting the digest check in
// repoPool.get makes this fail by serving generation-0 content for the
// generation-1 instance.
func TestPoolBindsEntriesToDigest(t *testing.T) {
	cat, _, inst0 := dynCatalog(t)

	// Check a handle out and release it: the pool now holds a view bound to
	// the generation-0 digest.
	r0, release0, err := inst0.Open()
	if err != nil {
		t.Fatal(err)
	}
	v0 := r0.(*scdyn.View)
	if v0.Generation() != 0 {
		t.Fatalf("fresh instance opened generation %d", v0.Generation())
	}
	if err := release0(); err != nil {
		t.Fatal(err)
	}

	if _, err := cat.Mutate("dyn", []scdyn.Op{{Kind: scdyn.OpTombstone, ID: 0}}); err != nil {
		t.Fatal(err)
	}
	inst1, ok := cat.Get("dyn")
	if !ok || inst1.Digest == inst0.Digest {
		t.Fatalf("mutation did not swap the instance (ok=%t)", ok)
	}

	// The post-mutation instance must NOT receive the pooled gen-0 view.
	r1, release1, err := inst1.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer release1()
	v1 := r1.(*scdyn.View)
	if v1.Generation() != 1 || v1.Digest() != inst1.Digest {
		t.Fatalf("post-mutation checkout got generation %d digest %.12s, want 1 %.12s",
			v1.Generation(), v1.Digest(), inst1.Digest)
	}

	// The pinned pre-mutation instance still opens pre-mutation content.
	r0b, release0b, err := inst0.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer release0b()
	if g := r0b.(*scdyn.View).Generation(); g != 0 {
		t.Fatalf("pinned old instance opened generation %d", g)
	}
}

// TestMutateEndToEndStaleness is the staleness matrix: mutate → the digest
// changes → the memory LRU, the persistent disk tier, and digest addressing
// all miss/re-resolve, and no path serves a pre-mutation cover under the
// post-mutation digest or vice versa. Also the satellite-2 end-to-end
// regression: the solve after the mutation sees the new content.
func TestMutateEndToEndStaleness(t *testing.T) {
	cat, _, inst0 := dynCatalog(t)
	cacheDir := t.TempDir()
	srv := NewServer(cat, Config{MaxConcurrent: 2, CacheDir: cacheDir})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := map[string]any{"instance": "dyn", "algo": "dyn"}
	code, view0, apiErr := postSolve(t, ts.URL, req)
	if apiErr != nil || code != 200 || !view0.Result.Valid {
		t.Fatalf("gen-0 solve: status %d err %v", code, apiErr)
	}
	cover0 := view0.Result.Cover
	if _, v2, _ := postSolve(t, ts.URL, req); !v2.Cached {
		t.Fatal("gen-0 repeat was not a cache hit")
	}

	// Mutate: tombstone a set of the current cover, so the cover MUST change.
	code, mr, apiErr, hdr := postMutate(t, ts.URL, "dyn", []map[string]any{
		{"op": "tombstone", "id": cover0[0]},
		{"op": "append", "elems": []int{0, 1, 2}},
	})
	if apiErr != nil || code != 200 {
		t.Fatalf("mutate: status %d err %v", code, apiErr)
	}
	if mr.Digest == inst0.Digest || mr.Generation != 2 || mr.Applied != 2 {
		t.Fatalf("mutate response: %+v (old digest %.12s)", mr, inst0.Digest)
	}
	if got := hdr.Get(obs.InstanceDigestHeader); got != mr.Digest {
		t.Fatalf("mutate %s header %q, want %q", obs.InstanceDigestHeader, got, mr.Digest)
	}

	// The listing now reports the new digest and generation for the name.
	resp, err := http.Get(ts.URL + "/v1/instances")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Instances []*Instance `json:"instances"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Instances) != 1 || listing.Instances[0].Digest != mr.Digest ||
		listing.Instances[0].Generation != 2 {
		t.Fatalf("listing after mutate: %+v", listing.Instances)
	}

	// Solving by name misses the memory LRU (new digest, new key) and sees
	// the NEW content: the tombstoned set cannot appear in the cover.
	code, view1, apiErr := postSolve(t, ts.URL, req)
	if apiErr != nil || code != 200 || view1.Cached {
		t.Fatalf("post-mutation solve: status %d cached=%t err %v", code, view1.Cached, apiErr)
	}
	for _, id := range view1.Result.Cover {
		if id == cover0[0] {
			t.Fatalf("post-mutation cover contains tombstoned set %d", cover0[0])
		}
	}
	if view1.Instance.Digest != mr.Digest {
		t.Fatalf("solve resolved digest %.12s, want %.12s", view1.Instance.Digest, mr.Digest)
	}

	// The pre-mutation digest no longer resolves: digest-addressed requests
	// get a 404 (the router's invalidation signal), so no path can serve the
	// OLD content under any current identity.
	code, _, apiErr = postSolve(t, ts.URL, map[string]any{"instance": inst0.Digest, "algo": "dyn"})
	if code != 404 || apiErr == nil || apiErr.Code != CodeUnknownInstance {
		t.Fatalf("old-digest solve: status %d err %v, want 404", code, apiErr)
	}

	// Repeat by name: memory cache hit on the new key.
	if _, v3, _ := postSolve(t, ts.URL, req); !v3.Cached {
		t.Fatal("post-mutation repeat was not a cache hit")
	}

	// Delta re-solve agrees with the full solve byte for byte.
	code, viewD, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "dyn", "algo": "dyn", "resolve": "delta"})
	if apiErr != nil || code != 200 || viewD.Cached {
		t.Fatalf("delta solve: status %d err %v", code, apiErr)
	}
	if len(viewD.Result.Cover) != len(view1.Result.Cover) {
		t.Fatalf("delta cover size %d, full %d", len(viewD.Result.Cover), len(view1.Result.Cover))
	}
	for i := range viewD.Result.Cover {
		if viewD.Result.Cover[i] != view1.Result.Cover[i] {
			t.Fatalf("delta cover diverges from full at %d", i)
		}
	}

	// A sibling server sharing the persistent tier (fresh memory LRU) serves
	// the post-mutation key from DISK — and only that: the old digest stays
	// a 404 there too.
	srv2 := NewServer(cat, Config{MaxConcurrent: 2, CacheDir: cacheDir})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	code, viewDisk, apiErr := postSolve(t, ts2.URL, req)
	if apiErr != nil || code != 200 || !viewDisk.Cached {
		t.Fatalf("sibling solve: status %d cached=%t err %v", code, viewDisk.Cached, apiErr)
	}
	m := getMetrics(t, ts2.URL)
	if m["setcoverd_disk_cache_hits_total"] != 1 {
		t.Fatalf("sibling disk hits = %d, want 1", m["setcoverd_disk_cache_hits_total"])
	}
	for _, id := range viewDisk.Result.Cover {
		if id == cover0[0] {
			t.Fatalf("disk tier served pre-mutation content under post-mutation digest")
		}
	}
	if code, _, apiErr := postSolve(t, ts2.URL, map[string]any{"instance": inst0.Digest, "algo": "dyn"}); code != 404 || apiErr == nil {
		t.Fatalf("sibling old-digest solve: status %d", code)
	}
}

// TestCoalescingPinsPreMutationDigest is the satellite-3 race-ordered
// regression: a waiter that coalesced onto an in-flight solve BEFORE a
// mutation must receive the pre-mutation result — not an error, not the new
// instance's cover — because single-flight keys on the digest the solve was
// admitted under. Run under -race.
func TestCoalescingPinsPreMutationDigest(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 300, M: 200, K: 10, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dyn.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	inst0, err := cat.AddDynamic("dyn", path)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	// A gated function instance holds the single concurrency slot until the
	// gate opens, so the dyn solve stays QUEUED until we release it — a
	// deterministic ordering window for the mutation.
	gate := make(chan struct{})
	addFuncInstance(t, cat, "blocker", 4, 2, func(id int) setcover.Set {
		<-gate
		return setcover.Set{ID: id, Elems: []setcover.Elem{setcover.Elem(id), setcover.Elem(id + 2)}}
	})

	srv := NewServer(cat, Config{MaxConcurrent: 1, MaxQueue: 8, CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the slot.
	code, bview, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "blocker", "algo": "greedy1", "wait": false})
	if apiErr != nil || code != 202 {
		t.Fatalf("blocker admit: status %d err %v", code, apiErr)
	}
	waitForMetric(t, ts.URL, "setcoverd_jobs_running", 1)

	// Admit the dyn solve (queued behind the blocker), then join a
	// synchronous waiter onto it.
	code, aview, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "dyn", "algo": "dyn", "wait": false})
	if apiErr != nil || code != 202 || aview.ID == "" {
		t.Fatalf("dyn admit: status %d err %v", code, apiErr)
	}
	type joined struct {
		view jobView
		err  *APIError
	}
	joinedCh := make(chan joined, 1)
	go func() {
		_, v, e := postSolve(t, ts.URL, map[string]any{"instance": "dyn", "algo": "dyn"})
		joinedCh <- joined{v, e}
	}()
	waitForMetric(t, ts.URL, "setcoverd_solves_coalesced_total", 1)

	// Mutation lands while the solve is queued: tombstone set 0 and check
	// the waiter still gets the generation-0 answer.
	if _, err := cat.Mutate("dyn", []scdyn.Op{{Kind: scdyn.OpTombstone, ID: 0}}); err != nil {
		t.Fatal(err)
	}
	close(gate) // release the blocker; the dyn solve now runs

	want, err := scdyn.Solve(mustView(t, cat, inst0), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j := <-joinedCh
	if j.err != nil {
		t.Fatalf("coalesced waiter got error %v, want the pre-mutation result", j.err)
	}
	if !j.view.Coalesced {
		t.Fatalf("waiter did not coalesce: %+v", j.view)
	}
	if j.view.Instance.Digest != inst0.Digest {
		t.Fatalf("waiter's result is for digest %.12s, want pre-mutation %.12s",
			j.view.Instance.Digest, inst0.Digest)
	}
	if len(j.view.Result.Cover) != len(want.Cover) {
		t.Fatalf("waiter cover size %d, pre-mutation reference %d", len(j.view.Result.Cover), len(want.Cover))
	}
	for i := range want.Cover {
		if j.view.Result.Cover[i] != want.Cover[i] {
			t.Fatalf("waiter cover diverges from pre-mutation reference at %d", i)
		}
	}

	// A fresh request resolves the new generation and must NOT see set 0.
	code, cview, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "dyn", "algo": "dyn"})
	if apiErr != nil || code != 200 {
		t.Fatalf("post-mutation solve: status %d err %v", code, apiErr)
	}
	for _, id := range cview.Result.Cover {
		if id == 0 {
			t.Fatal("post-mutation cover contains the tombstoned set")
		}
	}
	_ = bview
}

// mustView pins a view at inst's generation via its open recipe.
func mustView(t *testing.T, cat *Catalog, inst *Instance) *scdyn.View {
	t.Helper()
	r, release, err := inst.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { release() })
	return r.(*scdyn.View)
}

// waitForMetric polls /metrics until the named counter reaches want.
func waitForMetric(t *testing.T, url, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if getMetrics(t, url)[name] >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached %d", name, want)
}

// TestMutateEndpointValidation covers the endpoint's error surface.
func TestMutateEndpointValidation(t *testing.T) {
	cat, _, _ := dynCatalog(t)
	// A static disk instance for the not-dynamic case.
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 50, M: 20, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	staticPath := filepath.Join(t.TempDir(), "static.scb")
	if err := scdisk.WriteFile(staticPath, in); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddFile("static", staticPath); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cat, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name     string
		instance string
		ops      []map[string]any
		status   int
		code     string
	}{
		{"unknown instance", "nope", []map[string]any{{"op": "tombstone", "id": 0}}, 404, CodeUnknownInstance},
		{"not dynamic", "static", []map[string]any{{"op": "tombstone", "id": 0}}, 400, CodeBadRequest},
		{"empty ops", "dyn", []map[string]any{}, 400, CodeBadRequest},
		{"unknown op", "dyn", []map[string]any{{"op": "replace"}}, 400, CodeBadRequest},
		{"tombstone sans id", "dyn", []map[string]any{{"op": "tombstone"}}, 400, CodeBadRequest},
		{"tombstone out of range", "dyn", []map[string]any{{"op": "tombstone", "id": 10_000}}, 400, CodeBadRequest},
		{"append unsorted", "dyn", []map[string]any{{"op": "append", "elems": []int{5, 3}}}, 400, CodeBadRequest},
		{"append elem out of universe", "dyn", []map[string]any{{"op": "append", "elems": []int{999}}}, 400, CodeBadRequest},
	}
	for _, tc := range cases {
		code, _, apiErr, _ := postMutate(t, ts.URL, tc.instance, tc.ops)
		if code != tc.status || apiErr == nil || apiErr.Code != tc.code {
			t.Errorf("%s: status %d err %v, want %d %s", tc.name, code, apiErr, tc.status, tc.code)
		}
	}

	// Rejected batches must not advance the generation.
	inst, _ := cat.Get("dyn")
	if inst.Generation != 0 {
		t.Fatalf("validation failures advanced generation to %d", inst.Generation)
	}

	// resolve:delta coupling: wrong algo is a 400 at validation, non-dynamic
	// instance is a 400 after resolution.
	if code, _, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "dyn", "algo": "iter", "resolve": "delta"}); code != 400 || apiErr == nil {
		t.Fatalf("delta with algo=iter: status %d err %v", code, apiErr)
	}
	if code, _, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "static", "algo": "dyn", "resolve": "delta"}); code != 400 || apiErr == nil {
		t.Fatalf("delta on static instance: status %d err %v", code, apiErr)
	}
	// algo=dyn with resolve:full works on static instances.
	if code, view, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "static", "algo": "dyn"}); code != 200 || apiErr != nil || !view.Result.Valid {
		t.Fatalf("algo=dyn on static instance: status %d err %v", code, apiErr)
	}
}

// TestSolveEchoesInstanceDigestHeader pins the X-Instance-Digest response
// header the fleet router keys its invalidation on.
func TestSolveEchoesInstanceDigestHeader(t *testing.T) {
	cat, _, inst := dynCatalog(t)
	srv := NewServer(cat, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"instance": "dyn", "algo": "dyn"})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.InstanceDigestHeader); got != inst.Digest {
		t.Fatalf("%s = %q, want %q", obs.InstanceDigestHeader, got, inst.Digest)
	}
}
