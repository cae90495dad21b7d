package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// testCatalog registers one disk-backed planted instance and returns the
// catalog, the materialized instance (ground truth), and the instance name.
func testCatalog(t *testing.T) (*Catalog, *setcover.Instance) {
	t.Helper()
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 300, M: 700, K: 12, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "planted.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if _, err := cat.AddFile("planted", path); err != nil {
		t.Fatal(err)
	}
	return cat, in
}

// addFuncInstance registers gen as an instance of m sets over n elements,
// under a fixed digest made from name. Its repository calls gen on every
// pass, so a test can hold a solve in flight by blocking inside gen; the
// catalog's own registrations all read files.
func addFuncInstance(t *testing.T, cat *Catalog, name string, n, m int, gen func(id int) setcover.Set) {
	t.Helper()
	inst := &Instance{
		Name: name, Digest: "test-func-" + name, N: n, M: m,
		open: func() (stream.Repository, func() error, error) {
			return stream.NewFuncRepo(n, m, gen), func() error { return nil }, nil
		},
		closePool: func() error { return nil },
	}
	if err := cat.add(inst); err != nil {
		t.Fatal(err)
	}
}

// postSolve posts a solve request and decodes the response envelope.
func postSolve(t *testing.T, url string, req map[string]any) (int, jobView, *APIError) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 400 {
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == nil {
			t.Fatalf("status %d with unstructured body %q", resp.StatusCode, raw)
		}
		return resp.StatusCode, jobView{}, eb.Error
	}
	var view jobView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return resp.StatusCode, view, nil
}

func getMetrics(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var name string
		var val int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &val); err == nil {
			out[name] = val
		}
	}
	return out
}

// The heart of the acceptance criterion: a service solve must return the
// byte-identical cover the library (and therefore cmd/setcover) computes for
// the same (instance, algo, δ, p, ε, seed), the repeat request must be served
// from the result cache (observable via the response envelope AND /metrics),
// and the reported stats snapshot must match the library's.
func TestSolveMatchesLibraryAndCaches(t *testing.T) {
	cat, in := testCatalog(t)
	srv := NewServer(cat, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	want, err := core.IterSetCover(stream.NewSliceRepo(in), core.Options{
		Delta: 0.5, Seed: 1, Engine: engine.Options{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	req := map[string]any{"instance": "planted", "algo": "iter", "delta": 0.5}
	code, view, apiErr := postSolve(t, ts.URL, req)
	if apiErr != nil || code != 200 {
		t.Fatalf("solve: status %d, err %v", code, apiErr)
	}
	if view.Status != jobDone || view.Cached || view.Result == nil {
		t.Fatalf("unexpected envelope: %+v", view)
	}
	res := view.Result
	if len(res.Cover) != len(want.Cover) {
		t.Fatalf("cover size %d, library %d", len(res.Cover), len(want.Cover))
	}
	for i := range want.Cover {
		if res.Cover[i] != want.Cover[i] {
			t.Fatalf("cover[%d] = %d, library %d", i, res.Cover[i], want.Cover[i])
		}
	}
	if res.Passes != want.Passes || res.SpaceWords != want.SpaceWords || res.BestK != want.BestK {
		t.Fatalf("stats snapshot diverges: passes %d/%d space %d/%d bestK %d/%d",
			res.Passes, want.Passes, res.SpaceWords, want.SpaceWords, res.BestK, want.BestK)
	}
	if !res.Valid || !in.IsCover(res.Cover) {
		t.Fatal("served cover does not cover U")
	}

	// Repeat: cache hit, identical result.
	code, view2, apiErr := postSolve(t, ts.URL, req)
	if apiErr != nil || code != 200 {
		t.Fatalf("repeat solve: status %d, err %v", code, apiErr)
	}
	if !view2.Cached {
		t.Fatal("repeat request was not served from cache")
	}
	if len(view2.Result.Cover) != len(res.Cover) {
		t.Fatal("cached cover differs")
	}
	m := getMetrics(t, ts.URL)
	if m["setcoverd_cache_hits_total"] != 1 || m["setcoverd_cache_misses_total"] != 1 {
		t.Fatalf("metrics: hits=%d misses=%d, want 1/1",
			m["setcoverd_cache_hits_total"], m["setcoverd_cache_misses_total"])
	}
	if m["setcoverd_solves_total"] != 1 {
		t.Fatalf("metrics: solves_total=%d, want 1", m["setcoverd_solves_total"])
	}

	// Different engine options must HIT the same cache row (determinism
	// contract: engine options are excluded from the key).
	req["engine"] = map[string]any{"workers": 2, "batch_size": 64}
	_, view3, apiErr := postSolve(t, ts.URL, req)
	if apiErr != nil || !view3.Cached {
		t.Fatalf("engine-option variant missed the cache: %+v err %v", view3, apiErr)
	}

	// Different δ must MISS.
	code, view4, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "planted", "algo": "iter", "delta": 0.25})
	if apiErr != nil || code != 200 || view4.Cached {
		t.Fatalf("delta variant should re-solve: cached=%v err=%v", view4.Cached, apiErr)
	}
}

// Every algorithm of the table must agree with the table's own solve at the
// defaults — the service adds queueing and caching, never different
// answers (internal/algos checks each entry against its direct library
// call). Runs the requests concurrently to exercise the multiplexing under
// -race.
func TestAllAlgorithmsConcurrently(t *testing.T) {
	cat, in := testCatalog(t)
	// MaxQueue is literal (0 = strict backpressure), so give the concurrent
	// requests explicit waiting room.
	srv := NewServer(cat, Config{MaxConcurrent: 4, MaxQueue: DefaultMaxQueue, CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := algos.All()
	ref := algos.Defaults()
	ref.Engine = engine.Options{Workers: 1}
	var wg sync.WaitGroup
	errs := make([]error, len(cases))
	for i, c := range cases {
		wg.Add(1)
		go func(i int, c algos.Entry) {
			defer wg.Done()
			want, err := c.Solve(stream.NewSliceRepo(in), ref)
			if err != nil {
				errs[i] = fmt.Errorf("%s: reference: %w", c.Name, err)
				return
			}
			code, view, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "planted", "algo": c.Name})
			if apiErr != nil || code != 200 {
				errs[i] = fmt.Errorf("%s: status %d err %v", c.Name, code, apiErr)
				return
			}
			got := view.Result
			if len(got.Cover) != len(want.Cover) {
				errs[i] = fmt.Errorf("%s: cover size %d, library %d", c.Name, len(got.Cover), len(want.Cover))
				return
			}
			for j := range want.Cover {
				if got.Cover[j] != want.Cover[j] {
					errs[i] = fmt.Errorf("%s: cover[%d] differs", c.Name, j)
					return
				}
			}
			if got.Passes != want.Passes || got.SpaceWords != want.SpaceWords || got.BestK != want.BestK {
				errs[i] = fmt.Errorf("%s: stats diverge: passes %d/%d space %d/%d best k %d/%d",
					c.Name, got.Passes, want.Passes, got.SpaceWords, want.SpaceWords, got.BestK, want.BestK)
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// A full queue must reject with a structured 429, and the queued/running jobs
// must finish normally once unblocked (observable through /v1/jobs/{id}).
func TestQueueFullRejectsWith429(t *testing.T) {
	cat, _ := testCatalog(t)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	addFuncInstance(t, cat, "blocking", 4, 4, func(id int) setcover.Set {
		once.Do(func() { close(started) })
		<-release
		return setcover.Set{Elems: []setcover.Elem{setcover.Elem(id)}}
	})
	srv := NewServer(cat, Config{MaxConcurrent: 1, MaxQueue: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, view, apiErr := postSolve(t, ts.URL, map[string]any{
		"instance": "blocking", "algo": "greedy1", "wait": false,
	})
	if apiErr != nil || code != 202 || view.ID == "" {
		t.Fatalf("async solve: status %d err %v view %+v", code, apiErr, view)
	}
	<-started // the solve is provably in-flight, holding the only slot

	code, _, apiErr = postSolve(t, ts.URL, map[string]any{"instance": "planted", "algo": "greedy1"})
	if code != 429 || apiErr == nil || apiErr.Code != CodeQueueFull {
		t.Fatalf("want structured 429 queue_full, got status %d err %+v", code, apiErr)
	}
	m := getMetrics(t, ts.URL)
	if m["setcoverd_rejected_total"] != 1 {
		t.Fatalf("rejected_total=%d, want 1", m["setcoverd_rejected_total"])
	}

	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var jv jobView
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jv.Status == jobDone {
			if jv.Result == nil || len(jv.Result.Cover) == 0 {
				t.Fatalf("finished job has no result: %+v", jv)
			}
			break
		}
		if jv.Status == jobFailed {
			t.Fatalf("blocked job failed: %+v", jv.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after release", jv.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Capacity is free again: the same request now solves synchronously.
	code, _, apiErr = postSolve(t, ts.URL, map[string]any{"instance": "planted", "algo": "greedy1"})
	if code != 200 || apiErr != nil {
		t.Fatalf("queue did not drain: status %d err %v", code, apiErr)
	}
}

// A truncated SCB1 instance must produce a structured 502 pass_failed error —
// never a cover from a partial scan (the serving-layer face of PR 3's
// first-class pass failure).
func TestTruncatedInstanceReturnsStructured5xx(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 200, M: 500, K: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := scdisk.Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trunc.scb")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()*3/5], 0o644); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if _, err := cat.AddFile("trunc", path); err != nil {
		t.Fatalf("registration reads only the header and must succeed: %v", err)
	}
	srv := NewServer(cat, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Every algorithm of the table, sg09's maxcover rounds and pd's gather
	// passes included, fails through engine.Run.
	for _, algo := range algos.Names() {
		code, _, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "trunc", "algo": algo})
		if code != 502 || apiErr == nil || apiErr.Code != CodePassFailed {
			t.Fatalf("%s: want 502 pass_failed, got status %d err %+v", algo, code, apiErr)
		}
	}

	// The error envelope of a failed synchronous solve still carries the job
	// id, and the retained job is inspectable.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"instance":"trunc","algo":"cw16"}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb struct {
		Error *APIError `json:"error"`
		JobID string    `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if eb.JobID == "" {
		t.Fatal("failed sync solve has no job_id on the error envelope")
	}
	jr, err := http.Get(ts.URL + "/v1/jobs/" + eb.JobID)
	if err != nil {
		t.Fatal(err)
	}
	var jv jobView
	if err := json.NewDecoder(jr.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jv.Status != jobFailed || jv.Error == nil || jv.Error.Code != CodePassFailed {
		t.Fatalf("retained failed job: %+v", jv)
	}
	m := getMetrics(t, ts.URL)
	if want := int64(len(algos.Names()) + 1); m["setcoverd_solve_failures_total"] != want {
		t.Fatalf("solve_failures_total=%d, want %d", m["setcoverd_solve_failures_total"], want)
	}
}

// Infeasible instances are the caller's fault, not the server's: 422.
func TestInfeasibleInstanceReturns422(t *testing.T) {
	// Element 2 is in no set.
	gap := &setcover.Instance{N: 3, Sets: []setcover.Set{
		{ID: 0, Elems: []setcover.Elem{0}},
		{ID: 1, Elems: []setcover.Elem{1}},
	}}
	path := filepath.Join(t.TempDir(), "gap.scb")
	if err := scdisk.WriteFile(path, gap); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if _, err := cat.AddFile("gap", path); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cat, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, _, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "gap", "algo": "greedyn"})
	if code != 422 || apiErr == nil || apiErr.Code != CodeInfeasible {
		t.Fatalf("want 422 infeasible, got status %d err %+v", code, apiErr)
	}
}

// A pd eps whose dual sums stall below coverage is the caller's fault too:
// 422 with its own code, and the solve gives its slot back.
func TestPDStallingEpsReturns422(t *testing.T) {
	cat, _ := testCatalog(t)
	srv := NewServer(cat, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, _, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "planted", "algo": "pd", "eps": 1e-17})
	if code != 422 || apiErr == nil || apiErr.Code != CodeDualStall {
		t.Fatalf("want 422 %s, got status %d err %+v", CodeDualStall, code, apiErr)
	}
	// The job publishes its failure just before it leaves the running
	// gauge, so poll for the gauge to settle.
	deadline := time.Now().Add(5 * time.Second)
	for getMetrics(t, ts.URL)["setcoverd_jobs_running"] != 0 {
		if time.Now().After(deadline) {
			t.Fatal("setcoverd_jobs_running never returned to 0 after the failed solve")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Parameter and addressing errors must be structured 4xx, spent before any
// queue slot.
func TestRequestValidation(t *testing.T) {
	cat, _ := testCatalog(t)
	srv := NewServer(cat, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		req     map[string]any
		code    int
		errCode string
	}{
		{map[string]any{"instance": "nope"}, 404, CodeUnknownInstance},
		{map[string]any{"instance": "planted", "algo": "quantum"}, 400, CodeBadRequest},
		{map[string]any{"instance": "planted", "delta": 1.5}, 400, CodeBadRequest},
		// ⌈1/δ⌉ iterations would overflow an int.
		{map[string]any{"instance": "planted", "delta": 1e-300}, 400, CodeBadRequest},
		{map[string]any{"instance": "planted", "eps": 1.0}, 400, CodeBadRequest},
		{map[string]any{}, 400, CodeBadRequest},
		// Hardening: absurd pass budgets and engine knobs are client errors,
		// answered before any queue slot is spent.
		{map[string]any{"instance": "planted", "algo": "cw16", "passes": maxPassBudget + 1}, 400, CodeBadRequest},
		{map[string]any{"instance": "planted", "engine": map[string]any{"workers": -1}}, 400, CodeBadRequest},
		{map[string]any{"instance": "planted", "engine": map[string]any{"workers": maxEngineWorkers + 1}}, 400, CodeBadRequest},
		{map[string]any{"instance": "planted", "engine": map[string]any{"batch_size": -5}}, 400, CodeBadRequest},
		{map[string]any{"instance": "planted", "engine": map[string]any{"batch_size": maxEngineBatch + 1}}, 400, CodeBadRequest},
		// Strict decode: a typoed field must not be silently ignored — a
		// misspelled result-determining knob would otherwise run with
		// defaults and poison the cache under the wrong key.
		{map[string]any{"instance": "planted", "sede": 7}, 400, CodeBadRequest},
		{map[string]any{"instance": "planted", "engine": map[string]any{"workrs": 2}}, 400, CodeBadRequest},
	}
	for _, c := range cases {
		code, _, apiErr := postSolve(t, ts.URL, c.req)
		if code != c.code || apiErr == nil || apiErr.Code != c.errCode {
			t.Fatalf("req %v: want %d %s, got %d %+v", c.req, c.code, c.errCode, code, apiErr)
		}
	}
	// The unknown-algo message lists the table's names, in wire order.
	_, _, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "planted", "algo": "quantum"})
	if want := `unknown algo "quantum" (want one of [iter greedy1 greedyn threshold sg09 er14 cw16 dimv14 pd dyn])`; apiErr == nil || apiErr.Message != want {
		t.Fatalf("unknown algo: got %+v, want message %q", apiErr, want)
	}
	// JSON has no NaN, so NaN reaches validate only from Go callers.
	for _, r := range []SolveRequest{
		{Instance: "planted", Delta: math.NaN()},
		{Instance: "planted", Eps: math.NaN()},
	} {
		r.normalize()
		if err := r.validate(); err == nil {
			t.Fatalf("validate accepted delta %v eps %v", r.Delta, r.Eps)
		}
	}

	// The bounds themselves must be accepted: limits are inclusive.
	for _, ok := range []map[string]any{
		{"instance": "planted", "algo": "cw16", "passes": maxPassBudget},
		{"instance": "planted", "algo": "greedy1", "engine": map[string]any{"workers": maxEngineWorkers, "batch_size": maxEngineBatch}},
	} {
		if code, _, apiErr := postSolve(t, ts.URL, ok); code != 200 {
			t.Fatalf("boundary req %v rejected: %d %+v", ok, code, apiErr)
		}
	}

	// Trailing data after the request object is a malformed body.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"instance":"planted"}{"instance":"planted"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("trailing garbage: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// paddedJSON pads the JSON object obj with whitespace to exactly size bytes.
func paddedJSON(obj string, size int) []byte {
	return []byte(obj[:len(obj)-1] + strings.Repeat(" ", size-len(obj)) + "}")
}

// A body exactly at an endpoint's cap is read whole and parsed; one byte
// over is answered 413 with the error envelope, not cut short and misreported
// as malformed JSON.
func TestOversizedBodiesGet413(t *testing.T) {
	cat, _ := testCatalog(t)
	ts := httptest.NewServer(NewServer(cat, Config{}).Handler())
	defer ts.Close()
	for _, c := range []struct {
		path, obj string
		limit     int
	}{
		{"/v1/solve", `{"instance":"nope"}`, maxSolveBody},
		{"/v1/instances/nope/mutate", `{"ops":[{"op":"tombstone","id":0}]}`, maxMutateBody},
	} {
		for _, size := range []int{c.limit, c.limit + 1} {
			resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(paddedJSON(c.obj, size)))
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			err = json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if err != nil || eb.Error == nil {
				t.Fatalf("%s %d bytes: status %d, unstructured body (%v)", c.path, size, resp.StatusCode, err)
			}
			// At the cap the body parses and the unknown instance is what
			// fails.
			want, code := http.StatusNotFound, CodeUnknownInstance
			if size > c.limit {
				want, code = http.StatusRequestEntityTooLarge, CodeBadRequest
			}
			if resp.StatusCode != want || eb.Error.Code != code {
				t.Fatalf("%s %d bytes: got %d %+v, want %d %s", c.path, size, resp.StatusCode, eb.Error, want, code)
			}
		}
	}
}

// The instance listing exposes name, digest, dims; instances are addressable
// by digest as well as name.
func TestInstancesListingAndDigestAddressing(t *testing.T) {
	cat, _ := testCatalog(t)
	srv := NewServer(cat, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

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
	if len(listing.Instances) != 1 {
		t.Fatalf("listed %d instances, want 1", len(listing.Instances))
	}
	inst := listing.Instances[0]
	if inst.Name != "planted" || inst.Digest == "" || inst.N != 300 || inst.M != 700 || inst.Kind != "disk" {
		t.Fatalf("bad listing entry: %+v", inst)
	}

	code, view, apiErr := postSolve(t, ts.URL, map[string]any{"instance": inst.Digest, "algo": "greedy1"})
	if code != 200 || apiErr != nil || view.Result == nil {
		t.Fatalf("digest addressing failed: status %d err %v", code, apiErr)
	}
}

// Shutdown must reject new work with 503 (healthz flips too) while draining
// the in-flight solve to completion.
func TestGracefulShutdownDrains(t *testing.T) {
	cat, _ := testCatalog(t)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	addFuncInstance(t, cat, "blocking", 4, 4, func(id int) setcover.Set {
		once.Do(func() { close(started) })
		<-release
		return setcover.Set{Elems: []setcover.Elem{setcover.Elem(id)}}
	})
	srv := NewServer(cat, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the cache for planted/greedy1: the drain-time probe below is then
	// a cache HIT, proving a draining server refuses even cached solves.
	if code, _, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "planted", "algo": "greedy1"}); code != 200 || apiErr != nil {
		t.Fatalf("warmup solve: status %d err %v", code, apiErr)
	}

	_, view, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "blocking", "algo": "greedy1", "wait": false})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	<-started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(t.Context()) }()

	// New solves and health checks must flip to 503 promptly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, solveErr := postSolve(t, ts.URL, map[string]any{"instance": "planted", "algo": "greedy1"})
		if code == 503 && solveErr != nil && solveErr.Code == CodeShuttingDown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("solve during drain: status %d err %+v, want 503", code, solveErr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before the in-flight solve finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The drained job finished with a result.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var jv jobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jv.Status != jobDone {
		t.Fatalf("drained job status %s, want done", jv.Status)
	}
}

// stream:true must deliver the identical cover as the buffered response, as
// chunked NDJSON: envelope (stats, no cover), cover chunk lines, eof trailer
// with the expected total. Cache hits stream the same way.
func TestStreamedSolveMatchesBuffered(t *testing.T) {
	cat, _ := testCatalog(t)
	srv := NewServer(cat, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Buffered reference.
	_, buffered, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "planted", "algo": "greedy1"})
	if apiErr != nil {
		t.Fatal(apiErr)
	}

	readStream := func(wantCached bool) []int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
			strings.NewReader(`{"instance":"planted","algo":"greedy1","stream":true}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("streamed solve: status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		dec := json.NewDecoder(resp.Body)
		var head struct {
			Status string `json:"status"`
			Cached bool   `json:"cached"`
			Result struct {
				Cover     []int `json:"cover"`
				CoverSize int   `json:"cover_size"`
				Passes    int   `json:"passes"`
			} `json:"result"`
		}
		if err := dec.Decode(&head); err != nil {
			t.Fatal(err)
		}
		if head.Status != "done" || head.Cached != wantCached {
			t.Fatalf("stream head: %+v (want cached=%v)", head, wantCached)
		}
		if head.Result.Cover != nil {
			t.Fatalf("stream head carries an inline cover of %d ids", len(head.Result.Cover))
		}
		var cover []int
		sawEOF := false
		for {
			var line struct {
				Cover     []int `json:"cover"`
				EOF       bool  `json:"eof"`
				CoverSize int   `json:"cover_size"`
			}
			if err := dec.Decode(&line); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if line.EOF {
				sawEOF = true
				if line.CoverSize != len(cover) {
					t.Fatalf("eof trailer says %d ids, reassembled %d", line.CoverSize, len(cover))
				}
				continue
			}
			cover = append(cover, line.Cover...)
		}
		if !sawEOF {
			t.Fatal("stream ended without eof trailer")
		}
		if len(cover) != head.Result.CoverSize {
			t.Fatalf("reassembled %d ids, envelope promised %d", len(cover), head.Result.CoverSize)
		}
		return cover
	}

	got := readStream(true) // the buffered warmup populated the cache
	want := buffered.Result.Cover
	if len(got) != len(want) {
		t.Fatalf("streamed cover size %d, buffered %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("streamed cover[%d] = %d, buffered %d", i, got[i], want[i])
		}
	}

	// stream with wait:false is a client error.
	code, _, apiErr := postSolve(t, ts.URL, map[string]any{
		"instance": "planted", "algo": "greedy1", "stream": true, "wait": false,
	})
	if code != 400 || apiErr == nil {
		t.Fatalf("stream+nowait: status %d err %v, want 400", code, apiErr)
	}
}

// Single-flight: N concurrent identical requests run ONE backend solve; the
// rest coalesce onto it and relay the same result. This is what makes the
// fleet smoke test's "exactly one backend solve" assertion exact.
func TestIdenticalConcurrentSolvesCoalesce(t *testing.T) {
	cat, _ := testCatalog(t)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var calls atomic.Int64
	addFuncInstance(t, cat, "slow", 64, 64, func(id int) setcover.Set {
		if id == 0 {
			calls.Add(1)
			once.Do(func() { close(started) })
			<-release
		}
		elems := make([]setcover.Elem, 0, 2)
		elems = append(elems, setcover.Elem(id))
		return setcover.Set{ID: id, Elems: elems}
	})
	srv := NewServer(cat, Config{MaxConcurrent: 4, MaxQueue: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 6
	type resp struct {
		code int
		view jobView
		err  *APIError
	}
	results := make(chan resp, clients)
	go func() {
		code, view, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "slow", "algo": "greedy1"})
		results <- resp{code, view, apiErr}
	}()
	<-started // the owner is provably inside the solve
	for i := 1; i < clients; i++ {
		go func() {
			code, view, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "slow", "algo": "greedy1"})
			results <- resp{code, view, apiErr}
		}()
	}
	// Wait until the followers have coalesced (visible on the counter), then
	// let the one real solve finish.
	deadline := time.Now().Add(10 * time.Second)
	for srv.coalesced.Load() < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced", srv.coalesced.Load(), clients-1)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)

	var firstCover []int
	for i := 0; i < clients; i++ {
		r := <-results
		if r.err != nil || r.code != 200 {
			t.Fatalf("client %d: status %d err %v", i, r.code, r.err)
		}
		if firstCover == nil {
			firstCover = r.view.Result.Cover
		} else if len(r.view.Result.Cover) != len(firstCover) {
			t.Fatal("coalesced clients saw different covers")
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend solved %d times for %d identical clients, want 1", got, clients)
	}
	m := getMetrics(t, ts.URL)
	if m["setcoverd_solves_total"] != 1 {
		t.Fatalf("solves_total=%d, want 1", m["setcoverd_solves_total"])
	}
	if m["setcoverd_solves_coalesced_total"] != clients-1 {
		t.Fatalf("coalesced=%d, want %d", m["setcoverd_solves_coalesced_total"], clients-1)
	}
}

// The persistent tier end to end at the server level: a solve lands a cache
// file; a FRESH server over the same directory (the restart) answers from it
// without solving; a corrupted file is rejected and re-solved, never served.
func TestPersistentCacheAcrossServerRestarts(t *testing.T) {
	dir := t.TempDir()
	cat, _ := testCatalog(t)

	srv1 := NewServer(cat, Config{CacheDir: dir})
	ts1 := httptest.NewServer(srv1.Handler())
	_, first, apiErr := postSolve(t, ts1.URL, map[string]any{"instance": "planted", "algo": "greedy1"})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	ts1.Close()

	// Restart: new server, same directory. Must be a (disk) cache hit.
	srv2 := NewServer(cat, Config{CacheDir: dir})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	_, second, apiErr := postSolve(t, ts2.URL, map[string]any{"instance": "planted", "algo": "greedy1"})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if !second.Cached {
		t.Fatal("restarted server did not serve from the persistent cache")
	}
	if len(second.Result.Cover) != len(first.Result.Cover) {
		t.Fatal("persisted cover differs")
	}
	for i := range first.Result.Cover {
		if second.Result.Cover[i] != first.Result.Cover[i] {
			t.Fatalf("persisted cover[%d] differs", i)
		}
	}
	m := getMetrics(t, ts2.URL)
	if m["setcoverd_solves_total"] != 0 || m["setcoverd_disk_cache_hits_total"] != 1 {
		t.Fatalf("restart metrics: solves=%d diskHits=%d, want 0/1",
			m["setcoverd_solves_total"], m["setcoverd_disk_cache_hits_total"])
	}

	// Corrupt every cache file: a third fresh server must REJECT them and
	// re-solve (solves_total goes to 1), with the rejection counted.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache files on disk: %v (%d)", err, len(entries))
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xFF
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv3 := NewServer(cat, Config{CacheDir: dir})
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	_, third, apiErr := postSolve(t, ts3.URL, map[string]any{"instance": "planted", "algo": "greedy1"})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if third.Cached {
		t.Fatal("corrupt cache entry was served")
	}
	if len(third.Result.Cover) != len(first.Result.Cover) {
		t.Fatal("re-solved cover differs (determinism broken)")
	}
	m = getMetrics(t, ts3.URL)
	if m["setcoverd_solves_total"] != 1 {
		t.Fatalf("corrupt entry not re-solved: solves=%d", m["setcoverd_solves_total"])
	}
	if m["setcoverd_disk_cache_errors_total"] == 0 {
		t.Fatal("corrupt entry rejection not counted")
	}
}

// A corrupt copy of a file never shares the intact file's cache entries. A
// server solves greedy1 on batch-paper's family (planted n=2000 m=12000 K=80
// seed 1) and persists the result. One byte in the middle of the set data is
// then overwritten — outside the 64 KB ends and the index that a sampled
// digest reads — and a second server sharing the cache directory registers
// the file afresh. Its digest differs, so the shared entry is not found, and
// the solve reads the bad byte and fails with 502 pass_failed instead of
// answering a cover for content it never read.
func TestCorruptFileMissesSharedCache(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 2000, M: 12000, K: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "paper.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const size, at = 315553, 105184
	if len(raw) != size || raw[at] == 0x7f {
		t.Fatalf("family moved: %d bytes (want %d), byte %d = %#x", len(raw), size, at, raw[at])
	}
	dir := t.TempDir()
	solveOn := func(cat *Catalog) (int, jobView, *APIError) {
		ts := httptest.NewServer(NewServer(cat, Config{CacheDir: dir}).Handler())
		defer ts.Close()
		return postSolve(t, ts.URL, map[string]any{"instance": "paper", "algo": "greedy1"})
	}

	intact := NewCatalog()
	defer intact.Close()
	if _, err := intact.AddFile("paper", path); err != nil {
		t.Fatal(err)
	}
	if code, view, apiErr := solveOn(intact); code != 200 || view.Cached {
		t.Fatalf("intact file: status %d cached %v err %v, want a fresh 200", code, view.Cached, apiErr)
	}

	raw[at] = 0x7f
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := NewCatalog()
	defer corrupt.Close()
	inst, err := corrupt.AddFile("paper", path)
	if err != nil {
		t.Fatal(err)
	}
	code, view, apiErr := solveOn(corrupt)
	if view.Cached {
		t.Fatalf("corrupt file answered %d from the intact file's cache entry", code)
	}
	if code != 502 || apiErr == nil || apiErr.Code != CodePassFailed {
		t.Fatalf("corrupt file: status %d err %+v, want 502 pass_failed", code, apiErr)
	}
	if old, _ := intact.Get("paper"); inst.Digest == old.Digest {
		t.Fatalf("corrupt file kept digest %s", inst.Digest)
	}
}

// A file rewritten after registration fails its solve instead of being
// solved, and cached, under the digest of the bytes that were registered. A
// catalog registers planted n=300 m=700 K=12, the file is overwritten with
// the K=30 family, and greedy1 runs against a shared cache directory on a
// fresh handle, as a solve past the handle pool gets: the solve answers 502
// pass_failed and writes no cache entry, so a second catalog that registers
// the original bytes solves them afresh (12 sets) instead of answering the
// K=30 file's cover from the cache. A same-size rewrite whose modification
// time differs fails the same way on a pooled handle, and a rename that
// replaces the file with one of the same size and modification time on a
// fresh one.
func TestRewrittenFileFailsInsteadOfAliasing(t *testing.T) {
	family := func(k int, reverse bool) []byte {
		in, _, _, err := gen.Planted(gen.PlantedConfig{N: 300, M: 700, K: k, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		if reverse {
			for i, j := 0, len(in.Sets)-1; i < j; i, j = i+1, j-1 {
				in.Sets[i].Elems, in.Sets[j].Elems = in.Sets[j].Elems, in.Sets[i].Elems
			}
		}
		path := filepath.Join(t.TempDir(), "family.scb")
		if err := scdisk.WriteFile(path, in); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	orig, k30, reversed := family(12, false), family(30, false), family(12, true)
	if len(reversed) != len(orig) || bytes.Equal(reversed, orig) {
		t.Fatalf("reversed family: %d bytes against %d, want the same size and other bytes", len(reversed), len(orig))
	}
	dir, cacheDir := t.TempDir(), t.TempDir()
	path := filepath.Join(dir, "planted.scb")
	write := func(raw []byte) {
		t.Helper()
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	register := func() *Catalog {
		t.Helper()
		cat := NewCatalog()
		t.Cleanup(func() { cat.Close() })
		if _, err := cat.AddFile("planted", path); err != nil {
			t.Fatal(err)
		}
		return cat
	}
	solveOn := func(cat *Catalog) (int, jobView, *APIError) {
		ts := httptest.NewServer(NewServer(cat, Config{CacheDir: cacheDir}).Handler())
		defer ts.Close()
		return postSolve(t, ts.URL, map[string]any{"instance": "planted", "algo": "greedy1"})
	}
	wantChanged := func(what string, cat *Catalog) {
		t.Helper()
		code, view, apiErr := solveOn(cat)
		if code != 502 || apiErr == nil || apiErr.Code != CodePassFailed {
			t.Fatalf("%s: status %d cached %v cover %d err %+v, want 502 pass_failed",
				what, code, view.Cached, len(view.Result.Cover), apiErr)
		}
		if msg := apiErr.Message; !strings.Contains(msg, `"planted"`) || !strings.Contains(msg, "changed since registration") {
			t.Fatalf("%s: message %q must name the instance and say it changed since registration", what, msg)
		}
		if entries, err := os.ReadDir(cacheDir); err != nil || len(entries) != 0 {
			t.Fatalf("%s: the cache directory holds %d entries (%v), want none", what, len(entries), err)
		}
	}

	write(orig)
	stale := register()
	stale.Close() // drain the pool: the solve opens the path afresh
	write(k30)
	wantChanged("rewritten with the K=30 family", stale)
	wantChanged("second solve of the rewritten file", stale)
	write(orig)
	code, view, apiErr := solveOn(register())
	if code != 200 || view.Cached || len(view.Result.Cover) != 12 {
		t.Fatalf("original bytes re-registered: status %d cached %v cover %d err %+v, want a fresh 200 with 12 sets",
			code, view.Cached, len(view.Result.Cover), apiErr)
	}
	if err := os.RemoveAll(cacheDir); err != nil {
		t.Fatal(err)
	}

	// Same size, other bytes, and a modification time an hour away.
	write(orig)
	stale = register()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	write(reversed)
	later := st.ModTime().Add(time.Hour)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}
	wantChanged("same-size rewrite", stale)

	// Same size and modification time, but another file renamed over it.
	write(orig)
	stale = register()
	stale.Close()
	if st, err = os.Stat(path); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "planted.scb.tmp")
	if err := os.WriteFile(tmp, reversed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(tmp, st.ModTime(), st.ModTime()); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	wantChanged("rename-replace", stale)
}
