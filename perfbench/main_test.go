package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/offline"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// tinyConfig runs a workload at test size for about a second.
func tinyConfig(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload, seed: 1, seconds: 1, trace: traced, tiny: true,
		workers: 2, rate: 100, workDir: t.TempDir(), traceDir: t.TempDir(), log: io.Discard,
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  string
		specs []metricSpec
		json  []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		if len(c.json) != len(c.specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.specs))
			continue
		}
		for i, s := range c.specs {
			j := c.json[i]
			if j.Name != s.name || j.Unit != s.unit || j.Better != s.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.kind, i, j, s)
			}
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, program %q", got, want)
	}
}

// TestEveryMetricEmittedWithUnit runs every workload, untraced and traced,
// and checks the result line carries exactly the specified metrics, each
// with its unit, and that the untraced ones are never 0.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, name, traced)
			res, err := runWorkload(workloads[name], cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, s.name, m, s.unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", name, s.name)
				}
			}
		}
	}
}

// TestWrongCoverCountsAsFailure injects a solver whose cover changes after
// the first cycle: every later cycle must fail its reference check, land in
// fail_frac, and make the command exit non-zero.
func TestWrongCoverCountsAsFailure(t *testing.T) {
	calls := 0
	wl := batchWorkload{setup: setupPaper, cases: []solveCase{engineOnly("greedy1", false,
		func(repo stream.Repository, eng engine.Options) (setcover.Stats, error) {
			st, err := greedy1(repo, eng)
			if calls++; calls > 1 {
				st.Cover = append(st.Cover, 0) // still a cover, but not the reference one
			}
			return st, err
		})}}
	workloads["test-wrong-cover"] = runBatch(wl)
	defer delete(workloads, "test-wrong-cover")

	cfg := tinyConfig(t, "test-wrong-cover", true)
	res, err := runWorkload(workloads[cfg.workload], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Metrics["fail_frac"].Value <= 0 {
		t.Fatalf("wrong covers not counted: correct=%v failed=%d fail_frac=%v", res.Correct, res.Failed, res.Metrics["fail_frac"])
	}
	calls = 0
	var stdout bytes.Buffer
	code := run([]string{"--workload", cfg.workload, "--seconds", "0.3", "--work-dir", t.TempDir()}, &stdout, io.Discard)
	if code == 0 {
		t.Fatal("a run with failed checks exited 0")
	}
}

// TestServerErrorCountsAsFailure points the fleet's clients at a router
// that answers 500: every read must count as failed.
func TestServerErrorCountsAsFailure(t *testing.T) {
	cfg := tinyConfig(t, "serve-fleet", false)
	e, err := setupFleet(cfg, cfg.workDir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "injected", http.StatusInternalServerError)
	}))
	defer broken.Close()
	e.rtURL = broken.URL

	rec := newRecorder(cfg)
	st, _, plan := e.window(cfg.rate, time.Second, false, 0)
	e.record(rec, st)
	reads := 0
	for _, p := range plan {
		if p.class != classWrite {
			reads++
		}
	}
	rec.mu.Lock()
	failed := rec.failed
	rec.mu.Unlock()
	if int(failed) != reads || reads == 0 {
		t.Fatalf("%d failures counted, want one per read (%d)", failed, reads)
	}
	res, err := rec.result(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Metrics["fail_frac"].Value <= 0 {
		t.Fatalf("500s not in fail_frac: %+v", res.Metrics["fail_frac"])
	}
}

// TestOpenLoopAgainstSleepingStub checks the generator against a handler
// that sleeps: latency is at least the sleep, counted from the due time,
// and an offered rate above the stub's capacity shows up as connection
// wait, a growing backlog and a late generator report.
func TestOpenLoopAgainstSleepingStub(t *testing.T) {
	const sleep = 20 * time.Millisecond
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(sleep)
	}))
	defer stub.Close()
	get := func(int) func() error {
		resp, err := http.Get(stub.URL)
		if err != nil {
			return func() error { return err }
		}
		resp.Body.Close()
		return nil
	}
	class := func(int) string { return classHit }

	// Within capacity: two connections, 40 req/s against 100 req/s.
	st := openLoop(40, time.Second, 2, class, get)
	if len(st.samples) != 40 {
		t.Fatalf("%d samples, want 40", len(st.samples))
	}
	for _, s := range st.samples {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if s.latency() < sleep {
			t.Fatalf("request %d: latency %v below the stub's sleep %v", s.i, s.latency(), sleep)
		}
		if s.late < 0 || s.late > 50*time.Millisecond {
			t.Errorf("request %d: generator %v late", s.i, s.late)
		}
	}
	if st.backlogGrowing {
		t.Error("backlog reported growing within capacity")
	}

	// Overloaded: one connection, 100 req/s against 50 req/s.
	st = openLoop(100, time.Second, 1, class, get)
	last := st.samples[len(st.samples)-1]
	if !st.backlogGrowing || st.backlogMax < 10 || last.connWait() < 300*time.Millisecond {
		t.Fatalf("overload not reported: growing=%v backlog_max=%d last conn wait %v",
			st.backlogGrowing, st.backlogMax, last.connWait())
	}
	if last.latency() < last.connWait()+sleep {
		t.Fatalf("latency %v does not count the wait %v before the request was sent", last.latency(), last.connWait())
	}
}

func TestCompareRefusesDifferentCPUCounts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int) string {
		rec := savedResult{Provenance: provenance{Workload: "batch-scan", NumCPU: nproc, GOMAXPROCS: nproc},
			Result: &result{Metrics: map[string]metric{"run_s": {1, "s"}}}}
		path := dir + "/" + name
		if err := os.WriteFile(path, mustJSON(rec), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a", 2), write("b", 2), write("c", 1)
	if code := runCompare([]string{a, b}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("same nproc: exit %d", code)
	}
	var stderr bytes.Buffer
	if code := runCompare([]string{a, c}, io.Discard, &stderr); code == 0 || !strings.Contains(stderr.String(), "nproc") {
		t.Fatalf("different nproc: exit %d, %q", code, stderr.String())
	}
}

// TestOfflineWrapperIsTransparent checks the timing wrapper hands iter's
// sub-instances through unchanged and counts them.
func TestOfflineWrapperIsTransparent(t *testing.T) {
	in := &setcover.Instance{N: 3, Sets: []setcover.Set{{Elems: []setcover.Elem{0, 1}}, {Elems: []setcover.Elem{2}}}}
	in.Normalize()
	tally := &offlineTally{}
	got, err := timedOffline{Solver: offline.Greedy{}, tally: tally}.Solve(in)
	want, werr := offline.Greedy{}.Solve(in)
	if err != nil || werr != nil || !bytes.Equal(mustJSON(got), mustJSON(want)) {
		t.Fatalf("wrapped %v %v, bare %v %v", got, err, want, werr)
	}
	if tally.calls != 1 || tally.sets != 2 {
		t.Fatalf("tally %+v", tally)
	}
}
