package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// A trace:true solve must return the phase breakdown in the envelope while
// the RESULT — cover, pass count, space words — stays byte-identical to the
// untraced solve of the same request (the acceptance pin). The traced and
// untraced requests also share one cache row: trace is not part of the key.
func TestTracedSolveIdenticalResultWithBreakdown(t *testing.T) {
	cat, in := testCatalog(t)
	srv := NewServer(cat, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Untraced reference on a distinct seed-keyed row so it is a real solve.
	code, ref, apiErr := postSolve(t, ts.URL, map[string]any{
		"instance": "planted", "algo": "greedyn", "seed": 7,
	})
	if apiErr != nil || code != 200 {
		t.Fatalf("untraced solve: status %d err %v", code, apiErr)
	}
	if ref.Trace != nil {
		t.Fatal("untraced response carries a trace block")
	}
	if ref.Result == nil || !in.IsCover(ref.Result.Cover) {
		t.Fatal("untraced solve did not produce a valid cover")
	}

	// Traced solve of a DIFFERENT seed (fresh row → a real traced solve).
	code, traced, apiErr := postSolve(t, ts.URL, map[string]any{
		"instance": "planted", "algo": "greedyn", "seed": 8, "trace": true,
	})
	if apiErr != nil || code != 200 {
		t.Fatalf("traced solve: status %d err %v", code, apiErr)
	}
	if traced.Trace == nil {
		t.Fatal("trace:true response carries no trace block")
	}
	if traced.RequestID == "" || traced.Trace.RequestID != traced.RequestID {
		t.Fatalf("request id missing or inconsistent: view=%q trace=%q",
			traced.RequestID, traced.Trace.RequestID)
	}
	if len(traced.Trace.Passes) == 0 {
		t.Fatal("traced solve reports no passes")
	}
	if traced.Trace.Passes[0].Kind != "sets" || traced.Trace.Passes[0].Items != in.M() {
		t.Fatalf("pass view wrong: %+v", traced.Trace.Passes[0])
	}
	if traced.Trace.TotalMillis < traced.Trace.SolveMillis {
		t.Fatalf("total %v < solve %v", traced.Trace.TotalMillis, traced.Trace.SolveMillis)
	}
	// The engine reported as many passes as the solve charged.
	if got := len(traced.Trace.Passes); got != traced.Result.Passes {
		t.Fatalf("trace shows %d passes, result charged %d", got, traced.Result.Passes)
	}

	// Seed 7 traced must be byte-identical to the untraced seed-7 reference —
	// and since trace is outside the cache key, this is a cache HIT whose
	// trace block carries only the response-path phases.
	code, hit, apiErr := postSolve(t, ts.URL, map[string]any{
		"instance": "planted", "algo": "greedyn", "seed": 7, "trace": true,
	})
	if apiErr != nil || code != 200 {
		t.Fatalf("traced repeat: status %d err %v", code, apiErr)
	}
	if !hit.Cached {
		t.Fatal("traced repeat did not share the untraced request's cache row")
	}
	if hit.Trace == nil || len(hit.Trace.Passes) != 0 {
		t.Fatalf("cache-hit trace should carry no passes: %+v", hit.Trace)
	}
	if len(hit.Result.Cover) != len(ref.Result.Cover) {
		t.Fatalf("traced cover size %d, want %d", len(hit.Result.Cover), len(ref.Result.Cover))
	}
	for i := range ref.Result.Cover {
		if hit.Result.Cover[i] != ref.Result.Cover[i] {
			t.Fatalf("cover[%d] differs traced vs untraced", i)
		}
	}
	if hit.Result.Passes != ref.Result.Passes || hit.Result.SpaceWords != ref.Result.SpaceWords {
		t.Fatalf("stats diverge: passes %d/%d space %d/%d",
			hit.Result.Passes, ref.Result.Passes, hit.Result.SpaceWords, ref.Result.SpaceWords)
	}
}

// A pass view carries the sets a settled pass checked instead of decoding
// as "skipped", and leaves the key out when it checked none, so traced
// passes that skip nothing keep their wire bytes.
func TestPassViewSkipped(t *testing.T) {
	tr := &solveTracer{hist: obs.NewHistogram()}
	tr.TracePass(obs.PassTrace{Index: 1, Kind: "sets", Items: 700})
	tr.TracePass(obs.PassTrace{Index: 2, Kind: "sets", Items: 700, Skipped: 450})
	for i, want := range []string{"", `"skipped":450,`} {
		raw, err := json.Marshal(tr.views()[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := string(raw); (want == "") == strings.Contains(got, `"skipped"`) || !strings.Contains(got, want) {
			t.Fatalf("pass %d view %s, want skipped key %q", i+1, got, want)
		}
	}
}

// Every solve response echoes X-Request-ID: client-supplied ids verbatim,
// server-minted ones otherwise, on success and error paths alike.
func TestRequestIDEcho(t *testing.T) {
	cat, _ := testCatalog(t)
	srv := NewServer(cat, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Client-supplied id echoes verbatim, on header and envelope.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/solve",
		strings.NewReader(`{"instance":"planted","algo":"greedy1"}`))
	req.Header.Set("X-Request-ID", "client-id-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-id-123" {
		t.Fatalf("echoed id %q, want client-id-123", got)
	}

	// No id supplied: the server mints one.
	resp2, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"instance":"planted","algo":"greedy1"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Fatal("server did not mint a request id")
	}

	// Error responses carry the id too.
	req3, _ := http.NewRequest("POST", ts.URL+"/v1/solve",
		strings.NewReader(`{"instance":"nope"}`))
	req3.Header.Set("X-Request-ID", "err-id-9")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != 404 || resp3.Header.Get("X-Request-ID") != "err-id-9" {
		t.Fatalf("error path: status %d id %q", resp3.StatusCode, resp3.Header.Get("X-Request-ID"))
	}
}

// /metrics output ordering is deterministic: two scrapes expose the same
// metric families in the same order (only values change), build info and
// uptime lead, and the histogram families parse as proper Prometheus text
// (HELP/TYPE once each, cumulative buckets summing to the count).
func TestMetricsDeterministicOrderingAndHistograms(t *testing.T) {
	cat, _ := testCatalog(t)
	srv := NewServer(cat, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, _, apiErr := postSolve(t, ts.URL, map[string]any{
		"instance": "planted", "algo": "greedy1",
	}); apiErr != nil {
		t.Fatal(apiErr)
	}

	scrape := func() []string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var names []string
		sc := bufio.NewScanner(strings.NewReader(string(raw)))
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			names = append(names, name)
		}
		return names
	}

	first, second := scrape(), scrape()
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("scrape line counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("ordering not deterministic at line %d: %q vs %q", i, first[i], second[i])
		}
	}
	if first[0] != "setcoverd_build_info" || first[1] != "setcoverd_uptime_seconds" {
		t.Fatalf("scrape must lead with build_info, uptime; got %v", first[:2])
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := string(raw)
	for _, fam := range []string{"setcoverd_solve_seconds", "setcoverd_queue_wait_seconds", "setcoverd_pass_seconds"} {
		if strings.Count(out, "# TYPE "+fam+" histogram") != 1 {
			t.Fatalf("family %s: TYPE line count != 1:\n%s", fam, out)
		}
		if err := checkHistogramFamily(out, fam); err != nil {
			t.Fatalf("family %s: %v", fam, err)
		}
	}
	// One solve ran: the solve histogram must have counted it.
	if !strings.Contains(out, "setcoverd_solve_seconds_count 1") {
		t.Fatalf("solve histogram count != 1:\n%s", out)
	}
}

// checkHistogramFamily verifies cumulative monotone buckets ending at the
// family's count, in one exposition dump.
func checkHistogramFamily(out, fam string) error {
	last, count := int64(-1), int64(-1)
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		lastField := func() (int64, error) {
			return strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		}
		switch {
		case strings.HasPrefix(line, fam+"_bucket"):
			v, err := lastField()
			if err != nil {
				return fmt.Errorf("parse %q: %v", line, err)
			}
			if v < last {
				return fmt.Errorf("buckets not cumulative: %d after %d", v, last)
			}
			last = v
		case strings.HasPrefix(line, fam+"_count"):
			v, err := lastField()
			if err != nil {
				return fmt.Errorf("parse %q: %v", line, err)
			}
			count = v
		}
	}
	if count < 0 {
		return fmt.Errorf("no _count line")
	}
	if last != count {
		return fmt.Errorf("+Inf bucket %d != count %d", last, count)
	}
	return nil
}

// Concurrent solves against a scraping client must race-cleanly keep the
// metrics coherent: counters never regress between scrapes and histogram
// buckets always sum to their count. Run under -race in CI.
func TestConcurrentSolveMetricsCoherent(t *testing.T) {
	cat, _ := testCatalog(t)
	srv := NewServer(cat, Config{MaxConcurrent: 4, MaxQueue: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const solvers, perSolver = 4, 6
	var wg sync.WaitGroup
	for g := 0; g < solvers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSolver; i++ {
				// Distinct seeds force real solves; repeats hit the cache.
				body := fmt.Sprintf(`{"instance":"planted","algo":"greedy1","seed":%d,"trace":true}`,
					g*perSolver+i)
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		var lastSolves int64
		for i := 0; i < 40; i++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			out := string(raw)
			for _, fam := range []string{"setcoverd_solve_seconds", "setcoverd_queue_wait_seconds", "setcoverd_pass_seconds"} {
				if err := checkHistogramFamily(out, fam); err != nil {
					t.Errorf("mid-flight scrape, family %s: %v", fam, err)
					return
				}
			}
			var solves int64
			for _, line := range strings.Split(out, "\n") {
				var name string
				var val int64
				if _, err := fmt.Sscanf(line, "%s %d", &name, &val); err == nil && name == "setcoverd_solves_total" {
					solves = val
				}
			}
			if solves < lastSolves {
				t.Errorf("solves_total regressed: %d after %d", solves, lastSolves)
				return
			}
			lastSolves = solves
		}
	}()
	wg.Wait()
	<-done

	// Settled state: solve histogram count equals completed solves.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(raw)
	want := fmt.Sprintf("setcoverd_solve_seconds_count %d", solvers*perSolver)
	if !strings.Contains(out, want+"\n") {
		t.Fatalf("settled solve histogram: want %q in\n%s", want, out)
	}
}
