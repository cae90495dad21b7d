package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	ssc "repro"
)

// startDaemon runs the daemon in-process on a free port and returns its base
// URL plus a shutdown func that drains it and asserts a clean exit.
func startDaemon(t *testing.T, args ...string) (url string, out *bytes.Buffer) {
	t.Helper()
	out = &bytes.Buffer{}
	ready := make(chan string, 1)
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), out, out, ready, stop)
	}()
	select {
	case url = <-ready:
	case c := <-code:
		t.Fatalf("daemon exited with %d before listening:\n%s", c, out)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	t.Cleanup(func() {
		close(stop)
		select {
		case c := <-code:
			if c != 0 {
				t.Errorf("daemon exit code %d:\n%s", c, out)
			}
		case <-time.After(30 * time.Second):
			t.Error("daemon did not drain within 30s")
		}
	})
	return url, out
}

func solve(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("non-JSON response %q: %v", raw, err)
	}
	return resp.StatusCode, m
}

// The full acceptance path, through the daemon binary's own run(): register a
// disk instance, serve solves whose covers are byte-identical to the library
// (cmd/setcover's own e2e tests pin CLI == library, closing the chain),
// observe the cache hit on repeat, and smoke /healthz + /metrics +
// /v1/instances.
func TestDaemonEndToEnd(t *testing.T) {
	in, _, opt, err := ssc.Planted(ssc.PlantedConfig{N: 400, M: 900, K: 15, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "planted.scb")
	if err := ssc.WriteInstanceFile(path, in); err != nil {
		t.Fatal(err)
	}
	url, _ := startDaemon(t, "-instance", "planted="+path, "-max-concurrent", "2")

	// healthz
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Library reference (cmd/setcover's e2e tests pin the CLI to this).
	want, err := ssc.IterSetCover(ssc.NewRepository(in), ssc.Options{Delta: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	status, body := solve(t, url, `{"instance":"planted","algo":"iter","delta":0.5}`)
	if status != 200 {
		t.Fatalf("solve: %d: %v", status, body)
	}
	res, _ := body["result"].(map[string]any)
	if res == nil {
		t.Fatalf("no result in %v", body)
	}
	gotCover := res["cover"].([]any)
	if len(gotCover) != len(want.Cover) {
		t.Fatalf("cover size %d, library %d", len(gotCover), len(want.Cover))
	}
	for i, v := range gotCover {
		if int(v.(float64)) != want.Cover[i] {
			t.Fatalf("cover[%d] = %v, library %d", i, v, want.Cover[i])
		}
	}
	if int(res["passes"].(float64)) != want.Passes {
		t.Fatalf("passes %v, library %d", res["passes"], want.Passes)
	}
	if len(gotCover) < opt {
		t.Fatalf("cover smaller than the planted optimum: %d < %d", len(gotCover), opt)
	}

	// Repeat request: served from cache.
	status, body = solve(t, url, `{"instance":"planted","algo":"iter","delta":0.5}`)
	if status != 200 || body["cached"] != true {
		t.Fatalf("repeat solve not cached: %d %v", status, body["cached"])
	}

	// Metrics reflect one solve, one hit.
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"setcoverd_solves_total 1", "setcoverd_cache_hits_total 1", "setcoverd_instances 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Instance listing carries the digest.
	resp, err = http.Get(url + "/v1/instances")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(listing), `"digest"`) || !strings.Contains(string(listing), `"planted"`) {
		t.Fatalf("instances listing: %s", listing)
	}
}

// A truncated SCB1 file registers fine (the header is intact) but solving it
// must return the structured 502, end to end through the daemon.
func TestDaemonTruncatedInstanceFailsLoudly(t *testing.T) {
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 200, M: 500, K: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(t.TempDir(), "full.scb")
	if err := ssc.WriteInstanceFile(full, in); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.scb")
	if err := os.WriteFile(trunc, raw[:len(raw)*3/5], 0o644); err != nil {
		t.Fatal(err)
	}
	url, _ := startDaemon(t, "-instance", "trunc="+trunc)

	status, body := solve(t, url, `{"instance":"trunc","algo":"iter"}`)
	if status != 502 {
		t.Fatalf("want 502 for truncated instance, got %d: %v", status, body)
	}
	errObj, _ := body["error"].(map[string]any)
	if errObj == nil || errObj["code"] != "pass_failed" {
		t.Fatalf("want structured pass_failed error, got %v", body)
	}
	if _, hasResult := body["result"]; hasResult {
		t.Fatalf("failed solve carries a result: %v", body)
	}
}

// Flag and registration errors exit 2 before serving; the retired -gen is
// an unknown flag.
func TestDaemonBadFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-instance", "nope=/does/not/exist.scb"}, &out, &out, nil, nil); code != 2 {
		t.Fatalf("missing file: exit %d, want 2\n%s", code, &out)
	}
	out.Reset()
	if code := run([]string{"-gen", "x:n=1"}, &out, &out, nil, nil); code != 2 {
		t.Fatalf("retired -gen: exit %d, want 2\n%s", code, &out)
	}
	if !strings.Contains(out.String(), "flag provided but not defined: -gen") {
		t.Fatalf("-gen is not reported as an unknown flag:\n%s", &out)
	}
}

// -cache-dir end to end: a daemon writes its solved covers to the directory;
// a SECOND daemon (the restart) over the same directory serves them as cache
// hits without solving.
func TestDaemonPersistentCacheFlag(t *testing.T) {
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 300, M: 700, K: 12, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "planted.scb")
	if err := ssc.WriteInstanceFile(path, in); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")

	url1, _ := startDaemon(t, "-instance", "planted="+path, "-cache-dir", cacheDir)
	status, first := solve(t, url1, `{"instance":"planted","algo":"greedy1"}`)
	if status != 200 {
		t.Fatalf("solve: %d: %v", status, first)
	}

	url2, _ := startDaemon(t, "-instance", "planted="+path, "-cache-dir", cacheDir)
	status, second := solve(t, url2, `{"instance":"planted","algo":"greedy1"}`)
	if status != 200 || second["cached"] != true {
		t.Fatalf("second daemon not serving from the shared cache: %d %v", status, second["cached"])
	}
	firstCover := first["result"].(map[string]any)["cover"].([]any)
	secondCover := second["result"].(map[string]any)["cover"].([]any)
	if len(firstCover) != len(secondCover) {
		t.Fatalf("persisted cover size %d != original %d", len(secondCover), len(firstCover))
	}
	for i := range firstCover {
		if firstCover[i] != secondCover[i] {
			t.Fatalf("persisted cover[%d] differs", i)
		}
	}
	resp, err := http.Get(url2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"setcoverd_solves_total 0", "setcoverd_disk_cache_hits_total 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("second daemon metrics missing %q:\n%s", want, metrics)
		}
	}

	// An unusable cache dir (a regular file in the way) fails fast at startup.
	blocked := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-instance", "planted=" + path, "-cache-dir", blocked}, &out, &out, nil, nil); code != 2 {
		t.Fatalf("unusable -cache-dir: exit %d, want 2\n%s", code, &out)
	}
	if !strings.Contains(out.String(), "-cache-dir") {
		t.Fatalf("error does not name the flag:\n%s", &out)
	}
}

// The daemon lists each file under the library's Digest, a solve addressed
// by that digest succeeds, and the retired -verify-digest flag is an unknown
// flag: exit 2.
func TestDaemonVerifyDigestFlag(t *testing.T) {
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 200, M: 400, K: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "planted.scb")
	if err := ssc.WriteInstanceFile(path, in); err != nil {
		t.Fatal(err)
	}
	d, err := ssc.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Digest()
	d.Close()
	if err != nil {
		t.Fatal(err)
	}

	url, _ := startDaemon(t, "-instance", "planted="+path)
	resp, err := http.Get(url + "/v1/instances")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Instances []struct {
			Digest string `json:"digest"`
		} `json:"instances"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Instances) != 1 || listing.Instances[0].Digest != want {
		t.Fatalf("daemon lists %+v, want one instance with library Digest %s", listing.Instances, want)
	}
	if status, body := solve(t, url, `{"instance":"`+want+`","algo":"greedy1"}`); status != 200 {
		t.Fatalf("solve by digest: %d: %v", status, body)
	}

	var out bytes.Buffer
	if code := run([]string{"-instance", "planted=" + path, "-verify-digest"}, &out, &out, nil, nil); code != 2 {
		t.Fatalf("-verify-digest: exit %d, want 2\n%s", code, &out)
	}
}

// smallPlantedFile writes planted n=60 m=120 K=6 seed 2 as an SCB1 file and
// returns its path.
func smallPlantedFile(t *testing.T) string {
	t.Helper()
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 60, M: 120, K: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.scb")
	if err := ssc.WriteInstanceFile(path, in); err != nil {
		t.Fatal(err)
	}
	return path
}

// syncBuffer is a bytes.Buffer safe for the daemon goroutine to write (log
// lines) while the test goroutine reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// The observability flags end to end: -pprof-addr serves a live
// /debug/pprof/ index on its own listener, -log-json emits the solve's
// structured log line carrying the client's X-Request-ID, and a bad
// -log-level is a startup error, not a silent default.
func TestDaemonObservabilityFlags(t *testing.T) {
	path := smallPlantedFile(t)
	out := &syncBuffer{}
	ready := make(chan string, 1)
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-addr", "127.0.0.1:0", "-instance", "g=" + path,
			"-log-json", "-pprof-addr", "127.0.0.1:0"}, out, out, ready, stop)
	}()
	var url string
	select {
	case url = <-ready:
	case c := <-code:
		t.Fatalf("daemon exited with %d before listening:\n%s", c, out)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	defer func() {
		close(stop)
		if c := <-code; c != 0 {
			t.Errorf("daemon exit code %d:\n%s", c, out)
		}
	}()

	// pprof: the printed line names the listener; its index must answer 200.
	var pprofURL string
	for _, line := range strings.Split(out.String(), "\n") {
		if _, rest, ok := strings.Cut(line, "pprof on "); ok {
			pprofURL = strings.TrimSpace(rest)
		}
	}
	if pprofURL == "" {
		t.Fatalf("no pprof line in output:\n%s", out)
	}
	resp, err := http.Get(pprofURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}

	// A traced solve with a fixed request id: echoed on the wire AND in the
	// JSON log line.
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve",
		strings.NewReader(`{"instance":"g","algo":"greedy1","trace":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ssc.RequestIDHeader, "daemon-test-req-7")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != 200 {
		t.Fatalf("solve: %d", sresp.StatusCode)
	}
	if got := sresp.Header.Get(ssc.RequestIDHeader); got != "daemon-test-req-7" {
		t.Fatalf("request id echo %q", got)
	}
	var view struct {
		Trace *struct {
			RequestID string `json:"request_id"`
			Passes    []any  `json:"passes"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Trace == nil || len(view.Trace.Passes) == 0 {
		t.Fatalf("trace:true solve returned no breakdown: %+v", view.Trace)
	}
	logged := out.String()
	if !strings.Contains(logged, `"request_id":"daemon-test-req-7"`) {
		t.Fatalf("JSON log missing request id:\n%s", logged)
	}
	if !strings.Contains(logged, `"msg":"solve finished"`) {
		t.Fatalf("JSON log missing solve line:\n%s", logged)
	}
}

func TestDaemonBadLogLevel(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-log-level", "chatty"}, &out, &out, nil, nil); code != 2 {
		t.Fatalf("bad -log-level: exit %d, want 2\n%s", code, &out)
	}
	if !strings.Contains(out.String(), "log-level") {
		t.Fatalf("unhelpful error:\n%s", &out)
	}
}

// Every HTTP server run builds, the API and the pprof listener alike, bounds
// header reads and idle keep-alives, and none bounds a whole request or
// response, which would cut long solves and NDJSON streams. The pprof
// listener closes when run returns.
func TestDaemonServerTimeouts(t *testing.T) {
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("timeouts %v/%v, want both > 0", readHeaderTimeout, idleTimeout)
	}
	var mu sync.Mutex
	var built []*http.Server
	orig := newHTTPServer
	newHTTPServer = func(h http.Handler) *http.Server {
		s := orig(h)
		mu.Lock()
		built = append(built, s)
		mu.Unlock()
		return s
	}
	defer func() { newHTTPServer = orig }()

	path := smallPlantedFile(t)
	out := &syncBuffer{}
	ready := make(chan string, 1)
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-addr", "127.0.0.1:0", "-instance", "g=" + path, "-pprof-addr", "127.0.0.1:0"}, out, out, ready, stop)
	}()
	select {
	case <-ready:
	case c := <-code:
		t.Fatalf("daemon exited with %d before listening:\n%s", c, out)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	close(stop)
	if c := <-code; c != 0 {
		t.Fatalf("daemon exit code %d:\n%s", c, out)
	}
	var pprofURL string
	for _, line := range strings.Split(out.String(), "\n") {
		if _, rest, ok := strings.Cut(line, "pprof on "); ok {
			pprofURL = strings.TrimSpace(rest)
		}
	}
	if resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(pprofURL); err == nil {
		resp.Body.Close()
		t.Errorf("pprof listener %s still answers after run returned", pprofURL)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(built) != 2 {
		t.Fatalf("run built %d HTTP servers, want 2 (API and pprof)", len(built))
	}
	for i, s := range built {
		if s.ReadHeaderTimeout != readHeaderTimeout || s.IdleTimeout != idleTimeout {
			t.Errorf("server %d: ReadHeaderTimeout %v IdleTimeout %v, want %v/%v",
				i, s.ReadHeaderTimeout, s.IdleTimeout, readHeaderTimeout, idleTimeout)
		}
		if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
			t.Errorf("server %d: ReadTimeout %v WriteTimeout %v, want none", i, s.ReadTimeout, s.WriteTimeout)
		}
	}
}
