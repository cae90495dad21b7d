package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	ssc "repro"
)

// startBackends boots count serve.Servers over one planted instance file and
// returns their URLs plus closers.
func startBackends(t *testing.T, count int) ([]string, []*httptest.Server) {
	t.Helper()
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 200, M: 400, K: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "planted.scb")
	if err := ssc.WriteInstanceFile(path, in); err != nil {
		t.Fatal(err)
	}
	urls := make([]string, count)
	servers := make([]*httptest.Server, count)
	for i := 0; i < count; i++ {
		cat := ssc.NewCatalog()
		if _, err := cat.AddFile("planted", path); err != nil {
			t.Fatal(err)
		}
		srv := ssc.NewServer(cat, ssc.ServerConfig{MaxConcurrent: 2})
		servers[i] = httptest.NewServer(srv.Handler())
		urls[i] = servers[i].URL
		t.Cleanup(servers[i].Close)
	}
	return urls, servers
}

// startRouter runs the router daemon in-process via its own run().
func startRouter(t *testing.T, args ...string) (string, *bytes.Buffer) {
	t.Helper()
	out := &bytes.Buffer{}
	ready := make(chan string, 1)
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), out, out, ready, stop)
	}()
	var url string
	select {
	case url = <-ready:
	case c := <-code:
		t.Fatalf("router exited with %d before listening:\n%s", c, out)
	case <-time.After(10 * time.Second):
		t.Fatal("router never became ready")
	}
	t.Cleanup(func() {
		close(stop)
		select {
		case c := <-code:
			if c != 0 {
				t.Errorf("router exit code %d:\n%s", c, out)
			}
		case <-time.After(30 * time.Second):
			t.Error("router did not drain within 30s")
		}
	})
	return url, out
}

// The router daemon end to end: routed solves succeed and name their backend,
// a killed backend fails over, and the fleet endpoints respond.
func TestRouterDaemonEndToEnd(t *testing.T) {
	urls, servers := startBackends(t, 3)
	args := []string{"-attempt-timeout", "30s"}
	for _, u := range urls {
		args = append(args, "-node", u)
	}
	url, out := startRouter(t, args...)
	if !strings.Contains(out.String(), "routing 3 nodes") {
		t.Fatalf("missing startup line:\n%s", out)
	}

	post := func() (int, string, map[string]any) {
		resp, err := http.Post(url+"/v1/solve", "application/json",
			strings.NewReader(`{"instance":"planted","algo":"greedy1"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("non-JSON response %q: %v", raw, err)
		}
		return resp.StatusCode, resp.Header.Get(ssc.FleetNodeHeader), m
	}

	status, node, body := post()
	if status != 200 || body["result"] == nil {
		t.Fatalf("routed solve: %d %v", status, body)
	}
	if node == "" {
		t.Fatal("missing X-Fleet-Node header")
	}
	firstCover := body["result"].(map[string]any)["cover"].([]any)

	// Kill the answering backend; the router must fail over and the cover must
	// not change.
	for i, u := range urls {
		if u == node {
			servers[i].Close()
		}
	}
	status, node2, body := post()
	if status != 200 {
		t.Fatalf("post-kill solve: %d %v", status, body)
	}
	if node2 == node {
		t.Fatalf("dead node %s answered", node)
	}
	cover2 := body["result"].(map[string]any)["cover"].([]any)
	if len(cover2) != len(firstCover) {
		t.Fatalf("failover cover size %d != %d", len(cover2), len(firstCover))
	}
	for i := range firstCover {
		if cover2[i] != firstCover[i] {
			t.Fatalf("failover cover[%d] differs", i)
		}
	}

	// healthz reports the dead node but stays 200.
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz with one dead node: %d", resp.StatusCode)
	}
	if !strings.Contains(string(hraw), `"down"`) {
		t.Fatalf("healthz does not report the dead node:\n%s", hraw)
	}

	// metrics carry the router counters.
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"setcoverrt_requests_total", "setcoverrt_retries_total", "setcoverrt_nodes 3"} {
		if !strings.Contains(string(mraw), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mraw)
		}
	}
}

// Flag errors exit 2 before serving: a fleet with no nodes is a configuration
// bug, not an empty success.
func TestRouterDaemonBadFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:0"}, &out, &out, nil, nil); code != 2 {
		t.Fatalf("no nodes: exit %d, want 2\n%s", code, &out)
	}
	if !strings.Contains(out.String(), "no nodes") {
		t.Fatalf("unhelpful error:\n%s", &out)
	}
	out.Reset()
	if code := run([]string{"-node", "http://a", "-node", "http://a"}, &out, &out, nil, nil); code != 2 {
		t.Fatalf("duplicate node: exit %d, want 2\n%s", code, &out)
	}
}

// The router's observability flags: a bad -log-level is a startup error, and
// -pprof-addr serves a live /debug/pprof/ index on its own listener.
func TestRouterDaemonObservabilityFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-node", "http://127.0.0.1:1", "-log-level", "loud"}, &out, &out, nil, nil); code != 2 {
		t.Fatalf("bad -log-level: exit %d, want 2\n%s", code, &out)
	}

	buf := &bytes.Buffer{}
	ready := make(chan string, 1)
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-addr", "127.0.0.1:0", "-node", "http://127.0.0.1:1",
			"-pprof-addr", "127.0.0.1:0"}, buf, buf, ready, stop)
	}()
	select {
	case <-ready:
	case c := <-code:
		t.Fatalf("router exited with %d before listening:\n%s", c, buf)
	case <-time.After(10 * time.Second):
		t.Fatal("router never became ready")
	}
	defer func() {
		close(stop)
		if c := <-code; c != 0 {
			t.Errorf("router exit code %d:\n%s", c, buf)
		}
	}()
	var pprofURL string
	for _, line := range strings.Split(buf.String(), "\n") {
		if _, rest, ok := strings.Cut(line, "pprof on "); ok {
			pprofURL = strings.TrimSpace(rest)
		}
	}
	if pprofURL == "" {
		t.Fatalf("no pprof line in output:\n%s", buf)
	}
	resp, err := http.Get(pprofURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
}

// Every HTTP server run builds, the API and the pprof listener alike, bounds
// header reads and idle keep-alives, and none bounds a whole request or
// response, which would cut long solves and NDJSON streams. The pprof
// listener closes when run returns.
func TestRouterDaemonServerTimeouts(t *testing.T) {
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

	out := &bytes.Buffer{}
	ready := make(chan string, 1)
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-addr", "127.0.0.1:0", "-node", "http://127.0.0.1:1", "-pprof-addr", "127.0.0.1:0"}, out, out, ready, stop)
	}()
	select {
	case <-ready:
	case c := <-code:
		t.Fatalf("router exited with %d before listening:\n%s", c, out)
	case <-time.After(10 * time.Second):
		t.Fatal("router never became ready")
	}
	close(stop)
	if c := <-code; c != 0 {
		t.Fatalf("router exit code %d:\n%s", c, out)
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
