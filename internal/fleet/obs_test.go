package fleet

// Fleet observability: one request id joins client → router → backend solve,
// probe state transitions log exactly once, and the router's /healthz and
// /metrics carry the per-node latency surfaces.

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// logCapture is a slog.Handler that records (level, message, attrs) tuples so
// tests can count exactly how many times a line was emitted.
type logCapture struct {
	mu      sync.Mutex
	records []logRecord
}

type logRecord struct {
	level slog.Level
	msg   string
	attrs map[string]string
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }

func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	rec := logRecord{level: r.Level, msg: r.Message, attrs: make(map[string]string)}
	r.Attrs(func(a slog.Attr) bool {
		rec.attrs[a.Key] = a.Value.String()
		return true
	})
	c.mu.Lock()
	c.records = append(c.records, rec)
	c.mu.Unlock()
	return nil
}

func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler { return c }
func (c *logCapture) WithGroup(string) slog.Handler      { return c }

// count returns how many captured records match msg and, when node != "",
// carry that node attr.
func (c *logCapture) count(msg, node string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.records {
		if r.msg != msg {
			continue
		}
		if node != "" && r.attrs["node"] != node {
			continue
		}
		n++
	}
	return n
}

// TestFleetRequestIDEndToEnd: a client-supplied X-Request-ID survives the
// whole path — echoed on the router's response header, stamped onto the
// backend request (the backend echoes it too and embeds it in the solve
// envelope), and present in the router's relay log line. A client that sends
// no id gets a router-minted one back.
func TestFleetRequestIDEndToEnd(t *testing.T) {
	path, _ := plantedFile(t)
	cap := &logCapture{}
	nodes, _, _ := startFleet(t, 2, path, "")
	urls := []string{nodes[0].url(), nodes[1].url()}
	rt, err := NewRouter(Config{Nodes: urls, AttemptTimeout: time.Minute,
		Logger: slog.New(cap)})
	if err != nil {
		t.Fatal(err)
	}
	// The router logs a relay after the response's last byte has reached the
	// client, so the log check waits for the handler to return. One buffer
	// slot per request this test sends.
	relayed := make(chan struct{}, 2)
	rts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.Handler().ServeHTTP(w, r)
		relayed <- struct{}{}
	}))
	defer rts.Close()

	const fixedID = "fleet-e2e-req-42"
	body := `{"instance":"planted","algo":"greedy1","trace":true}`
	req, err := http.NewRequest(http.MethodPost, rts.URL+"/v1/solve", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, fixedID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != fixedID {
		t.Fatalf("router echoed request id %q, want %q", got, fixedID)
	}
	var view struct {
		Status    string `json:"status"`
		RequestID string `json:"request_id"`
		Trace     *struct {
			RequestID string `json:"request_id"`
			Passes    []struct {
				Index int `json:"index"`
			} `json:"passes"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Status != "done" {
		t.Fatalf("status %q, want done", view.Status)
	}
	// The BACKEND put the router-propagated id into the envelope: proof the id
	// crossed the hop, not just that the router echoed its own copy.
	if view.RequestID != fixedID {
		t.Fatalf("backend envelope request_id %q, want %q", view.RequestID, fixedID)
	}
	if view.Trace == nil || view.Trace.RequestID != fixedID {
		t.Fatalf("trace missing or wrong request id: %+v", view.Trace)
	}
	if len(view.Trace.Passes) == 0 {
		t.Fatal("traced solve through router returned no pass breakdown")
	}
	// Router logged the relay under the same id.
	<-relayed
	cap.mu.Lock()
	var relayID string
	for _, r := range cap.records {
		if r.msg == "solve relayed" {
			relayID = r.attrs["request_id"]
		}
	}
	cap.mu.Unlock()
	if relayID != fixedID {
		t.Fatalf("router relay log request_id %q, want %q", relayID, fixedID)
	}

	// No client id → the router mints one and echoes it.
	resp2, err := http.Post(rts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io2 := resp2.Header.Get(obs.RequestIDHeader)
	resp2.Body.Close()
	if io2 == "" {
		t.Fatal("router did not mint a request id")
	}
}

// TestFleetProbeTransitionsLogOnce: healthz probes log "node up"/"node down"
// exactly once per TRANSITION — repeated probes of a steady state are silent.
func TestFleetProbeTransitionsLogOnce(t *testing.T) {
	path, _ := plantedFile(t)
	cap := &logCapture{}
	nodes, _, _ := startFleet(t, 2, path, "")
	urls := []string{nodes[0].url(), nodes[1].url()}
	rt, err := NewRouter(Config{Nodes: urls, AttemptTimeout: time.Minute,
		ProbeTimeout: 2 * time.Second, Logger: slog.New(cap)})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	probe := func() {
		resp, err := http.Get(rts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var v struct{}
		_ = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
	}

	probe() // unknown→up for both nodes: one "node up" each
	probe() // steady state: silent
	probe()
	for _, u := range urls {
		if got := cap.count("node up", u); got != 1 {
			t.Fatalf("node %s: %d 'node up' lines after steady probes, want exactly 1", u, got)
		}
		if got := cap.count("node down", u); got != 0 {
			t.Fatalf("node %s: unexpected 'node down' line", u)
		}
	}

	nodes[1].ts.Close() // kill one node
	probe()             // up→down: one "node down"
	probe()             // steady down: silent
	probe()
	if got := cap.count("node down", urls[1]); got != 1 {
		t.Fatalf("%d 'node down' lines after node death, want exactly 1", got)
	}
	if got := cap.count("node up", urls[0]); got != 1 {
		t.Fatalf("healthy node re-logged 'node up' (%d lines)", got)
	}
}

// TestFleetHealthzShape: the per-node breakdown carries each node's probe
// latency and the body carries router uptime.
func TestFleetHealthzShape(t *testing.T) {
	path, _ := plantedFile(t)
	_, _, rts := startFleet(t, 2, path, "")
	resp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var v struct {
		Status  string `json:"status"`
		Healthy int    `json:"healthy"`
		Nodes   map[string]struct {
			Status      string  `json:"status"`
			ProbeMillis float64 `json:"probe_ms"`
		} `json:"nodes"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Status != "ok" || v.Healthy != 2 {
		t.Fatalf("healthz: %+v", v)
	}
	if v.UptimeSeconds < 0 {
		t.Fatalf("negative uptime %v", v.UptimeSeconds)
	}
	if len(v.Nodes) != 2 {
		t.Fatalf("nodes map has %d entries, want 2", len(v.Nodes))
	}
	for node, h := range v.Nodes {
		if h.Status != "ok" {
			t.Fatalf("node %s status %q", node, h.Status)
		}
		if h.ProbeMillis < 0 {
			t.Fatalf("node %s negative probe latency", node)
		}
	}
}

// TestFleetMetricsHistograms: after a routed solve the router's /metrics
// exposes a solve-latency family with count ≥ 1 and a per-node labeled
// attempt family whose buckets parse and sum coherently.
func TestFleetMetricsHistograms(t *testing.T) {
	path, _ := plantedFile(t)
	_, _, rts := startFleet(t, 2, path, "")
	out := solveVia(t, rts.URL, `{"instance":"planted","algo":"greedy1"}`)
	if out.status != http.StatusOK {
		t.Fatalf("solve status %d", out.status)
	}

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	for _, want := range []string{
		"setcoverrt_uptime_seconds",
		"# TYPE setcoverrt_solve_seconds histogram",
		`setcoverrt_solve_seconds_bucket{le="+Inf"} 1`,
		"setcoverrt_solve_seconds_count 1",
		"# TYPE setcoverrt_attempt_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	// Exactly one attempt happened, on the winning node: the labeled family's
	// +Inf buckets across nodes must total 1.
	total := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "setcoverrt_attempt_seconds_bucket{") &&
			strings.Contains(line, `le="+Inf"`) {
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.Atoi(line[i+1:])
			if err != nil {
				t.Fatalf("unparseable bucket line %q: %v", line, err)
			}
			total += v
		}
	}
	if total != 1 {
		t.Fatalf("per-node +Inf attempt buckets sum to %d, want 1", total)
	}
}
