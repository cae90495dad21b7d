package fleet

// The fault-injecting fleet harness: N real serve.Servers behind real HTTP
// listeners, one Router in front, and the failure modes injected mid-load —
// node death, node drain, router drain, full-fleet restart from the shared
// persistent cache. The assertions are the distribution layer's whole
// contract: covers byte-identical to direct library calls no matter which
// node answers, repeated digests cost ONE backend solve fleet-wide, and a
// dying node costs availability of nothing.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/scdisk"
	"repro/internal/serve"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// plantedFile writes one planted SCB1 instance and returns its path plus the
// in-memory instance for computing library ground truth.
func plantedFile(t *testing.T) (string, *setcover.Instance) {
	t.Helper()
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 200, M: 400, K: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "planted.scb")
	if err := scdisk.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	return path, in
}

// libraryCover solves algo through the algorithm table at the defaults,
// directly on the in-memory instance — the ground truth a fleet answer must
// match byte for byte (internal/algos checks each entry against its direct
// library call).
func libraryCover(t *testing.T, in *setcover.Instance, algo string) []int {
	t.Helper()
	e, ok := algos.Lookup(algo)
	if !ok {
		t.Fatalf("unknown algo %q", algo)
	}
	p := algos.Defaults()
	p.Engine = engine.Options{Workers: 1}
	res, err := e.Solve(stream.NewSliceRepo(in), p)
	if err != nil {
		t.Fatalf("library %s: %v", algo, err)
	}
	return res.Cover
}

// fleetNode is one live backend: a serve.Server on a real listener.
type fleetNode struct {
	srv *serve.Server
	ts  *httptest.Server
}

func (n *fleetNode) url() string { return n.ts.URL }

// startFleet boots count nodes over the same instance file (each with its own
// catalog and memory cache; cacheDir, when non-empty, is the SHARED persistent
// tier) plus a router over all of them. Callers kill nodes by closing their
// ts; t.Cleanup tolerates double-close.
func startFleet(t *testing.T, count int, path, cacheDir string) ([]*fleetNode, *Router, *httptest.Server) {
	t.Helper()
	nodes := make([]*fleetNode, count)
	urls := make([]string, count)
	for i := range nodes {
		cat := serve.NewCatalog()
		if _, err := cat.AddFile("planted", path); err != nil {
			t.Fatal(err)
		}
		srv := serve.NewServer(cat, serve.Config{MaxConcurrent: 2, MaxQueue: 64, CacheDir: cacheDir})
		ts := httptest.NewServer(srv.Handler())
		nodes[i] = &fleetNode{srv: srv, ts: ts}
		urls[i] = ts.URL
		t.Cleanup(ts.Close) // safe on already-closed servers
	}
	rt, err := NewRouter(Config{Nodes: urls, AttemptTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return nodes, rt, rts
}

// solveResp is the decoded wire answer of one routed solve.
type solveResp struct {
	status int
	node   string // X-Fleet-Node
	view   struct {
		Status    string `json:"status"`
		Cached    bool   `json:"cached"`
		Coalesced bool   `json:"coalesced"`
		Result    *struct {
			Algorithm string `json:"algorithm"`
			Cover     []int  `json:"cover"`
			CoverSize int    `json:"cover_size"`
		} `json:"result"`
	}
	apiErr *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
}

// solveViaE posts one solve through url and decodes the response. It returns
// errors instead of failing the test so load goroutines can count failures
// (t.Fatal is for the test goroutine only).
func solveViaE(url string, body string) (solveResp, error) {
	var out solveResp
	resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		return out, fmt.Errorf("solve transport error: %w", err)
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	out.node = resp.Header.Get(NodeHeader)
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, fmt.Errorf("solve read error: %w", err)
	}
	var envelope struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	_ = json.Unmarshal(raw, &envelope)
	if envelope.Error != nil {
		out.apiErr = envelope.Error
		return out, nil
	}
	if err := json.Unmarshal(raw, &out.view); err != nil {
		return out, fmt.Errorf("solve decode error: %w (body %.200s)", err, raw)
	}
	return out, nil
}

// solveVia is solveViaE for the test goroutine: transport/decode errors fail
// the test.
func solveVia(t *testing.T, url string, body string) solveResp {
	t.Helper()
	out, err := solveViaE(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func coversEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nodeMetrics scrapes one node's /metrics into a map.
func nodeMetrics(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]int64)
	for _, line := range strings.Split(string(raw), "\n") {
		var name string
		var v int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err == nil {
			m[name] = v
		}
	}
	return m
}

// Every algorithm, routed: the fleet's answer for each algorithm of the table
// is byte-identical to the library's, whichever node rendezvous picks — and
// the routing IS sticky (the same digest lands on the same node every time).
func TestFleetAllAlgorithmsByteIdentical(t *testing.T) {
	path, in := plantedFile(t)
	_, _, rts := startFleet(t, 3, path, "")

	homes := make(map[string]bool)
	for _, algo := range algos.Names() {
		body := fmt.Sprintf(`{"instance":"planted","algo":%q}`, algo)
		got := solveVia(t, rts.URL, body)
		if got.apiErr != nil || got.status != 200 {
			t.Fatalf("%s: status %d err %+v", algo, got.status, got.apiErr)
		}
		if got.node == "" {
			t.Fatalf("%s: response missing %s header", algo, NodeHeader)
		}
		homes[got.node] = true
		want := libraryCover(t, in, algo)
		if !coversEqual(got.view.Result.Cover, want) {
			t.Fatalf("%s: routed cover (%d sets via %s) differs from library cover (%d sets)",
				algo, len(got.view.Result.Cover), got.node, len(want))
		}
		// Same digest+algo again: same node (stickiness), now a cache hit.
		again := solveVia(t, rts.URL, body)
		if again.node != got.node {
			t.Fatalf("%s: rerouted from %s to %s with a stable fleet", algo, got.node, again.node)
		}
		if !again.view.Cached {
			t.Fatalf("%s: repeat solve not served from cache", algo)
		}
	}
	// One instance digest → one home node, for every algorithm (the routing
	// key is the digest, not the full cache key).
	if len(homes) != 1 {
		t.Fatalf("one digest spread across %d nodes: %v", len(homes), homes)
	}
}

// Fan-in: M concurrent clients hammering the SAME request through the router
// cost exactly ONE backend solve across the whole fleet — stickiness sends
// them to one node, single-flight coalesces them onto one job.
func TestFleetRepeatedDigestCostsOneSolve(t *testing.T) {
	path, _ := plantedFile(t)
	nodes, _, rts := startFleet(t, 3, path, t.TempDir())

	const clients = 12
	var wg sync.WaitGroup
	var failures atomic.Int64
	covers := make([][]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := solveViaE(rts.URL, `{"instance":"planted","algo":"greedy1"}`)
			if err != nil || got.status != 200 || got.apiErr != nil || got.view.Result == nil {
				failures.Add(1)
				return
			}
			covers[i] = got.view.Result.Cover
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d clients failed", failures.Load(), clients)
	}
	for i := 1; i < clients; i++ {
		if !coversEqual(covers[i], covers[0]) {
			t.Fatalf("client %d saw a different cover", i)
		}
	}
	var solves int64
	for _, n := range nodes {
		solves += nodeMetrics(t, n.url())["setcoverd_solves_total"]
	}
	if solves != 1 {
		t.Fatalf("fleet ran %d backend solves for %d identical clients, want exactly 1", solves, clients)
	}
}

// Node death mid-load: kill the digest's home node while clients hammer the
// fleet. Every client request succeeds — the router fails the dead node over
// to the next node in rendezvous order — and post-mortem traffic never names
// the dead node again.
func TestFleetSurvivesNodeDeathMidLoad(t *testing.T) {
	path, in := plantedFile(t)
	nodes, _, rts := startFleet(t, 3, path, "")
	want := libraryCover(t, in, "greedy1")
	body := `{"instance":"planted","algo":"greedy1"}`

	// Find the home node (and warm its cache).
	first := solveVia(t, rts.URL, body)
	if first.status != 200 {
		t.Fatalf("warmup failed: %d", first.status)
	}
	home := first.node
	var homeNode *fleetNode
	for _, n := range nodes {
		if n.url() == home {
			homeNode = n
		}
	}
	if homeNode == nil {
		t.Fatalf("home node %s not in fleet", home)
	}

	const clients, perClient = 8, 20
	killAt := int64(clients * perClient / 4)
	var done atomic.Int64
	var killed atomic.Bool
	var wg sync.WaitGroup
	var failures atomic.Int64
	var afterKillOnHome atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				got, err := solveViaE(rts.URL, body)
				if err != nil || got.status != 200 || got.view.Result == nil || !coversEqual(got.view.Result.Cover, want) {
					failures.Add(1)
				} else if killed.Load() && got.node == home {
					afterKillOnHome.Add(1)
				}
				if done.Add(1) == killAt {
					// The injected fault: the home node stops serving. Close
					// drains its in-flight responses, then refuses — so
					// "zero failed client requests" is a hard assertion, not
					// a race we usually win.
					killed.Store(true)
					homeNode.ts.Close()
				}
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d client requests failed across the node death", failures.Load(), clients*perClient)
	}
	// Requests issued after the kill cannot have been served by the corpse.
	// (Requests in flight DURING the kill may legitimately name it; the
	// counter only increments for requests that started after killed flipped,
	// minus an unavoidable sliver — so allow the sliver, reject the pattern.)
	if after := afterKillOnHome.Load(); after > int64(clients) {
		t.Fatalf("%d post-kill responses still name the dead node", after)
	}
}

// Drain failover (the -race e2e): a node draining via Shutdown answers 503,
// and the router treats that exactly like death — retries the next node, zero
// client-visible failures. Then the ROUTER drains mid-load: every client gets
// either a success or the router's structured 503, never a transport error or
// a hung request.
func TestFleetDrainAndRouterShutdownUnderLoad(t *testing.T) {
	path, in := plantedFile(t)
	nodes, rt, rts := startFleet(t, 3, path, "")
	want := libraryCover(t, in, "greedy1")
	body := `{"instance":"planted","algo":"greedy1"}`

	first := solveVia(t, rts.URL, body)
	home := first.node
	var homeNode *fleetNode
	for _, n := range nodes {
		if n.url() == home {
			homeNode = n
		}
	}

	// Drain the home node while clients run. Its listener stays up — it
	// answers every solve 503 shutting_down — so this exercises the status
	// retry path where node death exercised the transport path.
	const clients, perClient = 6, 10
	var wg sync.WaitGroup
	var failures atomic.Int64
	drained := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := homeNode.srv.Shutdown(ctx); err != nil {
			t.Errorf("node drain: %v", err)
		}
		close(drained)
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				got, err := solveViaE(rts.URL, body)
				if err != nil || got.status != 200 || got.view.Result == nil || !coversEqual(got.view.Result.Cover, want) {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	<-drained
	if failures.Load() != 0 {
		t.Fatalf("%d client requests failed across the node drain", failures.Load())
	}

	// Now drain the router itself under load: responses must be clean —
	// success before the drain lands, structured shutting_down after.
	var badShutdown atomic.Int64
	var stop sync.WaitGroup
	for c := 0; c < clients; c++ {
		stop.Add(1)
		go func() {
			defer stop.Done()
			for i := 0; i < perClient; i++ {
				got, err := solveViaE(rts.URL, body)
				ok := err == nil && (got.status == 200 ||
					(got.status == 503 && got.apiErr != nil && got.apiErr.Code == CodeShuttingDown))
				if !ok {
					badShutdown.Add(1)
				}
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("router shutdown: %v", err)
	}
	stop.Wait()
	if badShutdown.Load() != 0 {
		t.Fatalf("%d requests got a non-structured failure during router drain", badShutdown.Load())
	}
	// Draining router reports itself unhealthy.
	resp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("drained router healthz: %d, want 503", resp.StatusCode)
	}
}

// The restart story: solve through the fleet, kill EVERY node, boot a fresh
// node over the same shared cache directory — it answers from the persistent
// cache, byte-identical, without re-solving.
func TestFleetRestartServesFromPersistentCache(t *testing.T) {
	path, in := plantedFile(t)
	cacheDir := t.TempDir()
	nodes, _, rts := startFleet(t, 3, path, cacheDir)
	want := libraryCover(t, in, "iter")

	first := solveVia(t, rts.URL, `{"instance":"planted","algo":"iter"}`)
	if first.status != 200 || !coversEqual(first.view.Result.Cover, want) {
		t.Fatalf("initial solve: status %d", first.status)
	}
	for _, n := range nodes {
		n.ts.Close()
	}

	// The restarted node: fresh catalog, fresh memory cache, same cache dir.
	cat := serve.NewCatalog()
	if _, err := cat.AddFile("planted", path); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(cat, serve.Config{CacheDir: cacheDir})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rt2, err := NewRouter(Config{Nodes: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rts2 := httptest.NewServer(rt2.Handler())
	defer rts2.Close()

	got := solveVia(t, rts2.URL, `{"instance":"planted","algo":"iter"}`)
	if got.status != 200 || got.apiErr != nil {
		t.Fatalf("post-restart solve: status %d err %+v", got.status, got.apiErr)
	}
	if !got.view.Cached {
		t.Fatal("restarted node re-solved instead of reading the persistent cache")
	}
	if !coversEqual(got.view.Result.Cover, want) {
		t.Fatal("persistent-cache cover differs from the original")
	}
	m := nodeMetrics(t, ts.URL)
	if m["setcoverd_solves_total"] != 0 || m["setcoverd_disk_cache_hits_total"] != 1 {
		t.Fatalf("restarted node: solves=%d diskHits=%d, want 0/1",
			m["setcoverd_solves_total"], m["setcoverd_disk_cache_hits_total"])
	}
}

// Streaming relays through the router chunk by chunk and reassembles to the
// same cover the buffered path returns.
func TestFleetStreamsThroughRouter(t *testing.T) {
	path, in := plantedFile(t)
	_, _, rts := startFleet(t, 2, path, "")
	want := libraryCover(t, in, "greedy1")

	resp, err := http.Post(rts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"instance":"planted","algo":"greedy1","stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("streamed routed solve: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("router rewrote content type to %q", ct)
	}
	if resp.Header.Get(NodeHeader) == "" {
		t.Fatal("streamed response missing node header")
	}
	dec := json.NewDecoder(resp.Body)
	var head struct {
		Status string `json:"status"`
	}
	if err := dec.Decode(&head); err != nil || head.Status != "done" {
		t.Fatalf("stream head: %+v, %v", head, err)
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
				t.Fatalf("eof says %d, got %d", line.CoverSize, len(cover))
			}
			continue
		}
		cover = append(cover, line.Cover...)
	}
	if !sawEOF {
		t.Fatal("no eof trailer through the router")
	}
	if !coversEqual(cover, want) {
		t.Fatal("streamed routed cover differs from library")
	}
}

// A fully dead fleet answers a structured 503 fleet_exhausted — the client can
// tell "the fleet is down" from "my request is bad".
func TestFleetExhaustedIsStructured(t *testing.T) {
	path, _ := plantedFile(t)
	nodes, _, rts := startFleet(t, 2, path, "")
	for _, n := range nodes {
		n.ts.Close()
	}
	got := solveVia(t, rts.URL, `{"instance":"planted","algo":"greedy1"}`)
	if got.status != 503 || got.apiErr == nil || got.apiErr.Code != CodeFleetExhausted {
		t.Fatalf("dead fleet answered %d / %+v, want 503 %s", got.status, got.apiErr, CodeFleetExhausted)
	}
}

// 429 is backpressure, not a fault: the router must relay it, not burn the
// remaining fleet retrying a request the client is supposed to slow down on.
func TestFleetRelays429Unretried(t *testing.T) {
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/solve" {
			hits.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":{"code":"queue_full","message":"solve queue full"}}`)
	}))
	defer backend.Close()
	// Second node would accept any solve — it must never get one. (Metadata
	// probes like GET /v1/instances are fine and don't count.)
	var second atomic.Int64
	spare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/solve" {
			second.Add(1)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer spare.Close()

	// Pick an instance name whose rendezvous home IS the 429 node (neither
	// fake backend serves a catalog listing, so the router routes on the raw
	// name).
	nodes := []string{backend.URL, spare.URL}
	key := ""
	for i := 0; i < 1000 && key == ""; i++ {
		if k := fmt.Sprintf("inst-%d", i); rendezvousOrder(k, nodes)[0] == backend.URL {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no key homes on the 429 node")
	}
	rt, err := NewRouter(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	got := solveVia(t, rts.URL, fmt.Sprintf(`{"instance":%q,"algo":"greedy1"}`, key))
	if got.status != 429 || got.apiErr == nil || got.apiErr.Code != "queue_full" {
		t.Fatalf("429 not relayed: %d %+v", got.status, got.apiErr)
	}
	if hits.Load() == 0 {
		t.Fatal("the 429 node was never consulted")
	}
	if second.Load() != 0 {
		t.Fatalf("router retried a 429 onto the spare node %d times", second.Load())
	}
}

// The router caps request bodies like a node does and answers an oversized
// body 413 itself: one byte over the cap never reaches a backend, while a
// body exactly at the cap is relayed whole.
func TestRouterOversizedBodiesGet413(t *testing.T) {
	var posts atomic.Int64
	var lastLen atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
			n, _ := io.Copy(io.Discard, r.Body)
			lastLen.Store(n)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{}`)
	}))
	defer backend.Close()
	rt, err := NewRouter(Config{Nodes: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	for _, c := range []struct {
		path, obj string
		limit     int
	}{
		{"/v1/solve", `{"instance":"x"}`, maxSolveBody},
		{"/v1/instances/x/mutate", `{"ops":[{"op":"tombstone","id":0}]}`, maxMutateBody},
	} {
		for _, size := range []int{c.limit, c.limit + 1} {
			body := c.obj[:len(c.obj)-1] + strings.Repeat(" ", size-len(c.obj)) + "}"
			before := posts.Load()
			resp, err := http.Post(rts.URL+c.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			_ = json.Unmarshal(raw, &eb)
			sent := posts.Load() - before
			if size <= c.limit {
				if resp.StatusCode != http.StatusOK || sent != 1 || lastLen.Load() != int64(size) {
					t.Fatalf("%s %d bytes: status %d, %d backend POSTs of %d bytes; want 200 and one whole relay",
						c.path, size, resp.StatusCode, sent, lastLen.Load())
				}
				continue
			}
			if resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Error == nil || eb.Error.Code != "bad_request" {
				t.Fatalf("%s %d bytes: got %d %s, want 413 bad_request", c.path, size, resp.StatusCode, raw)
			}
			if sent != 0 {
				t.Fatalf("%s %d bytes: oversized body reached the backend %d times", c.path, size, sent)
			}
		}
	}
}
