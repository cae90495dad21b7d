package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/scdisk"
	"repro/internal/serve"
	"repro/internal/setcover"
)

// fleetSizes are serve-fleet's instance dimensions.
type fleetSizes struct {
	hotN, hotM      int // the hot instance (4 keys) and each warm instance
	warmInstances   int
	warmSeeds       int // keys per warm instance
	missN, missM    int
	singletons      int // sets (and elements) of the streamed instance
	dynN, dynM      int
	nodeCache       int // each node's memory LRU, in entries
	appendsPerWrite int
	appendElems     int
	missSamples     int // misses re-solved through the library after the window
}

func sizesFor(cfg config) fleetSizes {
	if cfg.tiny {
		return fleetSizes{hotN: 100, hotM: 400, warmInstances: 2, warmSeeds: 6, missN: 100, missM: 400,
			singletons: 3000, dynN: 200, dynM: 800, nodeCache: 4, appendsPerWrite: 2, appendElems: 10, missSamples: 2}
	}
	return fleetSizes{hotN: 400, hotM: 1600, warmInstances: 8, warmSeeds: 32, missN: 500, missM: 2000,
		singletons: 120000, dynN: 1000, dynM: 4000, nodeCache: 32, appendsPerWrite: 2, appendElems: 25, missSamples: 4}
}

// fleetNodes is how many serve.Server nodes sit behind the router.
const fleetNodes = 3

// hotKeys is how many hot keys the hits cycle through.
const hotKeys = 4

// The request mix, by count, per block of mixBlock requests.
const (
	mixBlock  = 50
	mixHot    = 20
	mixWarm   = 20
	mixMiss   = 1
	mixStream = 4
	mixWrite  = 5
)

// Request classes.
const (
	classHit    = "hit"
	classMiss   = "miss"
	classStream = "stream"
	classWrite  = "write"
)

var readClasses = []string{classHit, classMiss, classStream}

// httpServer is one loopback listener serving a handler.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once Shutdown is called
	}()
	return s, nil
}

// shutdown stops accepting, waits for open requests, and waits for Serve
// to return.
func (s *httpServer) shutdown(ctx context.Context) {
	s.srv.Shutdown(ctx)
	<-s.done
}

// fleetEnv is one set-up fleet: the nodes, the router, the client and the
// references every response is checked against.
type fleetEnv struct {
	cfg   config
	sz    fleetSizes
	nodes []*serve.Server
	cats  []*serve.Catalog
	srvs  []*httpServer // nodes first, the router last
	rt    *fleet.Router
	rtURL string
	node0 string // the node that registered the dynamic instance
	cl    *http.Client
	mw    *middleware // nil unless traced

	fams map[string]family // planted instances by name
	refs [][32]byte        // hit key → first solve's cover hash
	// streamRef hashes the streamed cover's chunk lines, as first served.
	streamRef   [32]byte
	registerMs  []float64
	missPath    string
	dyn         *dynMirror
	missResults []missResult
	missMu      sync.Mutex
}

// missResult is one miss's served output, kept for the library re-solve.
type missResult struct {
	seed       int64
	cover      []int
	passes     int
	spaceWords int64
}

func (e *fleetEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(e.srvs) - 1; i >= 0; i-- {
		e.srvs[i].shutdown(ctx)
	}
	if e.rt != nil {
		e.rt.Shutdown(ctx)
	}
	for _, s := range e.nodes {
		s.Shutdown(ctx)
	}
	for _, c := range e.cats {
		c.Close()
	}
	if e.cl != nil {
		e.cl.CloseIdleConnections()
	}
}

// setupFleet generates the instances, registers them on every node, starts
// the nodes and the router over loopback, and pre-solves the hot, warm and
// streamed keys through the router.
func setupFleet(cfg config, dir string) (*fleetEnv, error) {
	sz := sizesFor(cfg)
	e := &fleetEnv{cfg: cfg, sz: sz, fams: map[string]family{}}
	if cfg.trace {
		e.mw = newMiddleware()
	}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	cacheDir := filepath.Join(dir, "cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	type file struct{ name, path string }
	var files []file
	planted := func(name string, n, m int, seed int64) error {
		g, _, _, err := gen.PlantedFunc(gen.PlantedConfig{N: n, M: m, K: n / 25, Seed: seed})
		if err != nil {
			return err
		}
		e.fams[name] = family{n, m, g}
		path, err := writeFamily(filepath.Join(dir, name+".scb"), e.fams[name], nil)
		if err != nil {
			return err
		}
		files = append(files, file{name, path})
		return nil
	}
	seed := cfg.seed * 1000
	if err := planted("hot", sz.hotN, sz.hotM, seed+1); err != nil {
		return nil, err
	}
	for j := 0; j < sz.warmInstances; j++ {
		if err := planted(fmt.Sprintf("warm-%d", j), sz.hotN, sz.hotM, seed+10+int64(j)); err != nil {
			return nil, err
		}
	}
	if err := planted("miss", sz.missN, sz.missM, seed+2); err != nil {
		return nil, err
	}
	e.missPath = files[len(files)-1].path
	single := func(id int) setcover.Set { return setcover.Set{ID: id, Elems: []setcover.Elem{setcover.Elem(id)}} }
	sp, err := writeFamily(filepath.Join(dir, "singletons.scb"), family{sz.singletons, sz.singletons, single}, nil)
	if err != nil {
		return nil, err
	}
	files = append(files, file{"singletons", sp})
	dynGen, _, _, err := gen.PlantedFunc(gen.PlantedConfig{N: sz.dynN, M: sz.dynM, K: sz.dynN / 25, Seed: seed + 3})
	if err != nil {
		return nil, err
	}
	dynFam := family{sz.dynN, sz.dynM, dynGen}
	dynPath, err := writeFamily(filepath.Join(dir, "dyn.scb"), dynFam, nil)
	if err != nil {
		return nil, err
	}
	e.dyn = &dynMirror{sz: sz, base: dynFam, rng: rand.New(rand.NewSource(cfg.seed)), m: sz.dynM}

	var urls []string
	for k := 0; k < fleetNodes; k++ {
		cat := serve.NewCatalog()
		e.cats = append(e.cats, cat)
		for _, f := range files {
			start := time.Now()
			if _, err := cat.AddFile(f.name, f.path); err != nil {
				return nil, err
			}
			e.registerMs = append(e.registerMs, ms(time.Since(start)))
		}
		if k == 0 {
			if _, err := cat.AddDynamic("dyn", dynPath); err != nil {
				return nil, err
			}
		}
		s := serve.NewServer(cat, serve.Config{CacheSize: sz.nodeCache, CacheDir: cacheDir, MaxQueue: serve.DefaultMaxQueue})
		e.nodes = append(e.nodes, s)
		hs, err := listen(e.mw.wrap("serve", s.Handler()))
		if err != nil {
			return nil, err
		}
		e.srvs = append(e.srvs, hs)
		urls = append(urls, hs.url)
	}
	e.node0 = urls[0]
	if e.rt, err = fleet.NewRouter(fleet.Config{Nodes: urls}); err != nil {
		return nil, err
	}
	hs, err := listen(e.mw.wrap("fleet", e.rt.Handler()))
	if err != nil {
		return nil, err
	}
	e.srvs = append(e.srvs, hs)
	e.rtURL = hs.url
	e.cl = &http.Client{Transport: &http.Transport{MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers}}

	if err := e.presolve(); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

// hitKey returns the instance and seed of hit key k: the hot keys first,
// then the warm ones.
func (e *fleetEnv) hitKey(k int) (inst string, seed int) {
	if k < hotKeys {
		return "hot", k + 1
	}
	k -= hotKeys
	return fmt.Sprintf("warm-%d", k/e.sz.warmSeeds), k%e.sz.warmSeeds + 1
}

func (e *fleetEnv) hitBody(k int, traced bool) []byte {
	inst, seed := e.hitKey(k)
	return solveBody(fmt.Sprintf(`"instance":%q,"algo":"greedy1","seed":%d`, inst, seed), traced)
}

func (e *fleetEnv) hitKeys() int { return hotKeys + e.sz.warmInstances*e.sz.warmSeeds }

func solveBody(fields string, traced bool) []byte {
	if traced {
		fields += `,"trace":true`
	}
	return []byte("{" + fields + "}")
}

const streamFields = `"instance":"singletons","algo":"er14","stream":true`

// presolve solves every hit key and the streamed key once through the
// router, checks each cover against its generator, and keeps its hash as
// the reference later responses must match.
func (e *fleetEnv) presolve() error {
	for k := 0; k < e.hitKeys(); k++ {
		body := e.hitBody(k, false)
		raw, _, err := e.post(e.rtURL+"/v1/solve", body, "")
		if err != nil {
			return err
		}
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			return err
		}
		inst, _ := e.hitKey(k)
		if err := e.checkCover(inst, env.Result); err != nil {
			return fmt.Errorf("presolve %s: %w", body, err)
		}
		e.refs = append(e.refs, coverHash(env.Result.Cover))
	}
	raw, _, err := e.post(e.rtURL+"/v1/solve", solveBody(streamFields, false), "")
	if err != nil {
		return err
	}
	st, err := parseStream(raw)
	if err != nil {
		return err
	}
	var ids []int
	for _, line := range st.chunks {
		var c struct{ Cover []int }
		if err := json.Unmarshal(line, &c); err != nil {
			return err
		}
		ids = append(ids, c.Cover...)
	}
	if len(ids) != e.sz.singletons {
		return fmt.Errorf("presolve stream: %d ids, want %d", len(ids), e.sz.singletons)
	}
	for i, id := range ids {
		if id != i {
			return fmt.Errorf("presolve stream: id %d at position %d", id, i)
		}
	}
	e.streamRef = st.hash
	return nil
}

// envelope is the part of a solve response the benchmark checks.
type envelope struct {
	Result *serve.SolveResult `json:"result"`
	Trace  *serve.SolveTrace  `json:"trace"`
}

// post sends body and reads the whole response; a status other than 200 is
// an error.
func (e *fleetEnv) post(url string, body []byte, reqID string) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(obs.RequestIDHeader, reqID)
	}
	start := time.Now()
	resp, err := e.cl.Do(req)
	if err != nil {
		return nil, 0, err
	}
	ttfb := time.Since(start)
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, ttfb, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, ttfb, fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, raw)
	}
	return raw, ttfb, nil
}

// checkCover checks a served result against the instance's generator.
func (e *fleetEnv) checkCover(inst string, res *serve.SolveResult) error {
	if res == nil || !res.Valid || res.CoverSize != len(res.Cover) {
		return errors.New("missing, invalid or inconsistent result")
	}
	f := e.fams[inst]
	return covers(f.n, res.Cover, f.set)
}

func coverHash(cover []int) [32]byte { return sha256.Sum256(mustJSON(cover)) }

// streamed is a parsed NDJSON solve response.
type streamed struct {
	head   envelope
	chunks [][]byte // the cover chunk lines
	ids    int      // ids across the chunk lines
	size   int      // the trailer's cover_size
	hash   [32]byte // over the chunk lines, as served
}

// parseStream splits an NDJSON response into its envelope, chunk lines and
// trailer. Chunk ids are counted, not decoded: the hash of the lines is
// compared against the reference instead.
func parseStream(raw []byte) (*streamed, error) {
	st := &streamed{}
	h := sha256.New()
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<24)
	eof := false
	for n := 0; sc.Scan(); n++ {
		line := sc.Bytes()
		switch {
		case n == 0:
			if err := json.Unmarshal(line, &st.head); err != nil {
				return nil, fmt.Errorf("stream envelope: %w", err)
			}
		case bytes.HasPrefix(line, []byte(`{"cover":[`)):
			if !bytes.HasSuffix(line, []byte(`]}`)) {
				return nil, errors.New("stream: malformed chunk line")
			}
			if len(line) > len(`{"cover":[]}`) {
				st.ids += bytes.Count(line, []byte(",")) + 1
			}
			h.Write(line)
			st.chunks = append(st.chunks, bytes.Clone(line))
		default:
			var t struct {
				EOF       bool `json:"eof"`
				CoverSize int  `json:"cover_size"`
			}
			if err := json.Unmarshal(line, &t); err != nil || !t.EOF {
				return nil, fmt.Errorf("stream: unexpected line %.80s", line)
			}
			st.size, eof = t.CoverSize, true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !eof {
		return nil, errors.New("stream: no eof trailer")
	}
	h.Sum(st.hash[:0])
	return st, nil
}

// dynMirror is the benchmark's own copy of the dynamic instance: the base
// family (regenerated) plus the sets its writes appended and have not yet
// tombstoned. Each write tombstones the previous write's appends and
// appends as many new sets, so the live family stays the same size and the
// base sets, which hold the planted cover, are never touched.
type dynMirror struct {
	mu   sync.Mutex // serializes writes
	sz   fleetSizes
	base family
	rng  *rand.Rand
	gen  int
	m    int // base sets plus sets ever appended
	// appended holds the live appended sets. Each write replaces the map,
	// so a check can keep the one its write saw.
	appended map[int][]setcover.Elem
}

// nextOps builds the next stationary-churn batch.
func (d *dynMirror) nextOps() (serve.MutateRequest, [][]setcover.Elem) {
	var req serve.MutateRequest
	for id := range d.appended {
		req.Ops = append(req.Ops, serve.MutateOp{Op: "tombstone", ID: &id})
	}
	var sets [][]setcover.Elem
	for a := 0; a < d.sz.appendsPerWrite; a++ {
		elems := d.rng.Perm(d.sz.dynN)[:d.sz.appendElems]
		sort.Ints(elems)
		set := make([]setcover.Elem, len(elems))
		for i, x := range elems {
			set[i] = setcover.Elem(x)
		}
		sets = append(sets, set)
		req.Ops = append(req.Ops, serve.MutateOp{Op: "append", Elems: elems})
	}
	return req, sets
}

// write runs one mutate batch and the delta re-solve that follows it on the
// node that owns the dynamic instance. The returned check runs after the
// window.
func (e *fleetEnv) write(i int, traced bool) func() error {
	d := e.dyn
	d.mu.Lock()
	defer d.mu.Unlock()
	req, sets := d.nextOps()
	raw, _, err := e.post(e.node0+"/v1/instances/dyn/mutate", mustJSON(req), fmt.Sprintf("w%d-mutate", i))
	if err != nil {
		return func() error { return err }
	}
	var mr serve.MutateResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		return func() error { return fmt.Errorf("mutate response: %w", err) }
	}
	// Every op is one generation of the delta log.
	wantGen, wantM := d.gen+len(req.Ops), d.m+len(sets)
	// The mirror follows the server whatever it answered, so one bad write
	// does not fail every later one.
	d.gen, d.m = mr.Generation, mr.M
	live := make(map[int][]setcover.Elem, len(sets))
	for k, s := range sets {
		live[mr.M-len(sets)+k] = s
	}
	d.appended = live
	resolved, _, err := e.post(e.node0+"/v1/solve",
		solveBody(`"instance":"dyn","algo":"dyn","resolve":"delta"`, traced), fmt.Sprintf("w%d-delta", i))
	return func() error {
		if mr.Generation != wantGen || mr.M != wantM {
			return fmt.Errorf("mutate: generation %d, sets %d; want %d, %d", mr.Generation, mr.M, wantGen, wantM)
		}
		if err != nil {
			return err
		}
		var env envelope
		if err := json.Unmarshal(resolved, &env); err != nil {
			return err
		}
		if env.Result == nil || !env.Result.Valid {
			return errors.New("delta re-solve: invalid result")
		}
		// The live family the re-solve saw: the base sets, which writes never
		// tombstone, plus this write's appends.
		err = covers(d.base.n, env.Result.Cover, func(id int) ([]setcover.Elem, bool) {
			if elems, ok := live[id]; ok {
				return elems, true
			}
			return d.base.set(id)
		})
		if err != nil {
			return fmt.Errorf("delta re-solve: %w", err)
		}
		return nil
	}
}

// planned is one scheduled request.
type planned struct {
	class    string
	hitKey   int
	missSeed int64
}

// plan lays out n requests: blocks of mixBlock in the fixed class mix,
// shuffled by the workload seed; hit keys are drawn half hot, half warm.
func (e *fleetEnv) plan(n int, seed int64, missBase int64) []planned {
	rng := rand.New(rand.NewSource(seed))
	block := make([]string, 0, mixBlock)
	for _, c := range []struct {
		class string
		count int
	}{{"hot", mixHot}, {"warm", mixWarm}, {classMiss, mixMiss}, {classStream, mixStream}, {classWrite, mixWrite}} {
		for j := 0; j < c.count; j++ {
			block = append(block, c.class)
		}
	}
	out := make([]planned, 0, n)
	miss := missBase
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, c := range block {
			p := planned{class: c}
			switch c {
			case "hot":
				p.class, p.hitKey = classHit, rng.Intn(hotKeys)
			case "warm":
				p.class, p.hitKey = classHit, hotKeys+rng.Intn(e.hitKeys()-hotKeys)
			case classMiss:
				p.missSeed = miss
				miss++
			}
			out = append(out, p)
		}
	}
	return out[:n]
}

// reqOut is what a traced request's response told the benchmark.
type reqOut struct {
	trace *serve.SolveTrace
	ttfb  time.Duration
	bytes int
}

// window runs one open-loop window at rate for dur.
func (e *fleetEnv) window(rate float64, dur time.Duration, traced bool, missBase int64) (loadStats, []reqOut, []planned) {
	n := max(1, int(rate*dur.Seconds()))
	plan := e.plan(n, e.cfg.seed+missBase, missBase)
	outs := make([]reqOut, n)
	e.mw.enable(traced)
	defer e.mw.enable(false)
	st := openLoop(rate, dur, e.cfg.workers,
		func(i int) string { return plan[i].class },
		func(i int) func() error { return e.do(i, plan[i], traced, &outs[i]) })
	return st, outs, plan
}

// do sends request i and returns the check of its response.
func (e *fleetEnv) do(i int, p planned, traced bool, out *reqOut) func() error {
	reqID := fmt.Sprintf("r%d", i)
	var body []byte
	switch p.class {
	case classWrite:
		return e.write(i, traced)
	case classHit:
		body = e.hitBody(p.hitKey, traced)
	case classMiss:
		body = solveBody(fmt.Sprintf(`"instance":"miss","algo":"iter","delta":0.5,"seed":%d`, p.missSeed), traced)
	case classStream:
		body = solveBody(streamFields, traced)
	}
	raw, ttfb, err := e.post(e.rtURL+"/v1/solve", body, reqID)
	out.ttfb, out.bytes = ttfb, len(raw)
	if err != nil {
		return func() error { return err }
	}
	return func() error {
		if p.class == classStream {
			st, err := parseStream(raw)
			if err != nil {
				return err
			}
			out.trace = st.head.Trace
			if st.ids != st.size || st.hash != e.streamRef {
				return fmt.Errorf("stream: %d ids streamed, trailer says %d, matches first solve: %v",
					st.ids, st.size, st.hash == e.streamRef)
			}
			return nil
		}
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			return err
		}
		out.trace = env.Trace
		if p.class == classHit {
			if env.Result == nil || coverHash(env.Result.Cover) != e.refs[p.hitKey] {
				return fmt.Errorf("hit %s: cover differs from the key's first solve", body)
			}
			return nil
		}
		if err := e.checkCover("miss", env.Result); err != nil {
			return fmt.Errorf("miss seed %d: %w", p.missSeed, err)
		}
		e.missMu.Lock()
		e.missResults = append(e.missResults, missResult{seed: p.missSeed, cover: env.Result.Cover,
			passes: env.Result.Passes, spaceWords: env.Result.SpaceWords})
		e.missMu.Unlock()
		return nil
	}
}

// resolveMisses re-solves a fixed sample of the window's misses — the
// lowest seeds — through the library and compares them byte for byte with
// what the fleet served.
func (e *fleetEnv) resolveMisses(rec *recorder) error {
	sort.Slice(e.missResults, func(i, j int) bool { return e.missResults[i].seed < e.missResults[j].seed })
	d, err := scdisk.Open(e.missPath)
	if err != nil {
		return err
	}
	defer d.Close()
	for _, m := range e.missResults[:min(len(e.missResults), e.sz.missSamples)] {
		d.ResetPasses()
		res, err := core.IterSetCover(d, core.Options{Delta: 0.5, Seed: m.seed, Engine: engine.Options{Workers: e.cfg.workers}})
		if err == nil && (!bytes.Equal(mustJSON(res.Cover), mustJSON(m.cover)) ||
			res.Passes != m.passes || res.SpaceWords != m.spaceWords) {
			err = fmt.Errorf("miss seed %d: served result differs from the library's", m.seed)
		}
		rec.op(err)
	}
	return nil
}

// scrape reads the counters of every node's and the router's /metrics.
func (e *fleetEnv) scrape() (map[string]float64, error) {
	total := map[string]float64{}
	for _, s := range e.srvs {
		resp, err := e.cl.Get(s.url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
				continue
			}
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				total[f[0]] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// runServeFleet is the serve-fleet workload.
func runServeFleet(cfg config, rec *recorder) error {
	e, err := timedSetup(rec, func(rep int) (*fleetEnv, error) {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return setupFleet(cfg, dir)
	}, (*fleetEnv).close)
	if err != nil {
		return err
	}
	defer e.close()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		peak := startHeapSampler()
		st, _, _ := e.window(cfg.rate, dur, false, 0)
		rec.set("peak_heap_mb", peak())
		e.record(rec, st)
		return e.resolveMisses(rec)
	}

	plain, _, _ := e.window(cfg.rate, dur/2, false, 0)
	e.record(rec, plain)
	before, err := e.scrape()
	if err != nil {
		return err
	}
	traced, outs, plan := e.window(cfg.rate, dur/2, true, 1<<20)
	after, err := e.scrape()
	if err != nil {
		return err
	}
	for _, s := range traced.samples {
		rec.op(s.err)
	}
	e.recordLayers(rec, plain, traced, outs, plan, before, after)
	return e.resolveMisses(rec)
}

// record counts a window's outcomes and sets the end-to-end metrics.
func (e *fleetEnv) record(rec *recorder, st loadStats) {
	for _, s := range st.samples {
		rec.op(s.err)
	}
	reads := st.latenciesMs(readClasses...)
	rec.set("run_s", st.wall.Seconds())
	rec.set("req_p50_ms", quantile(reads, 0.5))
	rec.set("req_p99_ms", quantile(reads, 0.99))
	rec.set("achieved_rps", float64(len(st.samples))/st.wall.Seconds())
	var passes, space, covers []float64
	e.missMu.Lock()
	for _, m := range e.missResults {
		passes = append(passes, float64(m.passes))
		space = append(space, float64(m.spaceWords))
		covers = append(covers, float64(len(m.cover)))
	}
	e.missMu.Unlock()
	rec.set("passes", median(passes))
	rec.set("space_words", median(space))
	rec.set("cover_sets", median(covers))

	rec.set("serve.hit_p50_ms", median(st.latenciesMs(classHit)))
	rec.set("serve.miss_p50_ms", median(st.latenciesMs(classMiss)))
	rec.set("serve.stream_p50_ms", median(st.latenciesMs(classStream)))
	rec.set("serve.write_p50_ms", median(st.latenciesMs(classWrite)))
	var late, wait []float64
	for _, s := range st.samples {
		late = append(late, ms(s.late))
		wait = append(wait, ms(s.connWait()))
	}
	rec.set("loadgen.late_p99_ms", quantile(late, 0.99))
	rec.set("loadgen.conn_wait_ms", median(wait))
	rec.set("loadgen.backlog_max", float64(st.backlogMax))
	rec.set("loadgen.cpu_busy_frac", st.cpuBusy)
}

// recordLayers sets serve-fleet's per-layer metrics from the traced window:
// the trace:true envelopes, the /metrics deltas and the middleware spans.
func (e *fleetEnv) recordLayers(rec *recorder, plain, traced loadStats, outs []reqOut, plan []planned,
	before, after map[string]float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("setcoverd_cache_hits_total"), delta("setcoverd_cache_misses_total")
	rec.set("serve.hits", hits)
	rec.set("serve.disk_hits", delta("setcoverd_disk_cache_hits_total"))
	rec.set("serve.misses", misses)
	rec.set("serve.rejected", delta("setcoverd_rejected_total"))
	rec.set("serve.hit_ratio", frac(hits, hits+misses))
	rec.set("fleet.retries", delta("setcoverrt_retries_total"))
	rec.set("fleet.invalidations", delta("setcoverrt_digest_invalidations_total"))

	var queue, lookup, checkout, solve, total, ttfb, respBytes, between, passMs, passes []float64
	var hitSolved, hitN float64
	for i, o := range outs {
		t := o.trace
		if t == nil {
			continue
		}
		lookup = append(lookup, t.LookupMillis)
		total = append(total, t.TotalMillis)
		switch plan[i].class {
		case classHit:
			hitN++
			if t.SolveMillis > 0 || len(t.Passes) > 0 {
				hitSolved++
			}
		case classMiss:
			var pw float64
			for _, p := range t.Passes {
				pw += p.WallMillis
			}
			queue = append(queue, t.QueueMillis)
			checkout = append(checkout, t.CheckoutMillis)
			solve = append(solve, t.SolveMillis)
			between = append(between, t.SolveMillis-pw)
			passMs = append(passMs, pw)
			passes = append(passes, float64(len(t.Passes)))
		case classStream:
			ttfb = append(ttfb, ms(o.ttfb))
			respBytes = append(respBytes, float64(o.bytes))
		}
	}
	rec.set("serve.queue_ms", median(queue))
	rec.set("serve.lookup_ms", median(lookup))
	rec.set("serve.checkout_ms", median(checkout))
	rec.set("serve.solve_ms", median(solve))
	rec.set("serve.total_ms", median(total))
	rec.set("serve.hit_solve_frac", frac(hitSolved, hitN))
	rec.set("serve.stream_ttfb_ms", median(ttfb))
	rec.set("serve.resp_bytes", median(respBytes))
	rec.set("algo.iter-d0.5.solve_ms", median(solve))
	rec.set("algo.iter-d0.5.between_ms", median(between))
	rec.set("engine.pass_ms", median(passMs))
	rec.set("engine.passes", median(passes))

	e.mw.addSpans(rec.spans, traced, plan, outs)
	rec.set("fleet.hop_ms", median(e.mw.hops()))
	rec.set("scdyn.mutate_ms", median(e.mw.durations("serve", "-mutate")))
	rec.set("scdyn.delta_ms", median(e.mw.durations("serve", "-delta")))
	rec.set("scdisk.register_ms", median(e.registerMs))
	rec.set("obs.trace_overhead_pct", 100*(median(traced.latenciesMs(readClasses...))/median(plain.latenciesMs(readClasses...))-1))
	rec.setSelfTimes("loadgen", len(traced.samples))
}

// sweepP99LimitMs is the sweep's latency limit on req_p99_ms.
const sweepP99LimitMs = 250

// runSweep steps serve-fleet's offered rate over one set-up fleet and
// prints the highest rate whose req_p99_ms stays under sweepP99LimitMs
// without a growing backlog or a failed request. It is reported, not gated.
func runSweep(cfg config, w io.Writer) error {
	rec := newRecorder(cfg)
	e, err := setupFleet(cfg, cfg.workDir)
	if err != nil {
		return err
	}
	defer e.close()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	best := 0.0
	for step, rate := range []float64{0.5, 1, 2, 3, 4, 6, 8} {
		rate *= cfg.rate
		st, _, _ := e.window(rate, dur, false, int64(step+1)<<20)
		failed := 0
		for _, s := range st.samples {
			rec.op(s.err)
			if s.err != nil {
				failed++
			}
		}
		p99 := quantile(st.latenciesMs(readClasses...), 0.99)
		ok := p99 <= sweepP99LimitMs && !st.backlogGrowing && failed == 0
		fmt.Fprintf(w, "sweep rate=%g achieved_rps=%.1f req_p50_ms=%.2f req_p99_ms=%.2f cpu_busy_frac=%.2f backlog_max=%d growing=%v failed=%d meets_limit=%v\n",
			rate, float64(len(st.samples))/st.wall.Seconds(), quantile(st.latenciesMs(readClasses...), 0.5), p99,
			st.cpuBusy, st.backlogMax, st.backlogGrowing, failed, ok)
		if !ok {
			break
		}
		best = rate
	}
	fmt.Fprintf(w, "sweep max_rate_under_limit=%g p99_limit_ms=%d\n", best, sweepP99LimitMs)
	if rec.failed > 0 {
		return fmt.Errorf("%d of %d sweep requests failed their check", rec.failed, rec.attempted)
	}
	return nil
}
