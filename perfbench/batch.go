package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	ssc "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/maxcover"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/pd"
	"repro/internal/scdisk"
	"repro/internal/scdyn"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// solveCase is one library call of a batch cycle.
type solveCase struct {
	algo     string // per-layer name: algo.<algo>.*
	weighted bool   // run on the weighted copy of the family
	solve    func(repo stream.Repository, eng engine.Options, off offline.Solver, seed int64) (setcover.Stats, error)
}

// family is a generated set family. The coverage oracle regenerates its
// sets from gen instead of reading them back through the code under test.
type family struct {
	n, m int
	gen  func(id int) setcover.Set
}

// set returns the elements of set id, or false when id names no set.
func (f family) set(id int) ([]setcover.Elem, bool) {
	if id < 0 || id >= f.m {
		return nil, false
	}
	return f.gen(id).Elems, true
}

// batchInputs are a batch workload's opened inputs.
type batchInputs struct {
	// handles are opened over the same family and alternate by cycle.
	handles  []*scdisk.Repo
	weighted *scdisk.Repo // nil when no case needs it
	fam      family
}

func (in *batchInputs) close() {
	for _, d := range in.handles {
		d.Close()
	}
	if in.weighted != nil {
		in.weighted.Close()
	}
}

// batchWorkload is a closed loop with one caller running a fixed list of
// library calls per cycle.
type batchWorkload struct {
	setup func(cfg config, dir string) (*batchInputs, error)
	cases []solveCase
	// verify follows every solve with a VerifyCover pass.
	verify bool
	// nominalCycle is about one cycle's wall time on the 2-CPU machine the
	// benchmark was sized on. It fixes how many cycles a run of --seconds
	// makes, so the cycle list does not depend on how fast this run is.
	nominalCycle time.Duration
}

func iterCase(delta float64) solveCase {
	return solveCase{algo: fmt.Sprintf("iter-d%g", delta),
		solve: func(repo stream.Repository, eng engine.Options, off offline.Solver, seed int64) (setcover.Stats, error) {
			res, err := core.IterSetCover(repo, core.Options{Delta: delta, Seed: seed, Offline: off, Engine: eng})
			return res.Stats, err
		}}
}

func engineOnly(algo string, weighted bool, f func(stream.Repository, engine.Options) (setcover.Stats, error)) solveCase {
	return solveCase{algo: algo, weighted: weighted,
		solve: func(repo stream.Repository, eng engine.Options, _ offline.Solver, _ int64) (setcover.Stats, error) {
			return f(repo, eng)
		}}
}

func greedy1(repo stream.Repository, eng engine.Options) (setcover.Stats, error) {
	return baseline.OnePassGreedy(repo, eng)
}

var batchPaper = batchWorkload{
	setup:        setupPaper,
	nominalCycle: 4 * time.Second,
	cases: []solveCase{
		iterCase(0.5),
		iterCase(0.25),
		{algo: "dimv14", solve: func(repo stream.Repository, eng engine.Options, _ offline.Solver, seed int64) (setcover.Stats, error) {
			return baseline.DIMV14(repo, baseline.DIMV14Options{Delta: 0.5, Seed: seed}, eng)
		}},
		engineOnly("greedy1", false, greedy1),
		engineOnly("greedy1-weighted", true, greedy1),
		engineOnly("pd", false, func(repo stream.Repository, eng engine.Options) (setcover.Stats, error) {
			res, err := pd.BatchedPrimalDual(repo, pd.Options{Engine: eng})
			return res.Stats, err
		}),
		engineOnly("dyn", false, scdyn.Solve),
	},
}

var batchScan = batchWorkload{
	setup:        setupScan,
	verify:       true,
	nominalCycle: 3 * time.Second,
	cases: []solveCase{
		engineOnly("greedyn", false, func(repo stream.Repository, eng engine.Options) (setcover.Stats, error) {
			return baseline.MultiPassGreedy(repo, eng)
		}),
		engineOnly("threshold", false, func(repo stream.Repository, eng engine.Options) (setcover.Stats, error) {
			return baseline.ThresholdGreedy(repo, eng)
		}),
		engineOnly("sg09", false, func(repo stream.Repository, eng engine.Options) (setcover.Stats, error) {
			return maxcover.SahaGetoorSetCover(repo, eng)
		}),
		engineOnly("cw16", false, func(repo stream.Repository, eng engine.Options) (setcover.Stats, error) {
			return baseline.ChakrabartiWirth(repo, 4, eng)
		}),
		engineOnly("er14", false, func(repo stream.Repository, eng engine.Options) (setcover.Stats, error) {
			return baseline.EmekRosen(repo, eng)
		}),
	},
}

// familySize is a batch family's dimensions at full and at test size.
func familySize(cfg config, n, m int) (int, int) {
	if cfg.tiny {
		return n / 10, m / 10
	}
	return n, m
}

// setupPaper writes a planted indexed SCB1 family and a copy with a
// log-uniform SCWT weight section, and opens both with the readat backend.
func setupPaper(cfg config, dir string) (*batchInputs, error) {
	n, m := familySize(cfg, 2000, 12000)
	genSet, _, _, err := gen.PlantedFunc(gen.PlantedConfig{N: n, M: m, K: n / 25, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	ws, err := gen.WeightedSlice(gen.WeightedConfig{Kind: gen.WeightLogUniform, M: m, Lo: 0.05, Hi: 20, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	in := &batchInputs{fam: family{n, m, genSet}}
	plain, err := writeFamily(filepath.Join(dir, "paper.scb"), in.fam, nil)
	if err != nil {
		return nil, err
	}
	weighted, err := writeFamily(filepath.Join(dir, "paper-weighted.scb"), in.fam, ws)
	if err != nil {
		return nil, err
	}
	if in.weighted, err = scdisk.Open(weighted); err != nil {
		return nil, err
	}
	d, err := scdisk.Open(plain)
	if err != nil {
		in.close()
		return nil, err
	}
	in.handles = []*scdisk.Repo{d}
	return in, nil
}

// setupScan writes the byte-skewed family and opens it twice, with the
// readat and the mmap backend.
func setupScan(cfg config, dir string) (*batchInputs, error) {
	n, m := familySize(cfg, 5000, 30000)
	genSet, err := gen.SkewedFunc(gen.SkewedConfig{N: n, M: m, HeavyID: m / 3, LightSize: 16, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	in := &batchInputs{fam: family{n, m, genSet}}
	path, err := writeFamily(filepath.Join(dir, "skewed.scb"), in.fam, nil)
	if err != nil {
		return nil, err
	}
	for _, opts := range [][]scdisk.OpenOption{nil, {scdisk.ReadOnlyMmap()}} {
		d, err := scdisk.Open(path, opts...)
		if err != nil {
			in.close()
			return nil, err
		}
		in.handles = append(in.handles, d)
	}
	return in, nil
}

// writeFamily spills a generated family, with optional weights, to an
// indexed SCB1 file.
func writeFamily(path string, fam family, ws []float64) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w, err := scdisk.NewWriter(f, fam.n, fam.m)
	if err != nil {
		f.Close()
		return "", err
	}
	if ws != nil {
		if err := w.SetWeights(ws); err != nil {
			f.Close()
			return "", err
		}
	}
	for id := 0; id < fam.m; id++ {
		if err := w.WriteSet(fam.gen(id).Elems); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up on a shared host does not move it.
const setupReps = 5

// timedSetup runs setup setupReps times, keeps the last result, closes the
// others, and reports the median wall time.
func timedSetup[T any](rec *recorder, setup func(rep int) (T, error), release func(T)) (T, error) {
	var (
		walls []float64
		last  T
	)
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		v, err := setup(rep)
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		walls = append(walls, time.Since(start).Seconds())
		if rep > 0 {
			release(last)
		}
		last = v
	}
	rec.set("setup_s", median(walls))
	return last, nil
}

// callOut is one timed library call of a cycle.
type callOut struct {
	algo   string
	wall   time.Duration
	st     setcover.Stats
	passes []tracedPass // traced runs only
	// offline is the algOfflineSC time and counts inside this call.
	offline offlineTally
}

// tracedPass is a pass record with the time the engine reported it.
type tracedPass struct {
	obs.PassTrace
	end time.Time
}

// passTally collects a call's pass records from the engine tracer.
type passTally struct{ passes []tracedPass }

func (t *passTally) TracePass(p obs.PassTrace) {
	t.passes = append(t.passes, tracedPass{PassTrace: p, end: time.Now()})
}

// offlineTally is what the timing wrapper around algOfflineSC observed.
type offlineTally struct {
	calls, sets int
	wall        time.Duration
	spans       [][2]time.Time
}

// timedOffline wraps the offline solver iter hands its sub-instances to
// (core.Options.Offline), timing and counting every call.
type timedOffline struct {
	offline.Solver
	tally *offlineTally
}

func (t timedOffline) Solve(in *setcover.Instance) ([]int, error) {
	start := time.Now()
	ids, err := t.Solver.Solve(in)
	end := time.Now()
	t.tally.calls++
	t.tally.sets += len(in.Sets)
	t.tally.wall += end.Sub(start)
	t.tally.spans = append(t.tally.spans, [2]time.Time{start, end})
	return ids, err
}

// coverRef is what a call's output must match across cycles and handles.
type coverRef struct {
	hash       [32]byte
	passes     int
	spaceWords int64
}

func refOf(st setcover.Stats) coverRef {
	h := sha256.New()
	var b [8]byte
	for _, id := range st.Cover {
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		h.Write(b[:])
	}
	r := coverRef{passes: st.Passes, spaceWords: st.SpaceWords}
	h.Sum(r.hash[:0])
	return r
}

// covers is the independent validity oracle: the sets that set returns for
// the cover's ids must cover all n elements.
func covers(n int, cover []int, set func(id int) ([]setcover.Elem, bool)) error {
	seen := make([]bool, n)
	left := n
	for _, id := range cover {
		elems, ok := set(id)
		if !ok {
			return fmt.Errorf("cover holds set %d, which is not in the family", id)
		}
		for _, e := range elems {
			if !seen[e] {
				seen[e] = true
				left--
			}
		}
	}
	if left != 0 {
		return fmt.Errorf("cover of %d sets leaves %d of %d elements uncovered", len(cover), left, n)
	}
	return nil
}

// batchRunner runs cycles of one batch workload.
type batchRunner struct {
	wl   batchWorkload
	cfg  config
	in   *batchInputs
	rec  *recorder
	refs map[string]coverRef
}

// cycle runs every case once on handle h. Traced cycles attach an engine
// tracer and the offline timing wrapper, and record spans.
func (b *batchRunner) cycle(h int, traced bool) ([]callOut, time.Duration, error) {
	d := b.in.handles[h]
	spans := b.rec.spans
	start := time.Now()
	root := 0
	if traced {
		root = spans.add(0, "bench", "cycle", start, start, "")
	}
	var outs []callOut
	for _, c := range b.wl.cases {
		repo := d
		if c.weighted {
			repo = b.in.weighted
		}
		out := callOut{algo: c.algo}
		eng := engine.Options{Workers: b.cfg.workers}
		var off offline.Solver = offline.Greedy{}
		tally := &passTally{}
		if traced {
			eng.Tracer = tally
			off = timedOffline{Solver: offline.Greedy{}, tally: &out.offline}
		}
		repo.ResetPasses()
		callStart := time.Now()
		st, err := c.solve(repo, eng, off, b.cfg.seed)
		callEnd := time.Now()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", c.algo, err)
		}
		out.wall, out.st, out.passes = callEnd.Sub(callStart), st, tally.passes
		b.rec.op(b.check(c.algo, st))
		outs = append(outs, out)
		if traced {
			id := spans.add(root, "algo", c.algo, callStart, callEnd, "")
			addPassSpans(spans, id, out.passes)
			for _, s := range out.offline.spans {
				spans.add(id, "offline", "algOfflineSC", s[0], s[1], "")
			}
		}
		if !b.wl.verify {
			continue
		}
		vt := &passTally{}
		veng := engine.Options{Workers: b.cfg.workers}
		if traced {
			veng.Tracer = vt
		}
		vStart := time.Now()
		covered, n, err := ssc.VerifyCover(d, st.Cover, veng)
		vEnd := time.Now()
		if err != nil {
			return nil, 0, fmt.Errorf("verify %s: %w", c.algo, err)
		}
		if covered != n {
			err = fmt.Errorf("%s: verify pass: cover covers %d of %d elements", c.algo, covered, n)
		}
		b.rec.op(err)
		if traced {
			addPassSpans(spans, spans.add(root, "oracle", "verify-"+c.algo, vStart, vEnd, ""), vt.passes)
		}
		outs = append(outs, callOut{algo: "verify", wall: vEnd.Sub(vStart), passes: vt.passes})
	}
	wall := time.Since(start)
	spans.end(root, start.Add(wall))
	return outs, wall, nil
}

func addPassSpans(l *spanLog, parent int, passes []tracedPass) {
	for _, p := range passes {
		l.add(parent, "engine", fmt.Sprintf("pass-%d", p.Index), p.end.Add(-p.Wall), p.end, "")
	}
}

// check compares a call's output with the reference the first cycle
// recorded; the first cycle's outputs are checked for coverage against the
// generator instead.
func (b *batchRunner) check(algo string, st setcover.Stats) error {
	if !st.Valid {
		return fmt.Errorf("%s: solver reports an invalid cover", algo)
	}
	ref, ok := b.refs[algo]
	if !ok {
		if err := covers(b.in.fam.n, st.Cover, b.in.fam.set); err != nil {
			return fmt.Errorf("%s: %w", algo, err)
		}
		b.refs[algo] = refOf(st)
		return nil
	}
	if got := refOf(st); got != ref {
		return fmt.Errorf("%s: output differs from the first cycle's (cover hash %x vs %x, passes %d vs %d, space %d vs %d)",
			algo, got.hash[:6], ref.hash[:6], got.passes, ref.passes, got.spaceWords, ref.spaceWords)
	}
	return nil
}

// runBatch runs batch-paper and batch-scan.
func runBatch(wl batchWorkload) workloadFunc {
	return func(cfg config, rec *recorder) error {
		in, err := timedSetup(rec, func(rep int) (*batchInputs, error) {
			dir := filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", rep))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			return wl.setup(cfg, dir)
		}, (*batchInputs).close)
		if err != nil {
			return err
		}
		defer in.close()
		b := &batchRunner{wl: wl, cfg: cfg, in: in, rec: rec, refs: make(map[string]coverRef)}

		// The first round, one cycle per handle, warms caches and records
		// the reference outputs.
		for h := range in.handles {
			if _, _, err := b.cycle(h, false); err != nil {
				return err
			}
		}
		// The measured cycles come in whole rounds, so every handle runs
		// equally often.
		rounds := max(1, int(cfg.seconds/wl.nominalCycle.Seconds()/float64(len(in.handles))+0.5))
		if cfg.trace {
			return b.traced(max(1, rounds/2) * len(in.handles))
		}
		return b.untraced(rounds * len(in.handles))
	}
}

// untraced measures the end-to-end metrics over a fixed list of cycles; the
// closed-loop caller's request is one cycle.
func (b *batchRunner) untraced(cycles int) error {
	var walls, passes, space, covers []float64
	calls := 0
	start := time.Now()
	peak := startHeapSampler()
	for i := 0; i < cycles; i++ {
		outs, wall, err := b.cycle(i%len(b.in.handles), false)
		if err != nil {
			return err
		}
		walls = append(walls, ms(wall))
		var p, s, c float64
		for _, o := range outs {
			if o.algo == "verify" {
				continue
			}
			calls++
			p += float64(o.st.Passes)
			s += float64(o.st.SpaceWords)
			c += float64(len(o.st.Cover))
		}
		passes, space, covers = append(passes, p), append(space, s), append(covers, c)
	}
	run := time.Since(start).Seconds()
	b.rec.set("peak_heap_mb", peak())
	b.rec.set("run_s", run)
	b.rec.set("req_p50_ms", quantile(walls, 0.5))
	b.rec.set("req_p99_ms", quantile(walls, 0.99))
	b.rec.set("achieved_rps", float64(calls)/run)
	b.rec.set("passes", median(passes))
	b.rec.set("space_words", median(space))
	b.rec.set("cover_sets", median(covers))
	return nil
}

// traced runs half cycles untraced, for the tracing overhead, and half
// traced, and reports the per-layer metrics per traced cycle.
func (b *batchRunner) traced(half int) error {
	var plain []float64
	for i := 0; i < half; i++ {
		_, wall, err := b.cycle(i%len(b.in.handles), false)
		if err != nil {
			return err
		}
		plain = append(plain, wall.Seconds())
	}

	// Bare scans on every handle, averaged: the cycles use them equally.
	for _, s := range []struct {
		name    string
		workers int
	}{{"scdisk.scan_ms", b.cfg.workers}, {"scdisk.scan_w1_ms", 1}} {
		var total float64
		for _, d := range b.in.handles {
			v, err := bareScan(d, s.workers)
			b.rec.op(err)
			total += v
		}
		b.rec.set(s.name, total/float64(len(b.in.handles)))
	}

	var tracedWalls []float64
	var t struct {
		passes, segmented, elems, bytes, locks float64
		passWall, offWall                      time.Duration
		offCalls, offSets                      float64
		solve, between                         map[string][]float64
	}
	t.solve, t.between = make(map[string][]float64), make(map[string][]float64)
	for i := 0; i < half; i++ {
		h := i % len(b.in.handles)
		locks0 := b.in.handles[h].PoolLockAcquisitions()
		outs, wall, err := b.cycle(h, true)
		if err != nil {
			return err
		}
		t.locks += float64(b.in.handles[h].PoolLockAcquisitions() - locks0)
		tracedWalls = append(tracedWalls, wall.Seconds())
		for _, o := range outs {
			var pw time.Duration
			for _, p := range o.passes {
				pw += p.Wall
				t.passes++
				t.elems += float64(p.Elems)
				t.bytes += float64(p.Bytes)
				if p.Segmented {
					t.segmented++
				}
			}
			t.passWall += pw
			t.offWall += o.offline.wall
			t.offCalls += float64(o.offline.calls)
			t.offSets += float64(o.offline.sets)
			if o.algo != "verify" {
				t.solve[o.algo] = append(t.solve[o.algo], ms(o.wall))
				t.between[o.algo] = append(t.between[o.algo], ms(o.wall-pw))
			}
		}
	}
	per := float64(half)
	runMs := 1000 * sum(tracedWalls) / per
	var between float64
	for algo, xs := range t.between {
		b.rec.set("algo."+algo+".solve_ms", median(t.solve[algo]))
		b.rec.set("algo."+algo+".between_ms", median(xs))
		between += sum(xs) / per
	}
	b.rec.set("algo.between_frac", frac(between, runMs))
	b.rec.set("scdisk.pool_locks", t.locks/per)
	b.rec.set("scdisk.bytes", t.bytes/per)
	b.rec.set("engine.passes", t.passes/per)
	b.rec.set("engine.pass_ms", ms(t.passWall)/per)
	b.rec.set("engine.pass_frac", frac(ms(t.passWall)/per, runMs))
	b.rec.set("engine.elems", t.elems/per)
	b.rec.set("engine.segmented_frac", frac(t.segmented, t.passes))
	b.rec.set("engine.observe_ms", (ms(t.passWall)-t.passes*b.rec.values["scdisk.scan_ms"])/per)
	b.rec.set("offline.solve_ms", ms(t.offWall)/per)
	b.rec.set("offline.calls", t.offCalls/per)
	b.rec.set("offline.sub_sets", t.offSets/per)
	b.rec.set("obs.trace_overhead_pct", 100*(median(tracedWalls)/median(plain)-1))
	b.rec.setSelfTimes("bench", half)
	return nil
}

// scanReps is how many bare passes a scan timing takes the median of.
const scanReps = 15

// bareScan times a count-only pass — the decode and delivery cost with no
// algorithmic work — and returns the median over scanReps passes in ms.
func bareScan(d *scdisk.Repo, workers int) (float64, error) {
	eng := engine.New(engine.Options{Workers: workers})
	var walls []float64
	for i := 0; i < scanReps; i++ {
		var sets int
		start := time.Now()
		err := eng.Run(d, engine.Func(func(batch []setcover.Set) { sets += len(batch) }))
		walls = append(walls, ms(time.Since(start)))
		if err == nil && sets != d.NumSets() {
			err = fmt.Errorf("bare scan delivered %d of %d sets", sets, d.NumSets())
		}
		if err != nil {
			return 0, err
		}
	}
	return median(walls), nil
}

// startHeapSampler samples the live heap — the heap the last garbage
// collection found reachable — every heapSampleEvery until the returned
// function is called, which reports the peak in MB. Reachable bytes depend
// on what the program holds, not on when collections happen to run, so the
// peak repeats from run to run. It collects first, so the peak belongs to
// the measured window; runtime/metrics reads do not stop the world.
func startHeapSampler() func() float64 {
	runtime.GC()
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				done <- float64(peak) / (1 << 20)
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

const heapSampleEvery = 10 * time.Millisecond
