package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// metricSpec is one reported metric. BENCHMARK.json lists the same names,
// units and directions; TestSpecsMatchBenchmarkJSON keeps the two in step.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported with tracing
// off. Every workload reports every one of them, and none is ever 0 on a
// passing run:
//
//   - batch workloads: run_s is the median wall time of one cycle (the
//     workload's fixed list of library calls); a "request" is one library
//     call; passes, space_words and cover_sets are summed over one cycle.
//   - serve-fleet: run_s is the wall time from the first request's due time
//     to the last response; req_* cover every read; passes, space_words and
//     cover_sets are medians over the miss solves, the only requests that
//     run the algorithm.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"req_p50_ms", "ms", "lower"},
	{"req_p99_ms", "ms", "lower"},
	{"achieved_rps", "1/s", "higher"},
	{"passes", "count", "lower"},
	{"space_words", "words", "lower"},
	{"cover_sets", "count", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// batchAlgos names every algorithm a batch workload times; each gets a
// solve_ms and a between_ms per-layer metric.
var batchAlgos = []string{
	"iter-d0.5", "iter-d0.25", "dimv14", "greedy1", "greedy1-weighted", "pd", "dyn",
	"greedyn", "threshold", "sg09", "cw16", "er14",
}

// selfLayers are the layers a traced run attributes self time to.
var selfLayers = []string{"loadgen", "fleet", "serve", "algo", "offline", "engine", "oracle"}

// perLayer are the metrics of single layers, reported by a traced run. A
// metric a workload does not exercise reads 0 there. Batch values are per
// cycle; serve values are medians per request unless named as counts.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"fail_frac", "ratio", "lower"},
		{"scdisk.scan_ms", "ms", "lower"},
		{"scdisk.scan_w1_ms", "ms", "lower"},
		{"scdisk.pool_locks", "count", "lower"},
		{"scdisk.bytes", "bytes", "lower"},
		{"scdisk.register_ms", "ms", "lower"},
		{"engine.passes", "count", "lower"},
		{"engine.pass_ms", "ms", "lower"},
		{"engine.pass_frac", "ratio", "lower"},
		{"engine.elems", "count", "lower"},
		{"engine.segmented_frac", "ratio", "higher"},
		{"engine.observe_ms", "ms", "lower"},
		{"offline.solve_ms", "ms", "lower"},
		{"offline.calls", "count", "lower"},
		{"offline.sub_sets", "count", "lower"},
		{"algo.between_frac", "ratio", "lower"},
	}
	for _, a := range batchAlgos {
		specs = append(specs,
			metricSpec{"algo." + a + ".solve_ms", "ms", "lower"},
			metricSpec{"algo." + a + ".between_ms", "ms", "lower"})
	}
	specs = append(specs, []metricSpec{
		{"serve.queue_ms", "ms", "lower"},
		{"serve.lookup_ms", "ms", "lower"},
		{"serve.checkout_ms", "ms", "lower"},
		{"serve.solve_ms", "ms", "lower"},
		{"serve.total_ms", "ms", "lower"},
		{"serve.hits", "count", "higher"},
		{"serve.disk_hits", "count", "lower"},
		{"serve.misses", "count", "lower"},
		{"serve.rejected", "count", "lower"},
		{"serve.hit_ratio", "ratio", "higher"},
		{"serve.hit_solve_frac", "ratio", "lower"},
		{"serve.stream_ttfb_ms", "ms", "lower"},
		{"serve.resp_bytes", "bytes", "lower"},
		{"serve.hit_p50_ms", "ms", "lower"},
		{"serve.miss_p50_ms", "ms", "lower"},
		{"serve.stream_p50_ms", "ms", "lower"},
		{"serve.write_p50_ms", "ms", "lower"},
		{"fleet.hop_ms", "ms", "lower"},
		{"fleet.retries", "count", "lower"},
		{"fleet.invalidations", "count", "lower"},
		{"scdyn.mutate_ms", "ms", "lower"},
		{"scdyn.delta_ms", "ms", "lower"},
		{"loadgen.late_p99_ms", "ms", "lower"},
		{"loadgen.conn_wait_ms", "ms", "lower"},
		{"loadgen.backlog_max", "count", "lower"},
		{"loadgen.cpu_busy_frac", "ratio", "lower"},
		{"obs.trace_overhead_pct", "%", "lower"},
		{"trace.unattributed_frac", "ratio", "lower"},
	}...)
	for _, l := range selfLayers {
		specs = append(specs, metricSpec{"self." + l + "_ms", "ms", "lower"})
	}
	return specs
}()

// recorder collects one run's operation outcomes, metric values and spans.
type recorder struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	values    map[string]float64
	spans     *spanLog
	log       func(format string, args ...any)
}

// maxLoggedFailures bounds how many failed checks a run describes on
// standard error; all of them are counted.
const maxLoggedFailures = 10

func newRecorder(cfg config) *recorder {
	return &recorder{
		values: make(map[string]float64),
		spans:  newSpanLog(cfg.trace),
		log:    func(format string, args ...any) { fmt.Fprintf(cfg.log, format+"\n", args...) },
	}
}

// op counts one attempted operation; a non-nil err is a failed output check.
func (r *recorder) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= maxLoggedFailures {
			r.log("perfbench: check failed: %v", err)
		}
	}
}

// set records a metric value.
func (r *recorder) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

// result assembles the output line: every end-to-end metric, or every
// per-layer one when traced. An end-to-end metric that was not measured, or
// reads 0, is a benchmark bug and fails the run.
func (r *recorder) result(traced bool) (*result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	specs := endToEnd
	if traced {
		specs = perLayer
		r.values["fail_frac"] = float64(r.failed) / float64(r.attempted)
	}
	res := &result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(specs)),
	}
	var missing []string
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !traced && (!ok || v == 0 || math.IsNaN(v)) {
			missing = append(missing, s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(missing) > 0 && res.Correct {
		return nil, fmt.Errorf("end-to-end metrics not measured: %s", strings.Join(missing, ", "))
	}
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
