// Command perfbench is the repository's end-to-end benchmark: one program
// that drives every layer of the system from outside, through the public
// functions and hooks each layer already accepts, and checks every output it
// times.
//
// Three workloads:
//
//	batch-paper  closed loop, one caller: the paper's algorithm (iter) and its
//	             greedy-family baselines on a planted SCB1 file
//	batch-scan   closed loop, one caller: pass-bound baselines on the
//	             byte-skewed family, alternating readat and mmap handles
//	serve-fleet  open loop at a fixed offered rate: an in-process fleet.Router
//	             in front of three serve.Server nodes over loopback
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//	perfbench --workload serve-fleet --sweep --seconds S
//	perfbench compare A.json B.json
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics
// with tracing off; --trace 1 reports the per-layer metrics from a run that
// records spans at every layer boundary (written under --trace-dir when the
// run ends). Any output that fails its check makes the run exit 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's parameters, fixed by the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	traceDir string
	// workers is the engine parallelism of the batch workloads and the
	// serve-fleet client connection count: the machine's CPU count.
	workers int
	// rate is serve-fleet's offered load in requests per second.
	rate float64
	// sweep steps serve-fleet's offered rate instead of measuring one rate.
	sweep bool
	// tiny shrinks every workload's inputs; the package tests use it.
	tiny bool
	log  io.Writer
}

// defaultRate is serve-fleet's offered load. It keeps the 2-CPU machine the
// benchmark was sized on about a sixth busy, so the open loop stays valid
// while the shared host runs two to three times slower.
const defaultRate = 100

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{log: stderr, workers: runtime.NumCPU(), rate: defaultRate}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.workDir, "work-dir", filepath.Join(".bench_build", "work"), "directory for generated inputs")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	fs.BoolVar(&cfg.sweep, "sweep", false, "serve-fleet: step the offered rate, --seconds per step, and report the highest rate meeting the req_p99_ms limit")
	out := fs.String("out", "", "also write the result with its provenance to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	cfg.trace = *traceFlag == 1
	wl, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", cfg.workload, workloadNames())
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	prov := provenanceNow(cfg)
	fmt.Fprintf(stdout, "provenance %s\n", mustJSON(prov))

	if cfg.sweep {
		if cfg.workload != "serve-fleet" {
			fmt.Fprintln(stderr, "perfbench: --sweep applies to serve-fleet only")
			return 2
		}
		if err := runSweep(cfg, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	res, err := runWorkload(wl, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		rec := savedResult{Provenance: prov, Trace: cfg.trace, Result: res}
		if err := os.WriteFile(*out, append(mustJSON(rec), '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", mustJSON(res))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed their output check\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runWorkload sets up, measures and checks one workload, and assembles the
// result line: the end-to-end metrics or, traced, the per-layer ones.
func runWorkload(wl workloadFunc, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	rec := newRecorder(cfg)
	if err := wl(cfg, rec); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := rec.spans.writeFile(cfg); err != nil {
			return nil, err
		}
	}
	return rec.result(cfg.trace)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance identifies where and how a result was recorded; compare refuses
// to put results from different CPU counts side by side.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	Modified   bool    `json:"modified,omitempty"`
	Rate       float64 `json:"rate,omitempty"`
	Recorded   string  `json:"recorded"`
}

func provenanceNow(cfg config) provenance {
	p := provenance{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown",
		Recorded: time.Now().UTC().Format(time.RFC3339),
	}
	if cfg.workload == "serve-fleet" {
		p.Rate = cfg.rate
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// savedResult is what --out writes and compare reads.
type savedResult struct {
	Provenance provenance `json:"provenance"`
	Trace      bool       `json:"trace"`
	Result     *result    `json:"result"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value marshalled here is plain data
	}
	return b
}
