// Command setcoverd serves streaming set-cover solves over HTTP: the daemon
// face of the library, built on the serving layer of DESIGN.md §7. Where
// cmd/setcover is one process per solve, setcoverd registers instances once
// (content-digested at registration), then serves concurrent POST /v1/solve
// requests through a bounded queue with an LRU result cache — the paper's
// space/pass trade-off (δ, p, algorithm) selected per request.
//
// Usage:
//
//	scgen -kind planted -n 100000 -m 1000000 -format binary -out big.scb
//	setcoverd -addr :8080 -instance big=big.scb
//	curl -s localhost:8080/v1/instances
//	curl -s -X POST localhost:8080/v1/solve \
//	     -d '{"instance":"big","algo":"iter","delta":0.5}'
//	curl -s localhost:8080/metrics
//
// Endpoints: POST /v1/solve, GET /v1/instances, GET /v1/jobs/{id},
// GET /healthz, GET /metrics. Errors are structured JSON
// ({"error":{"code","message"}}): 429 when the solve queue is full, 502 when
// an instance's storage fails mid-pass (truncated or corrupt SCB1 — the
// solve fails loudly instead of returning a cover computed from a partial
// scan), 422 for infeasible instances.
//
// Instances: -instance name=path registers an SCB1 file (repeatable);
// -dyn name=path registers an SCB1 file as a MUTABLE instance (repeatable):
// POST /v1/instances/{name}/mutate appends or tombstones sets, every
// mutation mints a fresh content digest, and {"algo":"dyn","resolve":"delta"}
// re-solves incrementally from the maintained greedy state. Mutations are
// journaled to path.scdl and replayed (chain-verified) on restart.
//
// SIGINT/SIGTERM drain gracefully: new requests get 503 while in-flight
// solves finish their passes (bounded by -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on DefaultServeMux, served only behind -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ssc "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

// run starts the daemon against explicit streams so tests drive the full
// path in-process. When ready is non-nil it receives the server's base URL
// once listening; closing stop triggers the same graceful drain a SIGTERM
// would. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer, ready chan<- string, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("setcoverd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		maxConcurrent = fs.Int("max-concurrent", 0, "solves running at once (0 = GOMAXPROCS)")
		maxQueue      = fs.Int("queue", ssc.DefaultSolveQueue, "admitted solves waiting beyond the running ones; beyond that POST /v1/solve gets 429 (0 = no waiting room, reject once all solve slots are busy)")
		cacheSize     = fs.Int("cache", 128, "LRU result-cache entries (negative disables)")
		jobHistory    = fs.Int("job-history", 1024, "finished jobs retained for GET /v1/jobs/{id}")
		workers       = fs.Int("workers", 0, "default pass-engine workers PER SOLVE (0 = GOMAXPROCS/max-concurrent, so concurrent solves share the machine)")
		batch         = fs.Int("batch", 0, "default pass-engine batch size (0 = engine default)")
		noSeg         = fs.Bool("no-segmented", false, "default solves to the single-reader decode path")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight solves")
		cacheDir      = fs.String("cache-dir", "", "directory for the persistent result cache (shared fleet-wide when several daemons point at one directory; empty disables)")
		logLevel      = fs.String("log-level", "info", "structured-log threshold (debug, info, warn, error)")
		logJSON       = fs.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
		pprofAddr     = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it off public interfaces)")
	)
	var instances, dyns []string
	fs.Func("instance", "register an SCB1 file as name=path (repeatable; bare path uses the filename as name)", func(v string) error {
		instances = append(instances, v)
		return nil
	})
	fs.Func("dyn", "register an SCB1 file as a MUTABLE instance, name=path (repeatable; delta log journaled to path.scdl)", func(v string) error {
		dyns = append(dyns, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "setcoverd:", err)
		return 2
	}

	// Fail fast on an unusable cache directory: the serving layer would
	// silently degrade to misses, but an operator who ASKED for persistence
	// wants the typo at startup, not a cold cache discovered in production.
	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			return fatal(fmt.Errorf("-cache-dir: %w", err))
		}
	}

	cat := ssc.NewCatalog()
	for _, spec := range instances {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			path = spec
			name = strings.TrimSuffix(strings.TrimSuffix(pathBase(spec), ".scb"), ".bin")
		}
		inst, err := cat.AddFile(name, path)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "registered %s: n=%d m=%d digest=%s\n", inst.Name, inst.N, inst.M, shortDigest(inst.Digest))
	}
	for _, spec := range dyns {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			path = spec
			name = strings.TrimSuffix(strings.TrimSuffix(pathBase(spec), ".scb"), ".bin")
		}
		inst, err := cat.AddDynamic(name, path)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "registered %s (dynamic): n=%d m=%d gen=%d digest=%s\n", inst.Name, inst.N, inst.M, inst.Generation, shortDigest(inst.Digest))
	}
	if cat.Len() == 0 {
		fmt.Fprintln(stderr, "setcoverd: warning: empty catalog (register with -instance or -dyn); every solve will 404")
	}

	logger, err := newLogger(stderr, *logLevel, *logJSON)
	if err != nil {
		return fatal(err)
	}

	srv := ssc.NewServer(cat, ssc.ServerConfig{
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		CacheSize:     *cacheSize,
		JobHistory:    *jobHistory,
		CacheDir:      *cacheDir,
		Engine:        ssc.SolveEngineRequest{Workers: *workers, BatchSize: *batch, DisableSegmented: *noSeg},
		Logger:        logger,
	})

	// pprof rides its OWN listener so profiling never shares a port (or an
	// exposure surface) with the solve API; importing net/http/pprof registers
	// the handlers on http.DefaultServeMux, which nothing else here uses.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fatal(fmt.Errorf("-pprof-addr: %w", err))
		}
		fmt.Fprintf(stdout, "setcoverd: pprof on http://%s/debug/pprof/\n", pln.Addr().String())
		pprofServer := newHTTPServer(nil)
		go func() { _ = pprofServer.Serve(pln) }()
		defer pprofServer.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fatal(err)
	}
	url := "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "setcoverd: listening on %s\n", url)
	if ready != nil {
		ready <- url
	}

	httpServer := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "setcoverd: signal received, draining")
	case <-stopChan(stop):
		fmt.Fprintln(stdout, "setcoverd: stop requested, draining")
	case err := <-serveErr:
		return fatal(err)
	}

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "setcoverd: drain incomplete: %v\n", err)
	}
	if err := httpServer.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "setcoverd: http shutdown: %v\n", err)
	}
	fmt.Fprintln(stdout, "setcoverd: drained, bye")
	return 0
}

// readHeaderTimeout bounds how long a client may take to send a request's
// headers, and idleTimeout how long a keep-alive connection may wait for its
// next request. Neither bounds a request once its headers are in: a
// ReadTimeout or WriteTimeout would cut long solves and NDJSON streams, so
// the servers set none.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds each HTTP server run starts: the API server and the
// pprof server (a nil handler serves http.DefaultServeMux). Tests wrap it to
// inspect the servers run builds.
var newHTTPServer = func(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// newLogger builds the daemon's structured logger: text or JSON lines on
// stderr, gated at level (debug, info, warn, error — slog's spellings).
func newLogger(stderr io.Writer, level string, jsonFmt bool) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if jsonFmt {
		return slog.New(slog.NewJSONHandler(stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(stderr, opts)), nil
}

// shortDigest abbreviates a digest for log lines.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// stopChan normalizes a possibly-nil stop channel (nil blocks forever).
func stopChan(stop <-chan struct{}) <-chan struct{} {
	if stop == nil {
		return make(chan struct{})
	}
	return stop
}

// pathBase is filepath.Base without the import (no OS-specific separators in
// the specs this daemon sees; keeps the flag parsing trivially testable).
func pathBase(p string) string {
	if i := strings.LastIndexAny(p, "/\\"); i >= 0 {
		return p[i+1:]
	}
	return p
}
