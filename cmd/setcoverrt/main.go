// Command setcoverrt routes solve traffic across a fleet of setcoverd
// daemons (internal/fleet, DESIGN.md §8). Requests are routed by instance
// CONTENT DIGEST via rendezvous hashing over the static node list — the same
// digest always lands on the same node while that node lives, concentrating
// each instance's page-cache and result-cache footprint — and fail over to
// the next node in rendezvous order when a node is down or draining. By the
// determinism contract the failover is invisible: every node answers every
// request with byte-identical covers.
//
// Usage:
//
//	setcoverd -addr :8081 -instance big=big.scb -cache-dir /shared/cache &
//	setcoverd -addr :8082 -instance big=big.scb -cache-dir /shared/cache &
//	setcoverd -addr :8083 -instance big=big.scb -cache-dir /shared/cache &
//	setcoverrt -addr :8080 -node http://localhost:8081 \
//	           -node http://localhost:8082 -node http://localhost:8083
//	curl -s -X POST localhost:8080/v1/solve \
//	     -d '{"instance":"big","algo":"iter","delta":0.5}'
//
// Endpoints mirror setcoverd: POST /v1/solve (routed), GET /v1/jobs/{id}
// (searched across nodes — job ids are node-local), GET /v1/instances
// (relayed from the first healthy node), GET /healthz (200 while any node
// serves, with a per-node breakdown), GET /metrics (the router's own
// counters). The X-Fleet-Node response header names the node that answered.
//
// Retry policy: transport errors and 503 (dead or draining node) move to the
// next node, at most -max-attempts nodes per request with -attempt-timeout
// each; 429 relays unchanged (backpressure belongs to the client). A request
// that exhausts every eligible node gets 503
// {"error":{"code":"fleet_exhausted",...}}.
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
	"syscall"
	"time"

	ssc "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

// run starts the router against explicit streams so tests drive the full path
// in-process. When ready is non-nil it receives the router's base URL once
// listening; closing stop triggers the same graceful drain a SIGTERM would.
func run(args []string, stdout, stderr io.Writer, ready chan<- string, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("setcoverrt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr           = fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		attemptTimeout = fs.Duration("attempt-timeout", ssc.DefaultFleetAttemptTimeout, "per-node attempt budget until response headers arrive (must exceed the slowest expected solve)")
		maxAttempts    = fs.Int("max-attempts", 0, "nodes to try per request (0 = every node once)")
		drainTimeout   = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight relays")
		logLevel       = fs.String("log-level", "info", "structured-log threshold (debug, info, warn, error)")
		logJSON        = fs.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
		pprofAddr      = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it off public interfaces)")
	)
	var nodes []string
	fs.Func("node", "backend setcoverd base URL (repeatable; order is irrelevant, membership must match other routers)", func(v string) error {
		nodes = append(nodes, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "setcoverrt:", err)
		return 2
	}

	logger, err := newLogger(stderr, *logLevel, *logJSON)
	if err != nil {
		return fatal(err)
	}

	rt, err := ssc.NewFleetRouter(ssc.FleetConfig{
		Nodes:          nodes,
		MaxAttempts:    *maxAttempts,
		AttemptTimeout: *attemptTimeout,
		Logger:         logger,
	})
	if err != nil {
		return fatal(err)
	}

	// pprof on its own listener, same rationale as setcoverd: profiling never
	// shares a port with routed traffic.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fatal(fmt.Errorf("-pprof-addr: %w", err))
		}
		fmt.Fprintf(stdout, "setcoverrt: pprof on http://%s/debug/pprof/\n", pln.Addr().String())
		pprofServer := newHTTPServer(nil)
		go func() { _ = pprofServer.Serve(pln) }()
		defer pprofServer.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fatal(err)
	}
	url := "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "setcoverrt: routing %d nodes, listening on %s\n", len(nodes), url)
	if ready != nil {
		ready <- url
	}

	httpServer := newHTTPServer(rt.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "setcoverrt: signal received, draining")
	case <-stopChan(stop):
		fmt.Fprintln(stdout, "setcoverrt: stop requested, draining")
	case err := <-serveErr:
		return fatal(err)
	}

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	if err := rt.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "setcoverrt: drain incomplete: %v\n", err)
	}
	if err := httpServer.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "setcoverrt: http shutdown: %v\n", err)
	}
	fmt.Fprintln(stdout, "setcoverrt: drained, bye")
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

// newLogger builds the router's structured logger: text or JSON lines on
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

// stopChan normalizes a possibly-nil stop channel (nil blocks forever).
func stopChan(stop <-chan struct{}) <-chan struct{} {
	if stop == nil {
		return make(chan struct{})
	}
	return stop
}
