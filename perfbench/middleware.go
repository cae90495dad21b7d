package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// middleware is the benchmark's own wrapper around the router's and the
// nodes' Handler()s: while enabled it records each request's handler time
// under its X-Request-ID, which the router passes on to the node, so the
// router hop is the router's time minus the node's. A nil middleware wraps
// nothing, so untraced runs serve the handlers bare.
type middleware struct {
	on atomic.Bool
	mu sync.Mutex
	by map[string][]handled // request id → handler intervals
}

// handled is one handler invocation.
type handled struct {
	layer      string
	start, end time.Time
}

func newMiddleware() *middleware { return &middleware{by: make(map[string][]handled)} }

func (m *middleware) wrap(layer string, h http.Handler) http.Handler {
	if m == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.RequestIDHeader)
		if id == "" || !m.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		m.mu.Lock()
		m.by[id] = append(m.by[id], handled{layer: layer, start: start, end: end})
		m.mu.Unlock()
	})
}

func (m *middleware) enable(on bool) {
	if m != nil {
		m.on.Store(on)
	}
}

// hops returns, per routed request, the router's handler time minus the
// node's, in ms.
func (m *middleware) hops() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []float64
	for _, hs := range m.by {
		var router, node time.Duration
		for _, h := range hs {
			if h.layer == "fleet" {
				router += h.end.Sub(h.start)
			} else {
				node += h.end.Sub(h.start)
			}
		}
		if router > 0 && node > 0 {
			out = append(out, ms(router-node))
		}
	}
	return out
}

// durations returns the handler times of layer for the request ids ending
// in suffix, in ms.
func (m *middleware) durations(layer, suffix string) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []float64
	for id, hs := range m.by {
		if !strings.HasSuffix(id, suffix) {
			continue
		}
		for _, h := range hs {
			if h.layer == layer {
				out = append(out, ms(h.end.Sub(h.start)))
			}
		}
	}
	return out
}

// addSpans records the traced window as spans: one loadgen root per
// request (due time to response read), the router's and the node's handler
// spans under it, and — for solves that ran — the solve phase and its
// passes, laid out inside the node span from the trace envelope's
// durations (the envelope carries durations, not timestamps).
func (m *middleware) addSpans(l *spanLog, st loadStats, plan []planned, outs []reqOut) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range st.samples {
		ids := []string{fmt.Sprintf("r%d", s.i)}
		if plan[s.i].class == classWrite {
			ids = []string{fmt.Sprintf("w%d-mutate", s.i), fmt.Sprintf("w%d-delta", s.i)}
		}
		root := l.add(0, "loadgen", s.class, s.due, s.done, ids[0])
		for _, id := range ids {
			parent := root
			var node *handled
			for k, h := range m.by[id] {
				if h.layer == "fleet" {
					parent = l.add(root, "fleet", "route", h.start, h.end, id)
				} else {
					node = &m.by[id][k]
				}
			}
			if node == nil {
				continue
			}
			nodeSpan := l.add(parent, "serve", "handle", node.start, node.end, id)
			t := outs[s.i].trace
			if t == nil || t.SolveMillis == 0 {
				continue
			}
			at := node.start.Add(msDur(t.LookupMillis + t.QueueMillis))
			solveEnd := at.Add(msDur(t.SolveMillis))
			algo := l.add(nodeSpan, "algo", plan[s.i].class, at, solveEnd, id)
			for _, p := range t.Passes {
				next := at.Add(msDur(p.WallMillis))
				l.add(algo, "engine", fmt.Sprintf("pass-%d", p.Index), at, next, id)
				at = next
			}
		}
	}
}

func msDur(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
