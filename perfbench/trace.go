package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded at a layer boundary the benchmark calls
// into. Spans of one served request share ReqID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Start and End are offsets from the start of the run.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	ReqID string        `json:"req_id,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends. When
// tracing is off every method is a no-op, so untraced runs carry no span
// bookkeeping.
type spanLog struct {
	on bool
	t0 time.Time
	mu sync.Mutex
	s  []span
}

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, t0: time.Now()} }

// add records a span and returns its id (0 when tracing is off).
func (l *spanLog) add(parent int, layer, name string, start, end time.Time, reqID string) int {
	if !l.on {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.s) + 1
	l.s = append(l.s, span{ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(l.t0), End: end.Sub(l.t0), ReqID: reqID})
	return id
}

// end sets the end of span id, recorded before its end was known.
func (l *spanLog) end(id int, end time.Time) {
	if !l.on || id == 0 {
		return
	}
	l.mu.Lock()
	l.s[id-1].End = end.Sub(l.t0)
	l.mu.Unlock()
}

// selfTimes returns, per layer, the summed self time of its spans — each
// span's duration minus the part of it its children cover — and the summed
// duration of the root spans.
func (l *spanLog) selfTimes() (self map[string]time.Duration, roots time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range l.s {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots += s.End - s.Start
		}
	}
	self = make(map[string]time.Duration)
	for _, s := range l.s {
		self[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self, roots
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// writeFile writes the spans as JSON lines to
// <trace-dir>/<workload>-seed<seed>.jsonl.
func (l *spanLog) writeFile(cfg config) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.s {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setSelfTimes reports each layer's self time per root span, and the share
// of root time that no layer below the roots accounts for: the self time of
// rootLayer, whose spans are the roots.
func (r *recorder) setSelfTimes(rootLayer string, nRoots int) {
	self, roots := r.spans.selfTimes()
	for _, l := range selfLayers {
		r.set("self."+l+"_ms", ms(self[l])/float64(max(nRoots, 1)))
	}
	r.set("trace.unattributed_frac", frac(float64(self[rootLayer]), float64(roots)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
