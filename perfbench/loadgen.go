package main

import (
	"slices"
	"sync"
	"syscall"
	"time"
)

// sample is one open-loop request: when it was due, when a connection
// picked it up, and when its response was fully read.
type sample struct {
	i     int
	class string
	due   time.Time
	start time.Time
	done  time.Time
	// late is how far behind schedule the generator issued the request.
	late time.Duration
	err  error
}

func (s sample) latency() time.Duration  { return s.done.Sub(s.due) }
func (s sample) connWait() time.Duration { return s.start.Sub(s.due) }

// loadStats is what one open-loop window produced.
type loadStats struct {
	samples []sample
	// backlogMax is the most requests that were due but not yet picked up
	// by a connection, seen when a request was issued.
	backlogMax int
	// backlogGrowing reports that the second half of the window queued more
	// than the first: the system did not keep up with the offered rate.
	backlogGrowing bool
	wall           time.Duration // first due time to last response
	cpuBusy        float64       // process CPU time over wall × conns
}

// openLoop issues rate×dur requests on a fixed schedule, regardless of how
// fast earlier ones complete, over conns concurrent connections. do runs
// request i and returns when its response is fully read; the check of the
// response happens after do returns, in check, off the clock. Each
// request's latency counts from its due time, so a stall also delays every
// request queued behind it.
func openLoop(rate float64, dur time.Duration, conns int,
	classOf func(i int) string,
	do func(i int) (check func() error),
) loadStats {
	n := max(1, int(rate*dur.Seconds()))
	interval := time.Duration(float64(time.Second) / rate)
	type ticket struct {
		i    int
		due  time.Time
		late time.Duration
	}
	queue := make(chan ticket, n) // sized to the number of sends: never blocks
	samples := make([]sample, n)
	checks := make([]func() error, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range queue {
				s := sample{i: t.i, class: classOf(t.i), due: t.due, late: t.late, start: time.Now()}
				checks[t.i] = do(t.i)
				s.done = time.Now()
				samples[t.i] = s
			}
		}()
	}

	cpu0 := cpuTime()
	first := time.Now().Add(interval)
	var backlogMax int
	var backlog [2]int // summed queue length at issue, per half of the window
	for i := 0; i < n; i++ {
		due := first.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		q := len(queue)
		backlogMax = max(backlogMax, q)
		backlog[2*i/n] += q
		queue <- ticket{i: i, due: due, late: late}
	}
	close(queue)
	wg.Wait()
	st := loadStats{samples: samples, backlogMax: backlogMax}
	for _, s := range samples {
		st.wall = max(st.wall, s.done.Sub(first))
	}
	st.backlogGrowing = backlog[1] > 2*backlog[0]+n/2
	st.cpuBusy = (cpuTime() - cpu0).Seconds() / (st.wall.Seconds() * float64(conns))
	for i, check := range checks {
		if check != nil {
			samples[i].err = check()
		}
	}
	return st
}

// latenciesMs returns the latencies of the samples whose class is in
// classes, in ms.
func (st loadStats) latenciesMs(classes ...string) []float64 {
	var out []float64
	for _, s := range st.samples {
		if slices.Contains(classes, s.class) {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
