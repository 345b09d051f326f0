package main

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// loadResult is what one timed run observed.
type loadResult struct {
	attempted, failed, wrong int
	lat                      []float64 // ms per completed request (from when it was due, open loop)
	late                     []float64 // ms each open-loop send ran behind its schedule
	busy                     time.Duration
	elapsed                  time.Duration
	steal                    float64 // share of the host's CPU time stolen by the hypervisor during the run
	errs                     map[string]int
}

// rowsPerSec is HMVP output values per second: rows × lanes per
// completed request, over the time spent in requests (closed loop) or
// over the run (open loop).
func (l *loadResult) rowsPerSec(w *spec) float64 {
	done := float64(len(l.lat) * w.rows * w.lanes)
	if w.rate == 0 {
		return done / l.busy.Seconds()
	}
	return done / l.elapsed.Seconds()
}

func (l *loadResult) summary() map[string]any {
	return map[string]any{
		"attempted": l.attempted, "failed": l.failed, "wrong": l.wrong,
		"samples": len(l.lat), "p50_ms": quantile(l.lat, 0.5), "p90_ms": quantile(l.lat, 0.9),
		"p99_ms": quantile(l.lat, 0.99), "late_p99_ms": quantile(l.late, 0.99),
		"elapsed_s": l.elapsed.Seconds(), "host_steal": l.steal, "errors": l.errs, "latencies_ms": l.lat,
	}
}

func (l *loadResult) fail(err error) {
	if errors.Is(err, errWrong) {
		l.wrong++
	} else {
		l.failed++
	}
	if l.errs == nil {
		l.errs = map[string]int{}
	}
	if len(l.errs) < 16 {
		l.errs[err.Error()]++
	}
}

// drive runs the workload's load against tgt for window and checks every
// reply. With rec non-nil each request is recorded as a span.
func drive(w *spec, tgt target, seed int64, window time.Duration, rec *recorder) *loadResult {
	parent := rec.begin("loadgen."+w.name, 0)
	steal0, total0 := hostCPU()
	var l *loadResult
	if w.rate == 0 {
		l = closedLoop(w, tgt, window, rec, parent)
	} else {
		l = openLoop(w, tgt, seed, window, rec, parent)
	}
	steal1, total1 := hostCPU()
	l.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	rec.end(parent, l.attempted, nil)
	return l
}

// closedLoop is one caller that sends its next request when the previous
// one has returned and been verified.
func closedLoop(w *spec, tgt target, window time.Duration, rec *recorder, parent int) *loadResult {
	l := &loadResult{}
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		id := rec.begin(w.call, parent)
		t0 := time.Now()
		reply, err := tgt.call(i)
		d := time.Since(t0)
		rec.end(id, 1, err)
		l.attempted++
		if err == nil {
			err = tgt.check(i, reply)
		}
		if err != nil {
			l.fail(err)
			continue
		}
		l.lat = append(l.lat, ms(d))
		l.busy += d
	}
	l.elapsed = time.Since(start)
	return l
}

// openLoop sends requests on a seeded Poisson schedule of w.rate per
// second, independent of replies, keeping at most nproc in flight. Each
// request is timed from when it was due, so a stall also charges the
// requests queued behind it; replies are verified after the run.
//
// The schedule is a Poisson process conditioned on its count: exactly
// rate×window arrivals at sorted uniform times, so the offered load, and
// with it rows_per_s, does not vary with the seed.
func openLoop(w *spec, tgt target, seed int64, window time.Duration, rec *recorder, parent int) *loadResult {
	rng := rand.New(rand.NewSource(seed + 1))
	n := int(w.rate * window.Seconds())
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	replies := make([]any, n)
	errs := make([]error, n)
	lat := make([]float64, n)
	l := &loadResult{attempted: n, late: make([]float64, n)}
	sem := make(chan struct{}, nproc)
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		at := start.Add(d)
		time.Sleep(time.Until(at))
		sem <- struct{}{}
		l.late[i] = ms(time.Since(at))
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			id := rec.begin(w.call, parent)
			replies[i], errs[i] = tgt.call(i)
			lat[i] = ms(time.Since(at))
			rec.end(id, 1, errs[i])
		}(i, at)
	}
	wg.Wait()
	l.elapsed = time.Since(start)
	for i := range due {
		err := errs[i]
		if err == nil {
			err = tgt.check(i, replies[i])
		}
		if err != nil {
			l.fail(err)
			continue
		}
		l.lat = append(l.lat, lat[i])
	}
	return l
}
