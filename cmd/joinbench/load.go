package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/serve"
)

// op is one request (serve workloads) or one analysis (analyze): when it
// was due, when it ran, what came back, and what checking it found.
type op struct {
	index    int
	measured bool
	// traced ops carry the traced run's extra recording: half the
	// measured ops of a -trace 1 run, so the untraced half gives the
	// baseline trace.overhead_ratio divides by.
	traced bool
	due    time.Time
	end    time.Time
	// lateness is how late the open-loop dispatcher issued the op, or in
	// the closed loop how long the caller idled since its previous op.
	lateness time.Duration
	// wall is the time spent inside the call under test, the HTTP handler
	// or cli.Run; cpu is the process CPU time used meanwhile.
	wall time.Duration
	cpu  time.Duration
	// rss is the process's resident set size in MiB when the op returned.
	rss    float64
	status int
	body   []byte
	stderr string
	err    error
	// Filled by the workload's collect and check steps.
	resp    *serve.Response
	metrics *obs.Snapshot
}

func (o *op) latency() time.Duration { return o.end.Sub(o.due) }

// target is one workload's system under test, built by setup.
type target interface {
	// prime readies caches before the warm-up schedule starts.
	prime() error
	// do runs one op, filling status, body and wall.
	do(o *op)
	// collect runs after the op's latency is stamped: untimed follow-up
	// work such as reading the CLI's -metrics-out file.
	collect(o *op)
	// check verifies a finished op against the expected answers.
	check(o *op) error
	// sanity fails when the measured ops no longer stress the layer the
	// workload exists for.
	sanity(measured []*op) error
	// rotation is how many consecutive ops visit every input once.
	rotation() int
	// counters reads the program's cumulative counters, nil when it keeps
	// none across ops.
	counters() map[string]int64
	// layers computes the per-layer metrics of a traced run from its ops
	// and from replays of each layer's public calls on the same inputs. It
	// fails, naming the gap, when the reconciliation or sanity checks do.
	layers(ops []*op, win *window, cfg config) (map[string]float64, error)
}

// window brackets the measured part of a run: ops due in [start, end)
// are measured, and the allocation and counter readings are taken when
// the first measured op is issued and after the last one finishes.
type window struct {
	start, end     time.Time
	lastEnd        time.Time
	marked         bool
	allocBefore    uint64
	allocAfter     uint64
	countersBefore map[string]int64
	countersAfter  map[string]int64
}

// mark takes the window-start readings; only the first call counts.
func (w *window) mark(t target) {
	if w.marked {
		return
	}
	w.marked = true
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.allocBefore = ms.TotalAlloc
	w.countersBefore = t.counters()
}

// finish takes the window-end readings once every op has returned.
func (w *window) finish(t target, ops []*op) {
	w.mark(t)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.allocAfter = ms.TotalAlloc
	w.countersAfter = t.counters()
	for _, o := range ops {
		if o.measured && o.end.After(w.lastEnd) {
			w.lastEnd = o.end
		}
	}
}

// counterDelta is how far a counter moved across the window.
func (w *window) counterDelta(name string) int64 {
	return w.countersAfter[name] - w.countersBefore[name]
}

// Ops run one at a time, on a single worker, so the process CPU time
// that passes while an op runs is that op's own: its goroutines, its
// share of garbage collection, and nothing another op did. CPU time also
// leaves out the time other tenants of a shared machine take from it,
// which wall-clock latency cannot.

// runOp runs one op and stamps its end and CPU time, then runs the
// untimed follow-up.
func runOp(t target, o *op) {
	cpu := processCPU()
	t.do(o)
	o.end = time.Now()
	o.cpu = processCPU() - cpu
	o.rss = residentMiB()
	t.collect(o)
}

// residentMiB is the process's resident set size (the second field of
// /proc/self/statm, in pages), or 0 when it cannot be read.
func residentMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// processCPU is the CPU time, user and system, the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// driveOpen issues ops on a fixed schedule, rate per second, for warmup
// plus dur. Each op's latency runs from its due time, so a slow op delays
// every op queued behind it; the dispatcher records how late it issued
// each op.
func driveOpen(t target, rate float64, warmup, dur time.Duration, trace bool) ([]*op, *window, error) {
	interval := time.Duration(float64(time.Second) / rate)
	ops := make([]*op, int((warmup+dur)/interval))
	jobs := make(chan *op, len(ops)) // sized to the number of sends, so the dispatcher never blocks
	done := make(chan error, 1)
	go func() {
		defer func() { done <- guard.Recovered(recover()) }()
		for o := range jobs {
			runOp(t, o)
		}
	}()

	first := time.Now().Add(10 * time.Millisecond)
	win := &window{start: first.Add(warmup), end: first.Add(warmup + dur)}
	for k := range ops {
		due := first.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := &op{index: k, due: due, lateness: time.Since(due), measured: !due.Before(win.start)}
		o.traced = trace && o.measured && tracedHalf(k)
		if o.measured {
			win.mark(t)
		}
		ops[k] = o
		jobs <- o
	}
	close(jobs)
	if err := <-done; err != nil {
		return nil, nil, fmt.Errorf("load worker: %w", err)
	}
	win.finish(t, ops)
	return ops, win, nil
}

// driveClosed issues each op as soon as the previous one returns, until
// warmup plus dur has elapsed and at least minOps measured ops have
// finished. It stops only after whole rotations of the target's inputs,
// so each input weighs the same however many ops fit the window.
func driveClosed(t target, warmup, dur time.Duration, minOps int, trace bool) (ops []*op, win *window, err error) {
	defer guard.Protect(&err)
	first := time.Now()
	win = &window{start: first.Add(warmup), end: first.Add(warmup + dur)}
	prev, measured := first, 0
	for k := 0; ; k++ {
		now := time.Now()
		if !now.Before(win.end) && measured >= minOps && measured%t.rotation() == 0 {
			break
		}
		o := &op{index: k, due: now, lateness: now.Sub(prev), measured: !now.Before(win.start)}
		o.traced = trace && o.measured && tracedHalf(k)
		if o.measured {
			win.mark(t)
			measured++
		}
		runOp(t, o)
		prev = o.end
		ops = append(ops, o)
	}
	win.finish(t, ops)
	return ops, win, nil
}

// tracedHalf picks the traced half of a traced run's ops: the top bit of
// a Weyl sequence, so every request case of a round-robin pool lands in
// both halves about equally whatever the pool's size.
func tracedHalf(k int) bool { return uint64(k)*0x9E3779B97F4A7C15>>63 == 0 }

// tailOps is how many samples a p90 needs to have ten beyond it.
const tailOps = 100

// percentile returns the nearest-rank q-quantile of ascending samples
// and how many samples lie beyond it.
func percentile(sorted []time.Duration, q float64) (time.Duration, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], n - 1 - idx
}

// sortedDurations copies and sorts durations ascending.
func sortedDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
