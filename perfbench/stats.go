package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail read off fewer samples than this is noise.
const minBeyond = 10

// samples is a concurrency-safe list of measurements. Values are kept raw so
// that percentiles are exact sample values rather than histogram buckets;
// they are stored as float32 to keep the benchmark's own memory out of rss_mb.
type samples struct {
	mu sync.Mutex
	v  []float32
}

func newSamples(capacity int) *samples {
	return &samples{v: make([]float32, 0, capacity)}
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, float32(x))
	s.mu.Unlock()
}

// merge appends o's samples; o must no longer be written.
func (s *samples) merge(o *samples) {
	s.mu.Lock()
	s.v = append(s.v, o.v...)
	s.mu.Unlock()
}

// sorted returns the values in ascending order.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	c := make([]float64, len(s.v))
	for i, x := range s.v {
		c[i] = float64(x)
	}
	s.mu.Unlock()
	sort.Float64s(c)
	return c
}

// quantile returns the nearest-rank q-quantile of sorted values and whether
// at least minBeyond samples lie beyond it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-1-i >= minBeyond
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	v, _ := quantile(c, 0.5)
	return v
}

// latencyMetrics prints the p50, p90 and p99 of one operation kind, and keeps
// the p50 and p99 as the traced run's traced.<kind>_p50_us and
// traced.<kind>_p99_us. Latencies are not gated: on a two-vCPU virtual
// machine shared with other tenants, even the p50 of the routed cluster moved
// by half its median between seeds of one commit. A p90 with fewer than
// minBeyond samples beyond it invalidates the run: its sample is too small to
// trust the median either.
func latencyMetrics(rep *report, kind string, s *samples) {
	v := s.sorted()
	p50, _ := quantile(v, 0.50)
	p90, ok := quantile(v, 0.90)
	if !ok {
		rep.invalidate("%s: %d samples are too few to report its tail", kind, len(v))
	}
	p99, ok99 := quantile(v, 0.99)
	rep.layer["traced."+kind+"_p50_us"] = p50
	rep.layer["traced."+kind+"_p99_us"] = p99
	rep.layer["gen.samples_"+kind] = float64(len(v))
	if len(v) == 0 {
		return
	}
	tail99 := fmt.Sprintf("%.3fus", p99)
	if !ok99 {
		tail99 = "n/a (too few samples)"
	}
	rep.logf("  %-8s n=%-8d p50=%9.3fus p90=%9.3fus p99=%s max=%.3fus",
		kind, len(v), p50, p90, tail99, v[len(v)-1])
}

// rateWindow is the window a closed-loop phase's throughput is read over;
// ops_s is the median window, so one stalled window does not set it.
const rateWindow = 250 * time.Millisecond

// sampleRates reads total every rateWindow until stop is closed and sends the
// rate (per second) of every full window on the returned channel.
func sampleRates(total func() uint64, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var rates []float64
		t := time.NewTicker(rateWindow)
		defer t.Stop()
		last, lastAt := total(), time.Now()
		for {
			select {
			case <-stop:
				out <- rates
				return
			case now := <-t.C:
				n := total()
				rates = append(rates, float64(n-last)/now.Sub(lastAt).Seconds())
				last, lastAt = n, now
			}
		}
	}()
	return out
}

// timer aggregates the durations of one layer's calls: count, total, and a
// bounded set of raw samples for the median. Safe for concurrent use.
type timer struct {
	mu    sync.Mutex
	n     uint64
	total time.Duration
	keep  []float64 // microseconds, every sampleEvery-th call
}

// sampleEvery bounds the memory a busy layer's timer uses for its median.
const sampleEvery = 8

func (t *timer) observe(d time.Duration) {
	t.mu.Lock()
	t.n++
	t.total += d
	if t.n%sampleEvery == 1 {
		t.keep = append(t.keep, float64(d)/1e3)
	}
	t.mu.Unlock()
}

func (t *timer) count() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// totalUS is the summed call time in microseconds.
func (t *timer) totalUS() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.total) / 1e3
}

// medianUS is the median of the kept samples in microseconds.
func (t *timer) medianUS() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.keep)
}

// procSnap is a point-in-time reading of the process counters behind the
// process.* metrics.
type procSnap struct {
	at       time.Time
	cpu      time.Duration
	alloc    uint64
	gcCPU    float64
	totalCPU float64
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a live process cannot fail
	s := make([]metrics.Sample, len(procMetrics))
	copy(s, procMetrics)
	metrics.Read(s)
	return procSnap{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// processMetrics fills the process.* per-layer metrics for ops operations
// completed between two snapshots.
func processMetrics(rep *report, from, to procSnap, ops uint64) {
	if ops == 0 {
		ops = 1
	}
	cpuPerOp := float64(to.cpu-from.cpu) / 1e3 / float64(ops)
	allocPerOp := float64(to.alloc-from.alloc) / float64(ops)
	gcFrac := 0.0
	if d := to.totalCPU - from.totalCPU; d > 0 {
		gcFrac = (to.gcCPU - from.gcCPU) / d
	}
	rep.layer["process.cpu_us_per_op"] = cpuPerOp
	rep.layer["process.alloc_bytes_per_op"] = allocPerOp
	rep.layer["process.gc_cpu_frac"] = gcFrac
	rep.logf("  process: cpu %.3f us/op, alloc %.1f B/op, gc cpu %.4f, window %v",
		cpuPerOp, allocPerOp, gcFrac, to.at.Sub(from.at).Round(time.Millisecond))
}

// peakRSSMB is the process's peak resident set so far in MB (Linux reports
// ru_maxrss in KiB). Workloads read it when their timed phases end, so the
// benchmark's own verification and result analysis afterwards are left out.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a live process cannot fail
	return float64(ru.Maxrss) / 1024
}

// setupReps is how many times a run builds its stack. A build takes well
// under a second, so one stall of the host would set a single reading.
const setupReps = 9

// setupTimes builds a workload's stack setupReps times, keeps the last build
// and tears the others down, and reports the median build time as setup_s.
func setupTimes[T any](rep *report, build func() (T, error), teardown func(T)) (T, error) {
	var (
		keep  T
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC() // every build starts from the same clean heap
		start := time.Now()
		st, err := build()
		if err != nil {
			return keep, fmt.Errorf("setup %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			teardown(st)
		} else {
			keep = st
		}
	}
	rep.e2e["setup_s"] = median(times)
	rep.logf("setup: %d builds, median %.4f s, each %s", setupReps, median(times), fmtFloats(times, "%.4f"))
	runtime.GC() // the torn-down builds' garbage is not the timed phases' to collect
	return keep, nil
}

func fmtFloats(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
