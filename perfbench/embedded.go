package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray"
)

// embedded-churn: the paper's setting. A LevelArray with the paper defaults
// (slot probes, epsilon 1) holds ~90% of its capacity; two goroutines cycle
// their handles round-robin, Free then Get, so every name is eventually
// released, and one of them scans the array with Collect once per ms.
const (
	embCapacity = 65536
	// embFillPct is the held share of capacity. At 90% the batch layout makes
	// a Get take tens of claims and sends a few percent of Gets to the backup
	// array; the benchmark reports that rather than pick a kinder fill.
	embFillPct      = 90
	embWorkers      = 2
	embCollectEvery = time.Millisecond
	// embSampleEvery is the latency sampling stride in steps: timing every
	// call would add clock reads to a sub-microsecond operation, and keeping
	// every sample would make the benchmark's memory the run's peak RSS.
	embSampleEvery = 256
	// embCheckEvery is how many steps run between clock and stop checks.
	embCheckEvery = 32
)

// embStack is one built embedded-churn array with its held handles.
type embStack struct {
	arr     *levelarray.LevelArray
	handles []levelarray.Handle
	owner   []atomic.Int32 // per-name owner: handle index + 1, 0 when free
}

func buildEmbedded(seed uint64) (*embStack, error) {
	arr, err := levelarray.New(levelarray.Config{Capacity: embCapacity, Seed: seed})
	if err != nil {
		return nil, err
	}
	st := &embStack{arr: arr, owner: make([]atomic.Int32, arr.Size())}
	held := embCapacity * embFillPct / 100
	st.handles = make([]levelarray.Handle, held)
	for i := range st.handles {
		h := arr.Handle()
		name, err := h.Get()
		if err != nil {
			return nil, fmt.Errorf("fill get %d: %w", i, err)
		}
		if !st.owner[name].CompareAndSwap(0, int32(i+1)) {
			return nil, fmt.Errorf("fill: name %d granted twice", name)
		}
		st.handles[i] = h
	}
	return st, nil
}

// embWorker is one churn goroutine's state and results.
type embWorker struct {
	order []int // handle indices in this worker's seeded churn order
	ops   atomic.Uint64
	err   error

	acquire, release, cycle *samples // sampled latencies, us

	// collect side (worker 0 only)
	collects *samples // us
	late     *samples // us behind the 1 ms schedule

	// traced run: every call is timed, one in embSampleEvery kept
	getT, freeT, stepT             []float64 // us
	getTotal, freeTotal, stepTotal time.Duration
	traced                         uint64
	claimsMax                      int
}

// embSamplesPerSecond is the room one worker's latency buffers get per second
// of run, above the one-in-embSampleEvery samples a 2-vCPU machine takes.
// Sizing them up front keeps their growth from setting the run's peak memory.
const embSamplesPerSecond = 8192

func newEmbWorker(seconds int) *embWorker {
	n := seconds * embSamplesPerSecond
	return &embWorker{acquire: newSamples(n), release: newSamples(n), cycle: newSamples(n), collects: &samples{}, late: &samples{}}
}

func runEmbedded(opts options, rep *report) error {
	st, err := setupTimes(rep, func() (*embStack, error) { return buildEmbedded(opts.seed) }, func(*embStack) {})
	if err != nil {
		return err
	}
	rep.logf("embedded-churn: capacity %d, %d handles held (%d%%), size %d, %d goroutines, collect every %v",
		embCapacity, len(st.handles), embFillPct, st.arr.Size(), embWorkers, embCollectEvery)

	gen := rand.New(rand.NewPCG(opts.seed, 0xE3B))
	workers := make([]*embWorker, embWorkers)
	for w := range workers {
		workers[w] = newEmbWorker(opts.seconds)
	}
	for _, i := range gen.Perm(len(st.handles)) {
		w := workers[i%embWorkers]
		w.order = append(w.order, i)
	}
	before := probeTotals(st.handles)

	var stop atomic.Bool
	var wg sync.WaitGroup
	window := time.Duration(opts.seconds) * time.Second
	stopRates := make(chan struct{})
	rates := sampleRates(func() uint64 {
		var n uint64
		for _, wk := range workers {
			n += wk.ops.Load()
		}
		return n
	}, stopRates)
	p0 := snapProc()
	start := time.Now()
	for w, wk := range workers {
		wg.Add(1)
		go func(w int, wk *embWorker) {
			defer wg.Done()
			wk.err = st.churn(wk, w == 0, opts.trace, start, &stop)
			if wk.err != nil {
				stop.Store(true)
			}
		}(w, wk)
	}
	time.Sleep(window)
	close(stopRates)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	p1 := snapProc()
	rep.e2e["rss_mb"] = peakRSSMB()
	windowRates := <-rates
	for _, wk := range workers {
		if wk.err != nil {
			return wk.err
		}
	}
	after := probeTotals(st.handles)

	// Quiesced: the scan must now equal the held set exactly.
	if err := st.checkQuiesced(); err != nil {
		return err
	}

	var ops uint64
	acq, rel, cyc, reads, late := &samples{}, &samples{}, &samples{}, &samples{}, &samples{}
	for _, wk := range workers {
		ops += wk.ops.Load()
		acq.merge(wk.acquire)
		rel.merge(wk.release)
		cyc.merge(wk.cycle)
		reads.merge(wk.collects)
		late.merge(wk.late)
	}
	rep.attempted = ops
	rep.e2e["ops_s"] = median(windowRates)
	rep.layer["traced.ops_s"] = rep.e2e["ops_s"]
	rep.logf("closed loop: %d Get+Free calls in %v (%.0f ops/s overall); ops_s %.0f is the median of %d windows of %v",
		ops, elapsed.Round(time.Millisecond), float64(ops)/elapsed.Seconds(), rep.e2e["ops_s"], len(windowRates), rateWindow)
	latencyMetrics(rep, "acquire", acq)
	latencyMetrics(rep, "renew", cyc)
	latencyMetrics(rep, "release", rel)
	latencyMetrics(rep, "read", reads)
	lateV := late.sorted()
	lateP99, _ := quantile(lateV, 0.99)
	rep.layer["gen.late_p99_us"] = lateP99
	rep.logf("  collect schedule: %d scans, late p99 %.1f us", len(lateV), lateP99)

	d := after.minus(before)
	rep.layer["tas.claims_per_get"] = ratio(d.TotalProbes, d.Ops)
	rep.layer["core.backup_frac"] = ratio(d.BackupOps, d.Ops)
	rep.layer["core.failed_frac"] = ratio(d.FailedOps, d.Ops+d.FailedOps)
	rep.logf("  tas: %.2f claims per Get over %d Gets; core: backup %.4f, failed %.6f",
		rep.layer["tas.claims_per_get"], d.Ops, rep.layer["core.backup_frac"], rep.layer["core.failed_frac"])
	if d.FailedOps > 0 {
		return fmt.Errorf("%d Gets returned ErrFull below capacity", d.FailedOps)
	}
	processMetrics(rep, p0, p1, ops)
	rep.logf("  peak rss %.1f MB (setup and timed phase)", rep.e2e["rss_mb"])

	if opts.trace {
		embTraceReport(rep, workers, reads)
	}
	rep.notApplicable("embedded-churn runs no service layer", serviceLayerMetrics...)
	return nil
}

// churn runs one worker's Free-then-Get cycle over its handles until stop.
func (st *embStack) churn(wk *embWorker, collector, traced bool, start time.Time, stop *atomic.Bool) error {
	var (
		buf         []int
		nextCollect = start.Add(embCollectEvery)
		step        uint64
	)
	for {
		for _, i := range wk.order {
			step++
			if step%embCheckEvery == 0 {
				if stop.Load() {
					return nil
				}
				if collector {
					now := time.Now()
					if !now.Before(nextCollect) {
						var err error
						if buf, err = st.collect(wk, buf, now.Sub(nextCollect)); err != nil {
							return err
						}
						nextCollect = nextCollect.Add(embCollectEvery)
						if now.Sub(nextCollect) > embCollectEvery {
							nextCollect = now.Add(embCollectEvery) // fell a whole period behind: resynchronize
						}
					}
				}
			}
			var err error
			switch {
			case traced:
				err = st.stepTraced(wk, i)
			case step%embSampleEvery == 0:
				err = st.stepSampled(wk, i)
			default:
				err = st.step(i)
			}
			if err != nil {
				return err
			}
			if step%embCheckEvery == 0 {
				wk.ops.Add(2 * embCheckEvery)
			}
		}
	}
}

// step releases handle i's name and registers it again, checking the owner
// table on both sides. The owner is cleared before Free: after Free another
// handle may legitimately win the name at once.
func (st *embStack) step(i int) error {
	h := st.handles[i]
	if err := st.disown(h, i); err != nil {
		return err
	}
	if err := h.Free(); err != nil {
		return fmt.Errorf("free: %w", err)
	}
	name, err := h.Get()
	if err != nil {
		return fmt.Errorf("get: %w", err)
	}
	return st.own(name, i)
}

func (st *embStack) disown(h levelarray.Handle, i int) error {
	name, ok := h.Name()
	if !ok || !st.owner[name].CompareAndSwap(int32(i+1), 0) {
		return fmt.Errorf("handle %d: owner table lost name %d", i, name)
	}
	return nil
}

func (st *embStack) own(name, i int) error {
	if !st.owner[name].CompareAndSwap(0, int32(i+1)) {
		return fmt.Errorf("name %d granted to handle %d while handle %d holds it", name, i, st.owner[name].Load()-1)
	}
	return nil
}

// stepSampled is step with the Free, the Get and the whole cycle timed.
func (st *embStack) stepSampled(wk *embWorker, i int) error {
	h := st.handles[i]
	if err := st.disown(h, i); err != nil {
		return err
	}
	t0 := time.Now()
	if err := h.Free(); err != nil {
		return fmt.Errorf("free: %w", err)
	}
	t1 := time.Now()
	name, err := h.Get()
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("get: %w", err)
	}
	wk.release.add(us(t1.Sub(t0)))
	wk.acquire.add(us(t2.Sub(t1)))
	wk.cycle.add(us(t2.Sub(t0)))
	return st.own(name, i)
}

// stepTraced times every call into the core layer and the whole step, and
// counts each Get's claims.
func (st *embStack) stepTraced(wk *embWorker, i int) error {
	h := st.handles[i]
	t0 := time.Now()
	if err := st.disown(h, i); err != nil {
		return err
	}
	t1 := time.Now()
	if err := h.Free(); err != nil {
		return fmt.Errorf("free: %w", err)
	}
	t2 := time.Now()
	name, err := h.Get()
	t3 := time.Now()
	if err != nil {
		return fmt.Errorf("get: %w", err)
	}
	if c := h.LastProbes(); c > wk.claimsMax {
		wk.claimsMax = c
	}
	err = st.own(name, i)
	t4 := time.Now()
	wk.freeTotal += t2.Sub(t1)
	wk.getTotal += t3.Sub(t2)
	wk.stepTotal += t4.Sub(t0)
	if wk.traced%embSampleEvery == 0 {
		wk.freeT = append(wk.freeT, us(t2.Sub(t1)))
		wk.getT = append(wk.getT, us(t3.Sub(t2)))
		wk.stepT = append(wk.stepT, us(t4.Sub(t0)))
		wk.release.add(us(t2.Sub(t1)))
		wk.acquire.add(us(t3.Sub(t2)))
		wk.cycle.add(us(t3.Sub(t1)))
	}
	wk.traced++
	return err
}

// collect runs one scheduled Collect, timed, and checks what a mid-run scan
// can be checked for without racing concurrent Gets: names ascend and lie
// inside the namespace.
func (st *embStack) collect(wk *embWorker, buf []int, late time.Duration) ([]int, error) {
	t0 := time.Now()
	buf = st.arr.Collect(buf[:0])
	wk.collects.add(us(time.Since(t0)))
	wk.late.add(us(late))
	size := st.arr.Size()
	for j, n := range buf {
		if n < 0 || n >= size || (j > 0 && n <= buf[j-1]) {
			return buf, fmt.Errorf("collect returned name %d out of order or outside [0, %d)", n, size)
		}
	}
	return buf, nil
}

// checkQuiesced compares a Collect against the names the handles hold, with
// no Get or Free in flight.
func (st *embStack) checkQuiesced() error {
	held := make(map[int]bool, len(st.handles))
	for i, h := range st.handles {
		name, ok := h.Name()
		if !ok {
			return fmt.Errorf("handle %d holds no name after churn", i)
		}
		if st.owner[name].Load() != int32(i+1) {
			return fmt.Errorf("owner table disagrees with handle %d on name %d", i, name)
		}
		held[name] = true
	}
	got := st.arr.Collect(nil)
	if len(got) != len(held) {
		return fmt.Errorf("quiesced collect returned %d names, handles hold %d", len(got), len(held))
	}
	for _, n := range got {
		if !held[n] {
			return fmt.Errorf("quiesced collect returned name %d that no handle holds", n)
		}
	}
	return nil
}

func embTraceReport(rep *report, workers []*embWorker, reads *samples) {
	var getT, freeT, stepT []float64
	var getTotal, freeTotal, stepTotal time.Duration
	var calls uint64
	claimsMax := 0
	for _, wk := range workers {
		getT = append(getT, wk.getT...)
		freeT = append(freeT, wk.freeT...)
		stepT = append(stepT, wk.stepT...)
		getTotal += wk.getTotal
		freeTotal += wk.freeTotal
		stepTotal += wk.stepTotal
		calls += wk.traced
		if wk.claimsMax > claimsMax {
			claimsMax = wk.claimsMax
		}
	}
	rep.layer["tas.claims_max"] = float64(claimsMax)
	rep.layer["core.get_ns"] = median(getT) * 1e3
	rep.layer["core.free_ns"] = median(freeT) * 1e3
	rep.layer["core.collect_us"] = median(reads.sorted())
	n := float64(calls)
	stepMean, getMean, freeMean := us(stepTotal)/n, us(getTotal)/n, us(freeTotal)/n
	rep.layer["trace.unattributed_us"] = stepMean - getMean - freeMean
	rep.logf("trace (per Free+Get step, %d steps): step %.4f us = core.free %.4f + core.get %.4f + unattributed %.4f (owner-table checks, clock reads)",
		calls, stepMean, freeMean, getMean, stepMean-getMean-freeMean)
	rep.logf("  core medians: get %.1f ns, free %.1f ns, collect %.1f us; worst Get %d claims",
		rep.layer["core.get_ns"], rep.layer["core.free_ns"], rep.layer["core.collect_us"], claimsMax)
	rep.logf("  traced end-to-end: ops_s %.0f, acquire p50 %.3f us (compare the untraced run for tracing overhead)",
		rep.e2e["ops_s"], rep.layer["traced.acquire_p50_us"])
}

// probeSum is the ProbeStats fields summed over handles.
type probeSum struct{ Ops, TotalProbes, BackupOps, FailedOps uint64 }

func (a probeSum) minus(b probeSum) probeSum {
	return probeSum{a.Ops - b.Ops, a.TotalProbes - b.TotalProbes, a.BackupOps - b.BackupOps, a.FailedOps - b.FailedOps}
}

// probeTotals sums the handles' probe statistics; handles must be quiescent.
func probeTotals(hs []levelarray.Handle) probeSum {
	var s probeSum
	for _, h := range hs {
		ps := h.Stats()
		s.Ops += ps.Ops
		s.TotalProbes += ps.TotalProbes
		s.BackupOps += ps.BackupOps
		s.FailedOps += ps.FailedOps
	}
	return s
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
