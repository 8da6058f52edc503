package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/lease"
)

// serviceLayers is what runService needs from one service workload's stack.
type serviceLayers interface {
	// startWindow and endWindow bracket the timed phases: counter snapshots
	// and the workload's background work (checkpoints) run between them.
	startWindow()
	endWindow()
	// sample records the layer gauges, every gaugeEvery during the open loop.
	sample()
	// verify runs the post-traffic correctness checks; any failure fails the run.
	verify(rep *report, opts options, m *mix) error
	layerMetrics(rep *report, window time.Duration)
	traceMetrics(rep *report, tr *tracer, open *phaseResult)
}

// gaugeEvery is how often the open loop samples occupancy gauges.
const gaugeEvery = 20 * time.Millisecond

// Validity bounds of the open-loop phase. A run past them measured a stack
// that could not keep up with the nominal rate, so its latencies describe a
// queue, not the stack: the run is marked invalid rather than slow. The
// generator counts as behind when its median send is late, not its p99: a
// send waits for a free P, and a P held by a goroutine in a slow fsync is
// only taken back by the runtime's monitor, so single sends can be
// milliseconds late while the schedule as a whole is kept.
const (
	maxGenLateP50 = time.Millisecond
	maxBacklog    = 64
)

// traffic is a service workload's generated input: the steady-state
// population the setup fills and the open-loop schedule that follows it.
type traffic struct {
	pop   *population
	evs   []event
	openD time.Duration
	satD  time.Duration
}

// newTraffic draws the whole input of a run from the seed, before any setup,
// so that the open loop can start as soon as the population is filled.
func newTraffic(opts options, m *mix) *traffic {
	total := time.Duration(opts.seconds) * time.Second
	openD := time.Duration(float64(total) * m.openShare)
	pop := newPopulation(m, rand.New(rand.NewPCG(opts.seed, 0x909)))
	return &traffic{pop: pop, evs: schedule(m, pop, openD, rand.New(rand.NewPCG(opts.seed, 0x0B1))), openD: openD, satD: total - openD}
}

// runService runs the open-loop phase, releases the sessions still held,
// runs the saturation phase, then verifies the stack and fills the metrics.
func runService(opts options, rep *report, m *mix, tf *traffic, api leaseAPI, led *ledger, layers serviceLayers, tr *tracer) error {
	pop, evs, openD, satD := tf.pop, tf.evs, tf.openD, tf.satD
	var counts [numKinds]int
	for _, ev := range evs {
		counts[ev.kind]++
	}
	rep.logf("open loop: nominal %.0f writes/s for %v; sessions arrive at %.1f/s, hold %v mean, TTL %v, renew every %v, %.0f%% abandoned; scheduled %d acquires, %d renews, %d releases, %d reads",
		m.rate, openD, m.arrivals, m.hold.Round(time.Millisecond), m.ttl, m.renewEvery(), m.abandon*100,
		counts[opAcquire], counts[opRenew], counts[opRelease], counts[opRead])

	if tr != nil {
		tr.phase.Store(phaseOpen)
	}
	layers.startWindow()
	stopGauges := ticker(gaugeEvery, layers.sample)
	p0 := snapProc()
	open := runOpenLoop(api, led, evs)
	p1 := snapProc()
	stopGauges()
	if open.err != nil {
		return fmt.Errorf("open loop: %d operations failed, first: %w", open.failed, open.err)
	}
	live := append([]*session(nil), pop.live...)
	for _, ev := range evs {
		if ev.kind == opAcquire {
			live = append(live, ev.s)
		}
	}
	if err := releaseLive(api, led, live, m.inflight); err != nil {
		return err
	}
	if tr != nil {
		tr.phase.Store(phaseSaturate)
	}
	sat := runSaturation(api, led, m, satD, opts.seed)
	layers.endWindow()
	rep.e2e["rss_mb"] = peakRSSMB()
	if sat.err != nil {
		return fmt.Errorf("saturation: %d operations failed, first: %w", sat.failed, sat.err)
	}

	rep.attempted = open.writes() + open.ops[opRead] + sat.writes()
	rep.e2e["ops_s"] = median(sat.rates)
	rep.layer["traced.ops_s"] = rep.e2e["ops_s"]
	rep.logf("saturation: %d closed-loop sessions, %d writes in %v (%.0f ops/s overall; %d acquires, %d renews, %d releases); ops_s %.0f is the median of %d windows of %v",
		m.inflight, sat.writes(), satD, float64(sat.writes())/satD.Seconds(), sat.ops[opAcquire], sat.ops[opRenew], sat.ops[opRelease],
		rep.e2e["ops_s"], len(sat.rates), rateWindow)
	rep.logf("open loop measured (from due time):")
	for k := opKind(0); k < numKinds; k++ {
		if k == opRead && m.readRate == 0 {
			rep.notApplicable("the workload sends no reads", "traced.read_p50_us", "traced.read_p99_us", "gen.samples_read")
			continue
		}
		latencyMetrics(rep, kindNames[k], open.lat[k])
	}
	late := open.late.sorted()
	lateP99, _ := quantile(late, 0.99)
	rep.layer["gen.late_p99_us"] = lateP99
	head, tail := quarterMeans(open.backlog)
	lateP50, _ := quantile(late, 0.50)
	rep.logf("  generator: %d sends, late p50 %.1f us p99 %.1f us; backlog first quarter %.2f, last quarter %.2f ops",
		len(late), lateP50, lateP99, head, tail)
	if lateP50 > us(maxGenLateP50) {
		rep.invalidate("generator fell behind: late p50 %.0f us > %v", lateP50, maxGenLateP50)
	}
	if tail > maxBacklog || tail > 4*head+16 {
		rep.invalidate("backlog grew during the open loop: %.1f -> %.1f queued ops", head, tail)
	}

	if err := layers.verify(rep, opts, m); err != nil {
		return err
	}
	layers.layerMetrics(rep, openD+satD)
	processMetrics(rep, p0, p1, open.writes()+open.ops[opRead])
	rep.logf("  peak rss %.1f MB (setup and timed phases)", rep.e2e["rss_mb"])
	if tr != nil {
		layers.traceMetrics(rep, tr, open)
		rep.logf("  traced end-to-end: ops_s %.0f, acquire p50 %.2f us (compare the untraced run of this seed for tracing overhead)",
			rep.e2e["ops_s"], rep.layer["traced.acquire_p50_us"])
		if err := tr.write(opts.spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}

// quarterMeans returns the mean of the first and of the last quarter of xs.
func quarterMeans(xs []float64) (head, tail float64) {
	q := len(xs) / 4
	if q == 0 {
		return mean(xs), mean(xs)
	}
	return mean(xs[:q]), mean(xs[len(xs)-q:])
}

// leaseMetrics fills the lease.* metrics from two Manager.Stats() readings
// (summed over managers) and the open-loop active-lease samples.
func leaseMetrics(rep *report, s0, s1 lease.Stats, active []float64, capacity int, window time.Duration) {
	rep.layer["lease.active_mean"] = mean(active) / float64(capacity)
	rep.layer["lease.expirations_per_s"] = float64(s1.Expirations-s0.Expirations) / window.Seconds()
	rep.layer["lease.races"] = float64(s1.RenewRaces - s0.RenewRaces + s1.ReleaseRaces - s0.ReleaseRaces)
	rep.layer["lease.orphans"] = float64(s1.OrphansReclaimed - s0.OrphansReclaimed)
	rep.layer["lease.ticks"] = float64(s1.Ticks - s0.Ticks)
	rep.logf("  lease: mean occupancy %.3f of capacity, %.1f expirations/s, %d races, %d orphans, %d expirer ticks",
		rep.layer["lease.active_mean"], rep.layer["lease.expirations_per_s"],
		int(rep.layer["lease.races"]), int(rep.layer["lease.orphans"]), s1.Ticks-s0.Ticks)
}

func addStats(a, b lease.Stats) lease.Stats {
	a.Active += b.Active
	a.Acquires += b.Acquires
	a.Renews += b.Renews
	a.Releases += b.Releases
	a.Expirations += b.Expirations
	a.FailedAcquires += b.FailedAcquires
	a.RenewRaces += b.RenewRaces
	a.ReleaseRaces += b.ReleaseRaces
	a.OrphansReclaimed += b.OrphansReclaimed
	a.Ticks += b.Ticks
	return a
}

// probeMetrics fills the tas.* and core.*_frac metrics from probe statistics.
func probeMetrics(rep *report, ps activity.ProbeStats, scope string) {
	rep.layer["tas.claims_per_get"] = ratio(ps.TotalProbes, ps.Ops)
	rep.layer["tas.claims_max"] = float64(ps.MaxProbes)
	rep.layer["core.backup_frac"] = ratio(ps.BackupOps, ps.Ops)
	rep.layer["core.failed_frac"] = ratio(ps.FailedOps, ps.Ops+ps.FailedOps)
	rep.logf("  tas/core (%s): %d Gets, %.3f claims per Get, worst %d, backup %.4f, failed %.6f",
		scope, ps.Ops, rep.layer["tas.claims_per_get"], ps.MaxProbes, rep.layer["core.backup_frac"], rep.layer["core.failed_frac"])
}

// Per-layer metric groups that whole workloads do not run.
var (
	clusterLayerMetrics = []string{
		"cluster.op_us", "cluster.route_us", "cluster.node_serve_us", "cluster.hops_per_op",
		"cluster.rerouted", "cluster.epoch_bumps",
	}
	walLayerMetrics = []string{
		"wal.append_us", "wal.append_p99_us", "wal.appends_per_sync", "wal.bytes_per_op",
		"wal.checkpoint_ms", "wal.checkpoints",
	}
	serviceLayerMetrics = append(append([]string{
		"shard.steals_per_get", "shard.home_full_frac", "shard.occupancy_spread",
		"lease.active_mean", "lease.expirations_per_s", "lease.races", "lease.orphans", "lease.ticks",
		"server.serve_us", "server.self_us", "server.read_us",
		"wire.rtt_us", "wire.self_us", "wire.server_frames_per_flush", "wire.client_frames_per_flush", "wire.redials",
	}, walLayerMetrics...), clusterLayerMetrics...)
)
