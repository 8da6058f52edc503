package cluster

// The chaos watcher: while RunChaos drives load and kills nodes, one
// goroutine sweeps the live membership on a short cadence. Each sweep reads
// every member's /debug/events and folds unseen events into the cluster
// timeline, which must be assembled while the run is still killing nodes (a
// killed member's in-memory ring dies with it). The same sweep scrapes every
// member's /metrics and verifies that the observability surface tells the
// truth: required families present, counters monotonic per member, the
// failover visible in metrics alone (the quarantine counter moves and every
// adopted partition reappears under a survivor's per-partition gauges), and
// the occupancy gauges agreeing with /stats at the end of the run. At the end
// the timeline is audited too: every epoch bump must carry a cause, and every
// steward reassignment needs a failover decision at its epoch. The watcher is
// an observer only: it never writes to the cluster, and a deployment with
// metrics disabled (404 on the first scrape) turns the metrics half off
// rather than failing the run.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/metrics"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wire"
)

// chaosScrapeInterval is the watcher's cadence: fast enough to catch the
// scrape-mid-kill window of a default chaos run, slow enough to stay
// negligible next to the load itself.
const chaosScrapeInterval = 200 * time.Millisecond

// chaosRequiredFamilies must appear in every healthy member scrape of a
// clustered node. Histograms are checked via their _count series.
var chaosRequiredFamilies = []string{
	"la_ops_total",
	"la_acquire_latency_seconds_count",
	"la_fence_rejections_total",
	"la_unavailable_total",
	"la_cluster_epoch",
	"la_cluster_quarantines_total",
	"la_partition_active",
	"go_goroutines",
}

// chaosWatcher is the sweeper's shared state. One mutex guards it all; the
// sweep, the killer's notes and the final verdict all take it.
type chaosWatcher struct {
	// targets lists the members to sweep, re-read on every sweep so members
	// that join mid-run are swept too; the first initial of them are the
	// members the run started with.
	targets func() []string
	initial int
	hc      *http.Client
	logf    func(format string, args ...any)

	mu sync.Mutex
	// metricsOff is set when /metrics answered 404 on the first scrape.
	metricsOff bool
	scrapes    int
	// missing records required families absent from a healthy scrape.
	missing map[string]bool
	// last holds each member's previous counter values, keyed by series
	// (name plus label set): counters may never decrease on a live member.
	last     map[string]map[string]counterBaseline
	monoViol uint64
	// maxQuarantines is the highest cluster-wide la_cluster_quarantines_total
	// sum any sweep observed.
	maxQuarantines float64
	// midKill holds the quarantine sum seen by the first sweep after each
	// kill — the "failover visible in metrics alone" snapshot.
	midKill     []uint64
	killPending bool
	// watchParts are the partitions kills moved; a partition is satisfied
	// once some still-scrapable member exports its gauges (only owners emit
	// per-partition series, so presence on a survivor proves adoption).
	watchParts map[int]bool
	// partless marks targets whose per-partition families may legitimately
	// be absent from a healthy scrape: a restarted member (a fenced rejoin
	// owns no partitions) and a drained one (migrated empty). Members that
	// joined mid-run are exempt too, until the planner fills them.
	partless map[string]bool
	// seen and events hold the deduplicated cluster timeline.
	seen   map[[3]int64]bool
	events []trace.Event

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// startWatcher begins sweeping targets; the first sweep decides whether
// metrics are enabled at all.
func startWatcher(targets func() []string, logf func(string, ...any)) *chaosWatcher {
	w := &chaosWatcher{
		targets:    targets,
		initial:    len(targets()),
		hc:         &http.Client{Timeout: 2 * time.Second},
		logf:       logf,
		missing:    make(map[string]bool),
		last:       make(map[string]map[string]counterBaseline),
		watchParts: make(map[int]bool),
		partless:   make(map[string]bool),
		seen:       make(map[[3]int64]bool),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go w.loop()
	return w
}

func (w *chaosWatcher) loop() {
	defer close(w.done)
	// Sweep immediately: the first sweep decides metrics enablement, and even
	// a run shorter than one scrape interval must record at least one scrape.
	w.sweep()
	ticker := time.NewTicker(chaosScrapeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			w.sweep()
		}
	}
}

// sweep reads every live member once: its journal, then its metrics.
// Killed members and mid-kill connection resets are expected and skipped.
func (w *chaosWatcher) sweep() {
	type scraped struct {
		target  string
		joined  bool
		samples []metrics.Sample
	}
	var (
		results []scraped
		journal []trace.Event
		quarSum float64
	)
	w.mu.Lock()
	scrape, first := !w.metricsOff, w.scrapes == 0
	w.mu.Unlock()
	for i, target := range w.targets() {
		var resp trace.EventsResponse
		if status, err := server.GetJSON(w.hc, target+"/debug/events", &resp); err == nil && status/100 == 2 {
			journal = append(journal, resp.Events...)
		}
		if !scrape {
			continue
		}
		samples, status, err := server.NewClient(target, w.hc).Scrape()
		if err != nil {
			// A 404 on the first scrape means metrics are off by design.
			if status == http.StatusNotFound && first {
				scrape = false
				w.mu.Lock()
				w.metricsOff = true
				w.mu.Unlock()
				w.logf("chaos: %s/metrics returned 404; metrics checks disabled", target)
			}
			continue
		}
		results = append(results, scraped{target, i >= w.initial, samples})
		quarSum += metrics.Sum(samples, "la_cluster_quarantines_total")
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	for _, ev := range journal {
		// A restarted member reuses node IDs and restarts its sequence, so
		// the wall-clock stamp disambiguates incarnations.
		key := [3]int64{int64(ev.Node), int64(ev.Seq), ev.TimeUnixNano}
		if !w.seen[key] {
			w.seen[key] = true
			w.events = append(w.events, ev)
		}
	}
	if len(results) == 0 {
		return
	}
	w.scrapes++
	if quarSum > w.maxQuarantines {
		w.maxQuarantines = quarSum
	}
	for _, r := range results {
		w.checkFamilies(r.target, r.joined, r.samples)
		w.checkMonotonic(r.target, r.samples)
		for _, sm := range r.samples {
			if sm.Name != "la_partition_active" {
				continue
			}
			if p, err := strconv.Atoi(sm.Label("partition")); err == nil {
				delete(w.watchParts, p)
			}
		}
	}
	if w.killPending {
		w.killPending = false
		w.midKill = append(w.midKill, uint64(quarSum))
	}
}

// checkFamilies records required families absent from this healthy scrape.
// Per-partition families are exempt on partless members and on members that
// joined mid-run: those samplers legitimately emit nothing while the member
// owns no partition.
func (w *chaosWatcher) checkFamilies(target string, joined bool, samples []metrics.Sample) {
	present := make(map[string]bool, len(samples))
	for _, sm := range samples {
		present[sm.Name] = true
	}
	for _, fam := range chaosRequiredFamilies {
		if present[fam] {
			continue
		}
		if (joined || w.partless[target]) && strings.HasPrefix(fam, "la_partition_") {
			continue
		}
		w.missing[fam] = true
	}
}

// counterBaseline is a counter series' value at the member's previous
// scrape, and whether the series carries a partition label.
type counterBaseline struct {
	value       float64
	partitioned bool
}

// checkMonotonic verifies no counter series went backward since the member's
// previous scrape. Counters are identified by exposition convention: _total
// families plus histogram _count/_sum series. Per-partition counters (every
// series with a partition label: the la_partition_* lease counters and the
// la_wal_* journal counters alike) live and die with ownership: a partition
// that moves away takes its series with it, and one that comes back starts
// a fresh manager and a reopened store at zero — so baselines for partition
// series absent from this scrape are dropped rather than held against the
// member. A partition series present in both scrapes must not drop.
func (w *chaosWatcher) checkMonotonic(target string, samples []metrics.Sample) {
	prev := w.last[target]
	if prev == nil {
		prev = make(map[string]counterBaseline)
		w.last[target] = prev
	}
	seen := make(map[string]bool, len(samples))
	for _, sm := range samples {
		if !strings.HasSuffix(sm.Name, "_total") &&
			!strings.HasSuffix(sm.Name, "_count") &&
			!strings.HasSuffix(sm.Name, "_sum") {
			continue
		}
		key := seriesKey(sm)
		seen[key] = true
		if old, ok := prev[key]; ok && sm.Value < old.value {
			w.monoViol++
			if w.logf != nil {
				w.logf("chaos: %s: counter %s went backward (%.0f -> %.0f)", target, key, old.value, sm.Value)
			}
		}
		prev[key] = counterBaseline{value: sm.Value, partitioned: sm.Label("partition") != ""}
	}
	for key, b := range prev {
		if !seen[key] && b.partitioned {
			delete(prev, key)
		}
	}
}

// seriesKey identifies one time series: family name plus sorted label pairs.
func seriesKey(sm metrics.Sample) string {
	if len(sm.Labels) == 0 {
		return sm.Name
	}
	pairs := make([]string, 0, len(sm.Labels))
	for name, value := range sm.Labels {
		pairs = append(pairs, name+"="+value)
	}
	sort.Strings(pairs)
	return sm.Name + "{" + strings.Join(pairs, ",") + "}"
}

// noteRestart tells the watcher killed member id is back: its counters
// restarted from zero (fresh process), so the monotonic baseline is dropped
// and the member is marked partless. Called before the member answers a
// single scrape.
func (w *chaosWatcher) noteRestart(id int) {
	target := w.targets()[id]
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.last, target)
	w.partless[target] = true
}

// noteDrained tells the watcher member id is being drained: the planner will
// migrate it empty, after which its per-partition families are legitimately
// absent from its scrapes.
func (w *chaosWatcher) noteDrained(id int) {
	target := w.targets()[id]
	w.mu.Lock()
	defer w.mu.Unlock()
	w.partless[target] = true
}

// noteKill tells the watcher a node just died and which partitions must
// reappear under a survivor. The next sweep records the mid-kill snapshot.
func (w *chaosWatcher) noteKill(parts []int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.killPending = true
	for _, p := range parts {
		w.watchParts[p] = true
	}
}

// finalize stops the sweeps, takes one last one (a kill the killer resolved
// after the loop's last sweep must still be seen to reappear, and the final
// adoptions journaled), and writes the watcher's verdict into the report:
// the metrics checks, the timeline audit and the migration totals, which
// count the captured journal's events. It then runs the end-of-run occupancy
// agreement check against each live member's /stats.
func (w *chaosWatcher) finalize(report *ChaosReport) {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
	w.sweep()

	w.mu.Lock()
	report.MetricsScrapes = w.scrapes
	report.MetricsDisabled = w.metricsOff
	report.MetricsMonotonicityViolations = w.monoViol
	report.MetricsQuarantines = uint64(w.maxQuarantines)
	report.MetricsMidKillQuarantines = append([]uint64(nil), w.midKill...)
	for fam := range w.missing {
		report.MetricsFamiliesMissing = append(report.MetricsFamiliesMissing, fam)
	}
	sort.Strings(report.MetricsFamiliesMissing)
	report.MetricsAdoptedUnobserved = len(w.watchParts)
	checkOccupancy := !w.metricsOff && w.scrapes > 0

	report.EventsCaptured = len(w.events)
	counts := make(map[string]int)
	decisionEpochs := make(map[uint64]bool)
	for _, ev := range w.events {
		counts[ev.Type]++
		if ev.Type == trace.EvFailoverDecision {
			decisionEpochs[ev.Epoch] = true
		}
	}
	for _, ev := range w.events {
		if ev.Type != trace.EvEpochBump {
			continue
		}
		if ev.Cause == "" {
			report.EventsUnexplainedBumps++
		}
		if ev.Cause == "steward_reassign" && !decisionEpochs[ev.Epoch] {
			report.EventsDecisionlessFailovers++
		}
	}
	report.EventCounts = counts
	report.MigrationsPlanned = uint64(counts[trace.EvMigrationPlan])
	report.MigrationsStaged = uint64(counts[trace.EvMigrationStaged])
	report.MigrationsCutover = uint64(counts[trace.EvMigrationCutover])
	report.MigrationsAborted = uint64(counts[trace.EvMigrationAbort])
	w.mu.Unlock()

	if !checkOccupancy {
		return
	}
	for _, target := range w.targets() {
		// Unreachable members (killed nodes) are no disagreement.
		if msg, _ := CheckOccupancy(w.hc, target); msg != "" {
			report.MetricsOccupancyDisagreements = append(report.MetricsOccupancyDisagreements, msg)
		}
	}
}

// occupancyStats reads both /stats shapes: a cluster member's top-level
// active count and partitions, or a standalone service's one lease block.
type occupancyStats struct {
	Active     int64            `json:"active"`
	Lease      lease.Stats      `json:"lease"`
	Partitions []PartitionStats `json:"partitions"`
}

func (s occupancyStats) active() int64 {
	if len(s.Partitions) > 0 || s.Active != 0 {
		return s.Active
	}
	return s.Lease.Active
}

// ops sums the operations that can move the occupancy; the delta between
// two readings bounds how far a gauge scraped between them may drift.
func (s occupancyStats) ops() int64 {
	ops := s.Lease.Acquires + s.Lease.Releases + s.Lease.Expirations + s.Lease.OrphansReclaimed
	for _, p := range s.Partitions {
		ops += p.Lease.Acquires + p.Lease.Releases + p.Lease.Expirations + p.Lease.OrphansReclaimed
	}
	return int64(ops)
}

// CheckOccupancy checks one member's (or a standalone service's) occupancy
// gauge against its /stats. It brackets one /metrics scrape between two
// /stats readings, so concurrent churn cannot fail it: the gauge
// (la_leases_active standalone, the la_partition_active sum on a member)
// must lie between the two active counts, widened by the operations between
// them. It returns the disagreement ("" when the gauge agrees) and, apart,
// the error of a member it could not read.
func CheckOccupancy(hc *http.Client, base string) (disagreement string, err error) {
	c := server.NewClient(base, hc)
	var before, after occupancyStats
	if err := c.Read(wire.OpStats, 0, 0, &before); err != nil {
		return "", err
	}
	samples, _, err := c.Scrape()
	if err != nil {
		return "", err
	}
	if err := c.Read(wire.OpStats, 0, 0, &after); err != nil {
		return "", err
	}
	gauge, ok := metrics.Find(samples, "la_leases_active")
	if !ok {
		gauge = metrics.Sum(samples, "la_partition_active")
	}
	lo, hi := min(before.active(), after.active()), max(before.active(), after.active())
	churn := after.ops() - before.ops()
	if churn < 0 {
		churn = -churn
	}
	if int64(gauge) < lo-churn || int64(gauge) > hi+churn {
		return fmt.Sprintf("%s: occupancy gauge %d outside /stats envelope [%d, %d] (churn %d)", base, int64(gauge), lo-churn, hi+churn, churn), nil
	}
	return "", nil
}
