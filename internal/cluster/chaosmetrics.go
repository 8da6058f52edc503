package cluster

// The chaos metrics watcher: while RunChaos drives load and kills nodes, this
// scraper reads every member's /metrics on a short cadence and verifies that
// the observability surface tells the truth — required families present,
// counters monotonic per member, the failover visible in metrics alone (the
// quarantine counter moves and every adopted partition reappears under a
// survivor's per-partition gauges), and the occupancy gauges agreeing with
// /stats at the end of the run. The watcher is an observer only: it never
// writes to the cluster, and a deployment with metrics disabled (404 on the
// first scrape) disables it rather than failing the run.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/metrics"
	"github.com/levelarray/levelarray/internal/server"
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

// metricsWatcher is the scraper's shared state. One mutex guards it all; the
// scrape loop, the killer's noteKill and the final summarize all take it.
type metricsWatcher struct {
	targets []string
	hc      *http.Client
	logf    func(format string, args ...any)

	mu       sync.Mutex
	disabled bool
	scrapes  int
	// missing records required families absent from a healthy scrape.
	missing map[string]bool
	// last holds each member's previous counter values, keyed by series
	// (name plus label set): counters may never decrease on a live member.
	last     map[string]map[string]float64
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
	// restarted marks targets brought back after a kill: a restart resets the
	// member's counters (a fresh process), so its monotonic baseline is
	// cleared, and a fenced rejoin owns no partitions, so the per-partition
	// families are legitimately absent from its scrapes.
	restarted map[string]bool
	// emptied marks targets being drained: the planner migrates every
	// partition off a draining member, so its per-partition families vanish
	// from an otherwise healthy scrape once the last cutover lands.
	emptied map[string]bool

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// startMetricsWatcher begins scraping the targets; the first sweep decides
// whether metrics are enabled at all.
func startMetricsWatcher(targets []string, hc *http.Client, logf func(string, ...any)) *metricsWatcher {
	if hc == nil {
		hc = &http.Client{Timeout: 2 * time.Second}
	}
	w := &metricsWatcher{
		targets:    targets,
		hc:         hc,
		logf:       logf,
		missing:    make(map[string]bool),
		last:       make(map[string]map[string]float64),
		watchParts: make(map[int]bool),
		restarted:  make(map[string]bool),
		emptied:    make(map[string]bool),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go w.loop()
	return w
}

func (w *metricsWatcher) loop() {
	defer close(w.done)
	// Sweep immediately: the first sweep decides enablement, and even a run
	// shorter than one scrape interval must record at least one scrape.
	if !w.sweep() {
		return
	}
	ticker := time.NewTicker(chaosScrapeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
		}
		if !w.sweep() {
			return
		}
	}
}

// sweep scrapes every target once; it returns false when the watcher decided
// metrics are disabled and scraping should cease.
func (w *metricsWatcher) sweep() bool {
	var (
		quarSum float64
		healthy int
	)
	type scraped struct {
		target  string
		samples []metrics.Sample
	}
	var results []scraped
	for _, target := range w.targets {
		samples, status, err := w.scrape(target)
		if err != nil || status/100 != 2 {
			// Killed members and mid-kill connection resets are expected;
			// a 404 from a live member means metrics are off by design.
			if status == http.StatusNotFound {
				w.mu.Lock()
				first := w.scrapes == 0
				if first {
					w.disabled = true
				}
				w.mu.Unlock()
				if first {
					if w.logf != nil {
						w.logf("chaos: %s/metrics returned 404; metrics watcher disabled", target)
					}
					return false
				}
			}
			continue
		}
		healthy++
		results = append(results, scraped{target, samples})
		quarSum += metrics.Sum(samples, "la_cluster_quarantines_total")
	}
	if healthy == 0 {
		return true
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	w.scrapes++
	if quarSum > w.maxQuarantines {
		w.maxQuarantines = quarSum
	}
	for _, r := range results {
		w.checkFamilies(r.target, r.samples)
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
	return true
}

func (w *metricsWatcher) scrape(target string) ([]metrics.Sample, int, error) {
	resp, err := w.hc.Get(target + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return nil, resp.StatusCode, nil
	}
	samples, err := metrics.ParseText(resp.Body)
	return samples, resp.StatusCode, err
}

// checkFamilies records required families absent from this healthy scrape.
// Per-partition families are exempt on restarted and draining members: a
// fenced rejoin owns no partitions, and a draining member is migrated empty,
// so those samplers legitimately emit nothing.
func (w *metricsWatcher) checkFamilies(target string, samples []metrics.Sample) {
	present := make(map[string]bool, len(samples))
	for _, sm := range samples {
		present[sm.Name] = true
	}
	for _, fam := range chaosRequiredFamilies {
		if present[fam] {
			continue
		}
		if (w.restarted[target] || w.emptied[target]) && strings.HasPrefix(fam, "la_partition_") {
			continue
		}
		w.missing[fam] = true
	}
}

// checkMonotonic verifies no counter series went backward since the member's
// previous scrape. Counters are identified by exposition convention: _total
// families plus histogram _count/_sum series. Per-partition counters live
// and die with ownership: a partition that migrates away takes its series
// with it, and a later migration back starts a fresh manager at zero — so
// baselines for partition series absent from this scrape are dropped rather
// than held against the member.
func (w *metricsWatcher) checkMonotonic(target string, samples []metrics.Sample) {
	prev := w.last[target]
	if prev == nil {
		prev = make(map[string]float64)
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
		if old, ok := prev[key]; ok && sm.Value < old {
			w.monoViol++
			if w.logf != nil {
				w.logf("chaos: %s: counter %s went backward (%.0f -> %.0f)", target, key, old, sm.Value)
			}
		}
		prev[key] = sm.Value
	}
	for key := range prev {
		if !seen[key] && strings.HasPrefix(key, "la_partition_") {
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

// noteRestart tells the watcher a killed member is back on target: its
// counters restarted from zero (fresh process), so the monotonic baseline is
// dropped and the target is marked for the partition-family exemption.
func (w *metricsWatcher) noteRestart(target string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.last, target)
	w.restarted[target] = true
}

// noteDrained tells the watcher the member on target is being drained: the
// planner will migrate it empty, after which its per-partition families are
// legitimately absent from its scrapes.
func (w *metricsWatcher) noteDrained(target string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.emptied[target] = true
}

// noteKill tells the watcher a node just died and which partitions must
// reappear under a survivor. The next sweep records the mid-kill snapshot.
func (w *metricsWatcher) noteKill(parts []int) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.killPending = true
	for _, p := range parts {
		w.watchParts[p] = true
	}
}

// finalize stops the scrape loop, runs the end-of-run occupancy agreement
// check against each live member's /stats, and writes the watcher's verdict
// into the report. The agreement check brackets one fresh scrape between two
// /stats snapshots so concurrent churn cannot produce a false disagreement.
func (w *metricsWatcher) finalize(report *ChaosReport) {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done

	w.mu.Lock()
	report.MetricsScrapes = w.scrapes
	report.MetricsDisabled = w.disabled
	report.MetricsMonotonicityViolations = w.monoViol
	report.MetricsQuarantines = uint64(w.maxQuarantines)
	report.MetricsMidKillQuarantines = append([]uint64(nil), w.midKill...)
	for fam := range w.missing {
		report.MetricsFamiliesMissing = append(report.MetricsFamiliesMissing, fam)
	}
	sort.Strings(report.MetricsFamiliesMissing)
	report.MetricsAdoptedUnobserved = len(w.watchParts)
	disabled := w.disabled
	scrapes := w.scrapes
	w.mu.Unlock()
	if disabled || scrapes == 0 {
		return
	}

	for _, target := range w.targets {
		if msg := w.occupancyAgreement(target); msg != "" {
			report.MetricsOccupancyDisagreements = append(report.MetricsOccupancyDisagreements, msg)
		}
	}
}

// occupancyAgreement compares one member's la_partition_active sum against
// its /stats active count. Returns "" on agreement, unreachable members
// (killed nodes) included.
func (w *metricsWatcher) occupancyAgreement(target string) string {
	var before, after NodeStatsResponse
	if status, err := server.GetJSON(w.hc, target+"/stats", &before); err != nil || status/100 != 2 {
		return ""
	}
	samples, status, err := w.scrape(target)
	if err != nil || status/100 != 2 {
		return ""
	}
	if status, err := server.GetJSON(w.hc, target+"/stats", &after); err != nil || status/100 != 2 {
		return ""
	}
	gauge := int64(metrics.Sum(samples, "la_partition_active"))
	lo, hi := before.Active, after.Active
	if lo > hi {
		lo, hi = hi, lo
	}
	churn := statsOps(after) - statsOps(before)
	if churn < 0 {
		churn = -churn
	}
	if gauge < lo-churn || gauge > hi+churn {
		return fmt.Sprintf("%s: gauge %d outside /stats envelope [%d, %d] (churn %d)", target, gauge, lo-churn, hi+churn, churn)
	}
	return ""
}

// statsOps sums the operations that move a node's occupancy; the delta
// between two snapshots bounds how far a mid-scrape gauge may drift.
func statsOps(s NodeStatsResponse) int64 {
	var ops uint64
	for _, p := range s.Partitions {
		ops += p.Lease.Acquires + p.Lease.Releases + p.Lease.Expirations + p.Lease.OrphansReclaimed
	}
	return int64(ops)
}
