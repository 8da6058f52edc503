package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/metrics"
	"github.com/levelarray/levelarray/internal/server"
)

// TestMetricsDuringChaos kills a node mid-run while the metrics watcher
// scrapes every member: the failover must be visible in /metrics alone — the
// quarantine counter moves, every adopted partition reappears under a
// survivor's gauges — with no counter regressions, no missing families, and
// occupancy gauges that agree with /stats at the end. Scrapers run
// concurrently with the load and the killer, so the race detector gets the
// full read path too.
func TestMetricsDuringChaos(t *testing.T) {
	l := fastLocal(t, 3, 4, 128)
	report, err := RunChaos(ChaosConfig{
		Local:        l,
		Clients:      8,
		Acquires:     4000,
		TTL:          300 * time.Millisecond,
		HoldMean:     time.Millisecond,
		CrashPercent: 10,
		RenewPercent: 20,
		Seed:         17,
		KillEvery:    150 * time.Millisecond,
		MinAlive:     2,
		ReclaimSlack: 400 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("chaos violations: %v\nreport: %+v", v, report)
	}
	if report.Kills != 1 {
		t.Fatalf("kills = %d, want exactly 1", report.Kills)
	}
	if report.MetricsDisabled {
		t.Fatal("metrics watcher disabled against a metrics-enabled harness")
	}
	if report.MetricsScrapes == 0 {
		t.Fatal("metrics watcher recorded no scrapes")
	}
	if report.MetricsQuarantines == 0 {
		t.Fatal("quarantine counter never moved in /metrics despite a kill")
	}
	if len(report.MetricsMidKillQuarantines) != report.Kills {
		t.Fatalf("mid-kill snapshots %v, want one per kill (%d)", report.MetricsMidKillQuarantines, report.Kills)
	}
	if report.MetricsAdoptedUnobserved != 0 {
		t.Fatalf("%d adopted partitions never reappeared in survivors' /metrics", report.MetricsAdoptedUnobserved)
	}
	if report.MetricsMonotonicityViolations != 0 {
		t.Fatalf("%d counter series went backward", report.MetricsMonotonicityViolations)
	}
	if len(report.MetricsFamiliesMissing) != 0 {
		t.Fatalf("required families missing: %v", report.MetricsFamiliesMissing)
	}
	if len(report.MetricsOccupancyDisagreements) != 0 {
		t.Fatalf("occupancy disagreements: %v", report.MetricsOccupancyDisagreements)
	}
}

// TestChaosMetricsDisabled runs a short healthy chaos pass against a cluster
// booted without registries: the watcher must self-disable on the 404 and
// report no metrics violations rather than failing the run.
func TestChaosMetricsDisabled(t *testing.T) {
	l, err := StartLocal(LocalConfig{
		Nodes:          3,
		Partitions:     4,
		Capacity:       128,
		Seed:           7,
		DisableMetrics: true,
		Node: NodeConfig{
			Lease:         lease.Config{TickInterval: 20 * time.Millisecond},
			DefaultTTL:    300 * time.Millisecond,
			MaxTTL:        300 * time.Millisecond,
			ProbeInterval: 25 * time.Millisecond,
			DownAfter:     2,
			Logf:          t.Logf,
		},
	})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(l.Close)
	report, err := RunChaos(ChaosConfig{
		Local:    l,
		Clients:  4,
		Acquires: 400,
		TTL:      300 * time.Millisecond,
		Seed:     19,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if !report.MetricsDisabled {
		t.Fatal("watcher did not self-disable against a metrics-less cluster")
	}
	if report.MetricsScrapes != 0 {
		t.Fatalf("scrapes = %d on a metrics-less cluster", report.MetricsScrapes)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("violations: %v", v)
	}
}

// fakeMember serves canned /stats bodies, one per call in order (the last
// repeating), and a canned /metrics exposition.
func fakeMember(t *testing.T, exposition string, stats ...any) string {
	calls := 0
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, stats[min(calls, len(stats)-1)])
		calls++
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, exposition)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestCheckOccupancy pins the one occupancy check lactl -verify and the
// chaos watcher share: it reads the standalone and the cluster /stats shape
// alike, widens the envelope by the churn between its two readings, and
// reports a gauge outside it.
func TestCheckOccupancy(t *testing.T) {
	standalone := func(active int64, acquires uint64) any {
		return server.StatsResponse{Lease: lease.Stats{Active: active, Acquires: acquires}}
	}
	node := func(a, b int64) any {
		return NodeStatsResponse{Active: a + b, Partitions: []PartitionStats{
			{Partition: 0, Lease: lease.Stats{Active: a, Acquires: uint64(a)}},
			{Partition: 1, Lease: lease.Stats{Active: b, Acquires: uint64(b)}},
		}}
	}
	nodeGauges := func(a, b int) string {
		return fmt.Sprintf("la_partition_active{partition=\"0\"} %d\nla_partition_active{partition=\"1\"} %d\n", a, b)
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, tc := range []struct {
		name  string
		base  string
		agree bool
	}{
		{"standalone agrees", fakeMember(t, "la_leases_active 5\n", standalone(5, 9)), true},
		{"standalone gauge high", fakeMember(t, "la_leases_active 6\n", standalone(5, 9)), false},
		{"node agrees", fakeMember(t, nodeGauges(3, 4), node(3, 4)), true},
		{"node gauge low", fakeMember(t, nodeGauges(3, 1), node(3, 4)), false},
		{"node owning nothing", fakeMember(t, "go_goroutines 9\n", node(0, 0)), true},
		// One acquire between the readings: active 5 then 6, envelope [4, 7].
		{"churn widens the envelope", fakeMember(t, "la_leases_active 7\n", standalone(5, 9), standalone(6, 10)), true},
		{"gauge past the churn", fakeMember(t, "la_leases_active 8\n", standalone(5, 9), standalone(6, 10)), false},
	} {
		msg, err := CheckOccupancy(hc, tc.base)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (msg == "") != tc.agree {
			t.Fatalf("%s: disagreement %q, want agreement %v", tc.name, msg, tc.agree)
		}
	}
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	if msg, err := CheckOccupancy(hc, srv.URL); err == nil || msg != "" {
		t.Fatalf("unreachable member: %q, %v; want an error and no disagreement", msg, err)
	}
}

// TestCheckMonotonicForgetsVanishedPartitionSeries: a partition's series
// live and die with its ownership, the WAL families as much as the lease
// ones, so a labeled series that vanishes from a scrape and comes back at 0
// (a reopened store) is no violation. A labeled series present in both
// scrapes that drops still is, and so is an unlabeled counter that drops.
func TestCheckMonotonicForgetsVanishedPartitionSeries(t *testing.T) {
	part := func(name string, p string, v float64) metrics.Sample {
		return metrics.Sample{Name: name, Labels: map[string]string{"partition": p}, Value: v}
	}
	ops := func(v float64) metrics.Sample {
		return metrics.Sample{Name: "la_ops_total", Labels: map[string]string{"op": "acquire"}, Value: v}
	}
	epochBumps := func(v float64) metrics.Sample { return metrics.Sample{Name: "la_cluster_epoch_bumps_total", Value: v} }
	cases := []struct {
		name    string
		scrapes [][]metrics.Sample
		want    uint64
	}{
		{"wal series vanishes and returns at 0", [][]metrics.Sample{
			{part("la_wal_appends_total", "4", 1346), part("la_wal_syncs_total", "4", 900), ops(10)},
			{ops(12)},
			{part("la_wal_appends_total", "4", 0), part("la_wal_syncs_total", "4", 0), ops(13)},
		}, 0},
		{"lease series vanishes and returns at 0", [][]metrics.Sample{
			{part("la_partition_acquires_total", "2", 50)},
			{},
			{part("la_partition_acquires_total", "2", 0)},
		}, 0},
		{"wal series stays present and drops", [][]metrics.Sample{
			{part("la_wal_appends_total", "4", 1346)},
			{part("la_wal_appends_total", "4", 0)},
		}, 1},
		{"unlabeled counter drops", [][]metrics.Sample{
			{epochBumps(3)},
			{},
			{epochBumps(1)},
		}, 1},
		{"counter with other labels drops", [][]metrics.Sample{
			{ops(10)},
			{},
			{ops(9)},
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &chaosWatcher{last: make(map[string]map[string]counterBaseline)}
			for _, samples := range tc.scrapes {
				w.checkMonotonic("member", samples)
			}
			if w.monoViol != tc.want {
				t.Fatalf("%d monotonicity violations, want %d", w.monoViol, tc.want)
			}
		})
	}
}
