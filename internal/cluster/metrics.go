package cluster

// Cluster-side instrumentation. The node shares the server package's Metrics
// bundle (one latency/ops/fence vocabulary for both facades) and adds the
// membership families on the same registry: table epoch, adoption and
// quarantine counters, prober activity, and per-partition occupancy sampled
// under the table lock at scrape time — the hot paths never touch a map or
// a label; everything dynamic is read when /metrics is scraped. Every
// counter of a control-plane transition (adoptions, quarantines, stale-epoch
// rejects, migration phases) reads the event journal's total of the
// transition's event, so /metrics, /stats and /debug/events count it once.

import (
	"strconv"
	"time"

	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/metrics"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wal"
)

// registerMetrics adds the cluster families to the node's registry. Called
// once from NewNode when a Metrics bundle is configured.
func (n *Node) registerMetrics() {
	m := n.cfg.Metrics
	reg := m.Registry

	if n.cfg.Tracer != nil {
		server.RegisterTracer(reg, n.cfg.Tracer)
	}
	reg.GaugeFunc("la_cluster_epoch", "Current membership-table epoch.", func() float64 {
		return float64(n.Epoch())
	})
	journaled := func(typ string) func() uint64 { return func() uint64 { return n.events.Count(typ) } }
	reg.CounterFunc("la_cluster_adoptions_total", "Membership tables adopted (epoch advances).", journaled(trace.EvEpochBump))
	reg.CounterFunc("la_cluster_quarantines_total", "Partitions adopted under failover quarantine.", journaled(trace.EvQuarantineStart))
	reg.CounterFunc("la_cluster_probes_total", "Peer health probes sent.", n.probes.Load)
	reg.CounterFunc("la_cluster_probe_misses_total", "Peer health probes that failed.", n.probeMisses.Load)
	reg.CounterFunc("la_cluster_failovers_total", "Steward reassignments this node performed.", n.failovers.Load)
	reg.CounterFunc("la_cluster_table_pushes_total", "Membership tables pushed to peers.", n.tablePushes.Load)
	reg.CounterFunc("la_cluster_table_pulls_total", "Newer membership tables pulled from peers.", n.tablePulls.Load)
	reg.CounterFunc("la_cluster_restored_sessions_total", "Lease sessions rebuilt from durable state (boot replay and migration cutovers).", n.restoredSessions.Load)
	reg.GaugeFunc("la_recovery_seconds", "Cumulative duration of durable-state recovery (boot WAL replay).", func() float64 {
		return time.Duration(n.recoveryNanos.Load()).Seconds()
	})

	// The routing fences are counted on the node (stale epochs by the
	// journal); expose them as label values of the shared fence family.
	m.FenceFunc(ErrCodeStaleEpoch, journaled(trace.EvStaleEpoch))
	m.FenceFunc(ErrCodeNotOwner, n.misroutes.Load)

	// Migration lifecycle, one series per phase: planned >= staged >= cutover,
	// planned = cutover + aborted when the cluster is quiescent.
	reg.Sampler("la_cluster_migrations_total", "Partition migrations by lifecycle phase.", metrics.TypeCounter, func(emit metrics.Emit) {
		emit(float64(n.events.Count(trace.EvMigrationPlan)), metrics.L("phase", "planned"))
		emit(float64(n.events.Count(trace.EvMigrationStaged)), metrics.L("phase", "staged"))
		emit(float64(n.events.Count(trace.EvMigrationCutover)), metrics.L("phase", "cutover"))
		emit(float64(n.events.Count(trace.EvMigrationAbort)), metrics.L("phase", "aborted"))
	})
	// Membership by lifecycle state, sampled from the current table.
	reg.Sampler("la_cluster_members", "Cluster members by lifecycle state.", metrics.TypeGauge, func(emit metrics.Emit) {
		states := n.Table().MemberStates()
		for _, state := range []string{StateJoining, StateLive, StateDraining, StateDown, StateLeft} {
			emit(float64(states[state]), metrics.L("state", state))
		}
	})

	// Per-partition series: ownership changes across failovers, so the label
	// set is discovered at scrape time under the table lock.
	sample := func(name, help, typ string, read func(p *partition, now time.Time) float64) {
		reg.Sampler(name, help, typ, func(emit metrics.Emit) {
			now := n.cfg.Clock()
			n.mu.RLock()
			defer n.mu.RUnlock()
			for _, id := range n.ownedIDs {
				emit(read(n.parts[id], now), metrics.L("partition", strconv.Itoa(id)))
			}
		})
	}
	stat := func(read func(s lease.Stats) uint64) func(p *partition, now time.Time) float64 {
		return func(p *partition, _ time.Time) float64 { return float64(read(p.mgr.Stats())) }
	}
	sample("la_partition_active", "Active leases per owned partition.", metrics.TypeGauge, func(p *partition, _ time.Time) float64 {
		return float64(p.mgr.Active())
	})
	sample("la_partition_capacity", "Lease capacity per owned partition.", metrics.TypeGauge, func(p *partition, _ time.Time) float64 {
		return float64(p.mgr.Capacity())
	})
	sample("la_partition_load_factor", "Active leases over capacity per owned partition.", metrics.TypeGauge, func(p *partition, _ time.Time) float64 {
		return p.mgr.LoadFactor()
	})
	sample("la_partition_quarantine_seconds", "Remaining adoption quarantine per owned partition (0 when serving).", metrics.TypeGauge, func(p *partition, now time.Time) float64 {
		if wait := p.quarantineUntil.Sub(now); wait > 0 {
			return wait.Seconds()
		}
		return 0
	})
	sample("la_partition_acquires_total", "Successful acquires per owned partition.", metrics.TypeCounter, stat(func(s lease.Stats) uint64 { return s.Acquires }))
	sample("la_partition_renews_total", "Successful renews per owned partition.", metrics.TypeCounter, stat(func(s lease.Stats) uint64 { return s.Renews }))
	sample("la_partition_releases_total", "Successful releases per owned partition.", metrics.TypeCounter, stat(func(s lease.Stats) uint64 { return s.Releases }))
	sample("la_partition_expirations_total", "Leases reaped by the expirer per owned partition.", metrics.TypeCounter, stat(func(s lease.Stats) uint64 { return s.Expirations }))
	sample("la_partition_failed_acquires_total", "Full-partition acquire failures per owned partition.", metrics.TypeCounter, stat(func(s lease.Stats) uint64 { return s.FailedAcquires }))
	sample("la_partition_orphans_reclaimed_total", "Orphaned bits reclaimed per owned partition.", metrics.TypeCounter, stat(func(s lease.Stats) uint64 { return s.OrphansReclaimed }))

	// WAL families, labeled by partition. Partitions without a journal (no
	// -data-dir) emit nothing, so the families are absent rather than zero on
	// a memory-only node — scrapers can key durability dashboards off presence.
	walSample := func(name, help string, read func(c wal.Counters) uint64) {
		reg.Sampler(name, help, metrics.TypeCounter, func(emit metrics.Emit) {
			n.mu.RLock()
			defer n.mu.RUnlock()
			for _, id := range n.ownedIDs {
				if st := n.parts[id].store; st != nil {
					emit(float64(read(st.Counters())), metrics.L("partition", strconv.Itoa(id)))
				}
			}
		})
	}
	walSample("la_wal_appends_total", "Lease records appended to the WAL per owned partition.", func(c wal.Counters) uint64 { return c.Appends })
	walSample("la_wal_syncs_total", "WAL fsyncs per owned partition (appends/syncs = group-commit batching).", func(c wal.Counters) uint64 { return c.Syncs })
	walSample("la_wal_bytes_total", "Bytes appended to the WAL per owned partition.", func(c wal.Counters) uint64 { return c.Bytes })
	walSample("la_wal_checkpoints_total", "Snapshots checkpointed per owned partition.", func(c wal.Counters) uint64 { return c.Checkpoints })
	walSample("la_wal_replay_records_total", "Log records replayed at open per owned partition.", func(c wal.Counters) uint64 { return c.ReplayRecords })
	walSample("la_wal_torn_tails_total", "Torn trailing records truncated at open per owned partition.", func(c wal.Counters) uint64 { return c.TornTails })
}
