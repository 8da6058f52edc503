package cluster

// The chaos load runner: the cluster-wide analogue of server.RunLoad, on
// the same ledger and the same closed-loop round. Clients drive
// acquire/renew/release through the routed Client while a killer tears
// down live nodes mid-run; the ledger verifies the lease contract across
// nodes, with every lease that died with its node swept into the orphans
// whose reissue it bounds. A post-run phase proves failover healed the
// namespace: once the reclaim deadline (TTL + 2 wheel ticks after the epoch
// bump, plus slack) has passed, every adopted partition must grant again
// and none of the killed node's names may be leaked.

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/rng"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
)

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	// Targets addresses an external cluster. Ignored when Local is set.
	Targets []string
	// Local is an in-process cluster; required for kills.
	Local *Local
	// Clients is the number of concurrent closed-loop clients. Zero selects 16.
	Clients int
	// Acquires is the total acquires across all clients. Zero selects 10000.
	// Under a kill schedule the clients keep acquiring past it until the
	// first kill has failed over (see KillEvery).
	Acquires int64
	// TTL is the lease TTL per acquire. Zero selects 2s. It should equal the
	// servers' MaxTTL so the quarantine horizon matches the ledger's bound.
	TTL time.Duration
	// HoldMean is the mean exponential hold time (capped at 10x).
	HoldMean time.Duration
	// CrashPercent abandons that percentage of leases without release.
	CrashPercent int
	// RenewPercent renews that percentage of held leases once mid-hold.
	RenewPercent int
	// Seed feeds the per-client generators and the killer's victim draws.
	Seed uint64
	// KillEvery, when positive, kills one random live node every interval
	// (first at KillEvery into the run) while more than MinAlive remain. The
	// load runs at least until that first kill has failed over (or the
	// killer has stopped), so a run that finishes its Acquires early still
	// fails a node over under load. Requires Local.
	KillEvery time.Duration
	// MinAlive is the floor the killer respects. Zero selects 2.
	MinAlive int
	// RestartAfter, when positive, brings each killed node back that long
	// after its kill (same addresses, fresh process state; durable members
	// replay their WAL). The ledger keeps verifying throughout: a restarted
	// node rejoining with a stale epoch must be fenced — any lease it
	// double-issues shows up as a duplicate/stale-accepted violation.
	// Requires Local.
	RestartAfter time.Duration
	// GrowTo, when above the starting member count, has the run join fresh
	// members one at a time (every GrowEvery) until the cluster reaches that
	// size — elastic scale under load, with the ledger watching the
	// migrations that fill the joiners. Requires Local.
	GrowTo int
	// GrowEvery paces the joins (and the optional drain). Zero selects 1s.
	GrowEvery time.Duration
	// DrainOne, once growth completes, drains the highest-ID original member:
	// the planner must migrate it empty and retire it without losing a lease.
	DrainOne bool
	// ReclaimSlack pads every reclaim/reissue deadline, absorbing HTTP,
	// scheduler and failover-observation latency. Zero selects 750ms.
	ReclaimSlack time.Duration
	// DisableWire forces the routed client onto HTTP even against members
	// that advertise wire endpoints.
	DisableWire bool
	// Logf, when set, receives run-progress logs.
	Logf func(format string, args ...any)
}

func (c ChaosConfig) withDefaults() (ChaosConfig, error) {
	if c.Local == nil && len(c.Targets) == 0 {
		return c, fmt.Errorf("chaos: either Local or Targets must be set")
	}
	if c.Local != nil {
		c.Targets = c.Local.Targets()
	}
	if c.KillEvery > 0 && c.Local == nil {
		return c, fmt.Errorf("chaos: node kills need an in-process cluster (Local)")
	}
	if c.RestartAfter > 0 && c.Local == nil {
		return c, fmt.Errorf("chaos: node restarts need an in-process cluster (Local)")
	}
	if (c.GrowTo > 0 || c.DrainOne) && c.Local == nil {
		return c, fmt.Errorf("chaos: membership growth needs an in-process cluster (Local)")
	}
	if c.GrowEvery <= 0 {
		c.GrowEvery = time.Second
	}
	if c.Clients <= 0 {
		c.Clients = 16
	}
	if c.Acquires <= 0 {
		c.Acquires = 10000
	}
	if c.TTL <= 0 {
		c.TTL = 2 * time.Second
	}
	if c.CrashPercent < 0 || c.CrashPercent > 100 {
		return c, fmt.Errorf("chaos: crash percent %d outside 0..100", c.CrashPercent)
	}
	if c.RenewPercent < 0 || c.RenewPercent > 100 {
		return c, fmt.Errorf("chaos: renew percent %d outside 0..100", c.RenewPercent)
	}
	if c.MinAlive <= 0 {
		c.MinAlive = 2
	}
	if c.ReclaimSlack <= 0 {
		c.ReclaimSlack = 750 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// ChaosReport is the outcome of one chaos run: the shared report core (the
// traffic mix, the acquire latencies and the ledger's verdict) plus the
// failover, membership, metrics and event-journal accounting.
type ChaosReport struct {
	server.ContractReport

	// Failover accounting.
	Kills           int   `json:"kills"`
	KilledNodes     []int `json:"killed_nodes"`
	Restarts        int   `json:"restarts"`
	RestartedNodes  []int `json:"restarted_nodes,omitempty"`
	RestartFailures int   `json:"restart_failures"`
	// RestartPreempts counts kills resolved by the victim restarting before
	// any failover: no table moved its partitions and the victim resumed them
	// from its journal. A legitimate outcome in restart mode (the survivors
	// may lack quorum, or the restart simply won the race); without
	// RestartAfter the same silence is a FailoverTimeout.
	RestartPreempts int `json:"restart_preempts,omitempty"`
	// EpochBumps counts kills resolved by a failover: a newer table moved
	// the victim's partitions to other members.
	EpochBumps int    `json:"epoch_bumps"`
	FinalEpoch uint64 `json:"final_epoch"`

	// Membership accounting (GrowTo / DrainOne runs).
	Joins        int   `json:"joins,omitempty"`
	JoinedNodes  []int `json:"joined_nodes,omitempty"`
	JoinFailures int   `json:"join_failures,omitempty"`
	Drains       int   `json:"drains,omitempty"`
	DrainedNodes []int `json:"drained_nodes,omitempty"`
	// DrainFailures counts drain requests the steward rejected; DrainStuck
	// counts requested drains whose member was never observed retired (left).
	DrainFailures int `json:"drain_failures,omitempty"`
	DrainStuck    int `json:"drain_stuck,omitempty"`
	// Migration totals counted from the captured event journal: plans the
	// stewards issued, snapshots shipped by sources, cutovers completed by
	// targets, plans unwound — the same events every member's /stats and
	// la_cluster_migrations_total count.
	MigrationsPlanned uint64 `json:"migrations_planned,omitempty"`
	MigrationsStaged  uint64 `json:"migrations_staged,omitempty"`
	MigrationsCutover uint64 `json:"migrations_cutover,omitempty"`
	MigrationsAborted uint64 `json:"migrations_aborted,omitempty"`
	OrphanEvents      int    `json:"orphan_events"`
	OrphansReissued   int    `json:"orphans_reissued"`
	// OrphansFree counts orphans never observed reissued but verified free
	// (absent from the new owner's /collect) after the reclaim deadline —
	// equally healed, just not re-granted during the run.
	OrphansFree int `json:"orphans_free"`
	// FillAcquired counts the post-failover grantability probe's grants: the
	// probe keeps acquiring until every adopted partition has granted at
	// least once after the reclaim deadline.
	FillAcquired uint64        `json:"fill_acquired"`
	FillElapsed  time.Duration `json:"fill_elapsed_ns"`

	// Cluster violations.

	// OrphansLeaked counts killed-node names still registered (per /collect)
	// after the reclaim deadline with no live lease the ledger knows of.
	OrphansLeaked int `json:"orphans_leaked"`
	// AdoptedUnserved counts failed-over partitions that never granted a
	// name after the reclaim deadline: the quarantine failed to lift.
	AdoptedUnserved  int `json:"adopted_unserved"`
	FailoverTimeouts int `json:"failover_timeouts"`

	// Metrics verdict: the watcher scrapes every member's /metrics every
	// chaosScrapeInterval and verifies the observability surface itself.
	// MetricsScrapes is 0 and MetricsDisabled true when the targets serve no
	// /metrics (a first-scrape 404 turns the metrics checks off).
	MetricsScrapes                int      `json:"metrics_scrapes"`
	MetricsDisabled               bool     `json:"metrics_disabled,omitempty"`
	MetricsFamiliesMissing        []string `json:"metrics_families_missing,omitempty"`
	MetricsMonotonicityViolations uint64   `json:"metrics_monotonicity_violations"`
	// MetricsQuarantines is the highest cluster-wide quarantine-counter sum
	// any sweep observed; MetricsMidKillQuarantines snapshots it at the first
	// sweep after each kill — failover visible in metrics alone.
	MetricsQuarantines        uint64   `json:"metrics_quarantines"`
	MetricsMidKillQuarantines []uint64 `json:"metrics_mid_kill_quarantines,omitempty"`
	// MetricsAdoptedUnobserved counts failed-over partitions that never
	// reappeared in any surviving member's per-partition gauges.
	MetricsAdoptedUnobserved      int      `json:"metrics_adopted_unobserved"`
	MetricsOccupancyDisagreements []string `json:"metrics_occupancy_disagreements,omitempty"`

	// Event-journal verdict: the same sweeps read every member's
	// /debug/events and audit the merged timeline — the journal must explain
	// every ledger-relevant transition. EventCounts tallies the captured
	// timeline by event type.
	EventsCaptured int            `json:"events_captured"`
	EventCounts    map[string]int `json:"event_counts,omitempty"`
	// EventsUnexplainedBumps counts epoch_bump events with no recorded cause;
	// EventsDecisionlessFailovers counts steward reassignments whose epoch has
	// no failover_decision event (a failover the journal cannot explain).
	EventsUnexplainedBumps      int `json:"events_unexplained_bumps"`
	EventsDecisionlessFailovers int `json:"events_decisionless_failovers"`

	Routing ClientCounters      `json:"routing"`
	Nodes   []NodeStatsResponse `json:"nodes"`
}

// Violations lists every broken cluster-contract invariant, nil when clean.
func (r ChaosReport) Violations() []string {
	v := r.ContractReport.Violations()
	if r.OrphansLeaked > 0 {
		v = append(v, fmt.Sprintf("%d of the killed nodes' names leaked (still registered after the reclaim deadline)", r.OrphansLeaked))
	}
	if r.AdoptedUnserved > 0 {
		v = append(v, fmt.Sprintf("%d failed-over partitions never granted after the reclaim deadline", r.AdoptedUnserved))
	}
	if r.FailoverTimeouts > 0 {
		v = append(v, fmt.Sprintf("%d node kills produced no epoch bump", r.FailoverTimeouts))
	}
	if r.RestartFailures > 0 {
		v = append(v, fmt.Sprintf("%d killed nodes failed to restart", r.RestartFailures))
	}
	if r.JoinFailures > 0 {
		v = append(v, fmt.Sprintf("%d join attempts failed", r.JoinFailures))
	}
	if r.DrainFailures > 0 {
		v = append(v, fmt.Sprintf("%d drain requests rejected", r.DrainFailures))
	}
	if r.DrainStuck > 0 {
		v = append(v, fmt.Sprintf("%d drained members never retired", r.DrainStuck))
	}
	if r.Joins > 0 && r.MigrationsCutover == 0 {
		v = append(v, "members joined but no migration ever cut over (joiners never filled)")
	}
	if r.MetricsMonotonicityViolations > 0 {
		v = append(v, fmt.Sprintf("%d counter series went backward between scrapes", r.MetricsMonotonicityViolations))
	}
	if len(r.MetricsFamiliesMissing) > 0 {
		v = append(v, fmt.Sprintf("required metric families missing from healthy scrapes: %v", r.MetricsFamiliesMissing))
	}
	if r.MetricsAdoptedUnobserved > 0 {
		v = append(v, fmt.Sprintf("%d failed-over partitions never reappeared in survivors' /metrics", r.MetricsAdoptedUnobserved))
	}
	if len(r.MetricsOccupancyDisagreements) > 0 {
		v = append(v, fmt.Sprintf("occupancy gauges disagree with /stats: %v", r.MetricsOccupancyDisagreements))
	}
	if !r.MetricsDisabled && r.MetricsScrapes > 0 && r.Kills > 0 && r.EpochBumps > 0 && r.MetricsQuarantines == 0 {
		v = append(v, "failover invisible in metrics: quarantine counter never moved despite epoch bumps")
	}
	if r.EventsUnexplainedBumps > 0 {
		v = append(v, fmt.Sprintf("%d epoch bumps journaled without a cause", r.EventsUnexplainedBumps))
	}
	if r.EventsDecisionlessFailovers > 0 {
		v = append(v, fmt.Sprintf("%d steward reassignments have no failover_decision event at their epoch", r.EventsDecisionlessFailovers))
	}
	if r.EpochBumps > 0 && r.EventCounts[trace.EvEpochBump] == 0 {
		v = append(v, "epoch bumps invisible in the event journal")
	}
	if r.EventsCaptured > 0 && r.MetricsQuarantines > 0 && r.EventCounts[trace.EvQuarantineStart] == 0 {
		v = append(v, "quarantine adoptions invisible in the event journal")
	}
	return v
}

// RunChaos drives one chaos run and verifies the cluster lease contract end
// to end. See ChaosConfig and ChaosReport.
func RunChaos(cfg ChaosConfig) (ChaosReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return ChaosReport{}, err
	}
	// The client must outlast a failover: an operation addressed to a node
	// that just died keeps failing until the survivors detect the failure
	// (DownAfter * ProbeInterval), bump the epoch and push the new table.
	// 30 rounds at 150ms give ~4.5s of patience, comfortably beyond the
	// default 750ms detection horizon even on a loaded CI runner.
	client, err := NewClient(ClientConfig{
		Targets:      cfg.Targets,
		RouteRounds:  30,
		RouteBackoff: 150 * time.Millisecond,
		DisableWire:  cfg.DisableWire,
	})
	if err != nil {
		return ChaosReport{}, err
	}
	defer client.Close()

	// The expirer tick comes from a member so reclaim bounds agree with the
	// servers' actual granularity.
	tick := 100 * time.Millisecond
	if s, serr := client.NodeStats(client.Table().Alive()[0].Addr); serr == nil && s.TickMillis > 0 {
		tick = time.Duration(s.TickMillis) * time.Millisecond
	}

	lp, err := server.NewLoop(server.LoopConfig{
		Ops: client, Clients: cfg.Clients, Acquires: cfg.Acquires, TTL: cfg.TTL, HoldMean: cfg.HoldMean,
		CrashPercent: cfg.CrashPercent, RenewPercent: cfg.RenewPercent, Seed: cfg.Seed,
		Tick: tick, ReclaimSlack: cfg.ReclaimSlack,
	})
	if err != nil {
		return ChaosReport{}, fmt.Errorf("chaos: %w", err)
	}

	// The watcher sweeps every member's /debug/events and /metrics
	// throughout the run, assembling the cluster timeline before kills can
	// destroy in-memory rings; a first-scrape 404 turns the metrics half off.
	// It sweeps the live membership, joiners included, and the kill and
	// restart bookkeeping below names members by their index in that list.
	targets := func() []string { return cfg.Targets }
	if cfg.Local != nil {
		targets = cfg.Local.Targets
	}
	watch := startWatcher(targets, cfg.Logf)

	var (
		killDone  = make(chan struct{})
		killStop  = make(chan struct{})
		firstKill chan struct{}        // closed once the first kill has resolved or the killer stopped
		adopted   = make(map[int]bool) // partitions kills moved; the killer's until killDone
		restartWG sync.WaitGroup
		report    ChaosReport
		reportMu  sync.Mutex // guards report's failover fields written by the killer
	)

	// awaitFailover waits for a kill to resolve and says how. The survivors
	// fail the victim over: a table past before assigns the victim's
	// partitions (parts) elsewhere, and moved lists the ones that went (a
	// victim owning none fails over with any bump). Or, in restart mode, the
	// victim returns first and resumes its recorded partitions under its own
	// table (the survivors may lack quorum to fail over at all, and the
	// victim's journal makes the resume safe). A return does not settle the
	// race at once: a failover the steward decided just before it still
	// lands, so the victim must keep every partition for settle before the
	// kill counts as resumed. A bump that leaves the victim's partitions in
	// place (another member's rejoin) resolves nothing.
	awaitFailover := func(local *Local, before uint64, victim int, parts []int, restartMode bool, settle, timeout time.Duration) (moved []int, bumped, resumed bool) {
		deadline := time.Now().Add(timeout)
		var settleBy time.Time
		for {
			if t := local.maxEpochTable(); t.Epoch > before {
				if len(parts) == 0 {
					return nil, true, false
				}
				owned := t.PartitionsOf(victim)
				for _, p := range parts {
					if !slices.Contains(owned, p) {
						moved = append(moved, p)
					}
				}
				if len(moved) > 0 {
					return moved, true, false
				}
			}
			now := time.Now()
			if restartMode && local.Node(victim) != nil {
				if settleBy.IsZero() {
					settleBy = now.Add(settle)
				} else if now.After(settleBy) {
					return nil, false, true
				}
			}
			if now.After(deadline) {
				return nil, false, false
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// DrainOne's target: the highest-ID original member. The killer leaves
	// it alone — its fate is the drain's to decide (the kill-during-drain
	// interleaving has its own dedicated test).
	drainee := -1
	if cfg.DrainOne {
		drainee = cfg.Local.Nodes() - 1
	}

	// The killer: every KillEvery, one random live node dies abruptly; the
	// run then observes the epoch bump and sweeps the dead node's leases
	// into the orphan ledger.
	if cfg.KillEvery > 0 {
		firstKill = make(chan struct{})
		go func() {
			fired := false
			defer func() {
				if !fired {
					close(firstKill)
				}
				close(killDone)
			}()
			gen := rng.New(rng.KindSplitMix, cfg.Seed^0xD1CEB00C)
			ticker := time.NewTicker(cfg.KillEvery)
			defer ticker.Stop()
			for {
				select {
				case <-killStop:
					return
				case <-ticker.C:
				}
				alive := cfg.Local.AliveIDs()
				if len(alive) <= cfg.MinAlive {
					return
				}
				victim := alive[gen.Intn(len(alive))]
				if victim == drainee {
					continue
				}
				node := cfg.Local.Node(victim)
				if node == nil {
					continue
				}
				// Only serving members are kill-worthy: the prober never
				// suspects a still-joining member and a retired one triggers
				// no failover, so killing either stalls awaitFailover with
				// nothing to verify.
				if tb := node.Table(); victim >= len(tb.Members) || !tb.Members[victim].Serving() {
					continue
				}
				victimParts := node.Table().PartitionsOf(victim)
				settle := 2 * node.cfg.ProbeInterval
				before := cfg.Local.MaxEpoch()
				cfg.Logf("chaos: killing node %d (epoch %d, %d alive, partitions %v)", victim, before, len(alive), victimParts)
				lp.Dying(victim)
				cfg.Local.Kill(victim)
				// The restart races the failover from the moment of death,
				// exactly as a supervised process would in production.
				if cfg.RestartAfter > 0 {
					restartWG.Add(1)
					go func(victim int) {
						defer restartWG.Done()
						time.Sleep(cfg.RestartAfter)
						// A back-to-back kill/restart pair on the same victim
						// may already have brought it back; skip, don't fail.
						if cfg.Local.Node(victim) != nil {
							return
						}
						// Before the node answers a single scrape: its fresh
						// registry resets every counter, and a fenced rejoin
						// owns no partitions.
						watch.noteRestart(victim)
						if err := cfg.Local.Restart(victim); err != nil {
							cfg.Logf("chaos: restarting node %d: %v", victim, err)
							reportMu.Lock()
							report.RestartFailures++
							reportMu.Unlock()
							return
						}
						cfg.Logf("chaos: node %d restarted (ledger keeps watching)", victim)
						reportMu.Lock()
						report.Restarts++
						report.RestartedNodes = append(report.RestartedNodes, victim)
						reportMu.Unlock()
					}(victim)
				}
				moved, bumped, resumed := awaitFailover(cfg.Local, before, victim, victimParts, cfg.RestartAfter > 0, settle, 30*time.Second)
				bumpAt := time.Now()
				reportMu.Lock()
				report.Kills++
				report.KilledNodes = append(report.KilledNodes, victim)
				switch {
				case bumped:
					report.EpochBumps++
				case resumed:
					report.RestartPreempts++
				default:
					report.FailoverTimeouts++
				}
				reportMu.Unlock()
				cfg.Logf("chaos: node %d dead; epoch now %d (bump observed: %v, restart preempted: %v)",
					victim, cfg.Local.MaxEpoch(), bumped, resumed)
				watch.noteKill(victimParts)
				for _, p := range victimParts {
					adopted[p] = true
				}
				switch {
				case resumed:
					// No lease died: the victim replayed its journal under
					// its own table, so a renew in flight across the kill
					// may land on it and extend a live lease.
					lp.Resumed(victim)
				case bumped:
					lp.Orphan(victim, moved, bumpAt)
				default:
					lp.Orphan(victim, victimParts, bumpAt)
				}
				if !fired {
					fired = true
					close(firstKill)
				}
			}
		}()
	} else {
		close(killDone)
	}

	// The grower: elastic scale under load. Every GrowEvery it joins one
	// fresh member until the cluster reaches GrowTo — the steward admits it,
	// the prober promotes it, the planner migrates partitions onto it — all
	// while the clients keep hammering and the killer keeps killing. Once
	// growth completes, DrainOne drains its target and the run verifies the
	// member is migrated empty and retired without losing a single lease.
	growDone := make(chan struct{})
	if cfg.GrowTo > 0 || cfg.DrainOne {
		go func() {
			defer close(growDone)
			pace := func() bool {
				select {
				case <-killStop:
					return false
				case <-time.After(cfg.GrowEvery):
					return true
				}
			}
			for cfg.GrowTo > 0 && cfg.Local.Nodes() < cfg.GrowTo {
				if !pace() {
					break
				}
				id, err := cfg.Local.Join()
				if err != nil {
					cfg.Logf("chaos: join attempt failed: %v", err)
					reportMu.Lock()
					report.JoinFailures++
					reportMu.Unlock()
					continue
				}
				cfg.Logf("chaos: member %d joined (cluster now %d members)", id, cfg.Local.Nodes())
				reportMu.Lock()
				report.Joins++
				report.JoinedNodes = append(report.JoinedNodes, id)
				reportMu.Unlock()
			}
			if drainee < 0 {
				return
			}
			// Drain under load when the run allows; if the load finished
			// first the drain still runs — the retirement verdict is part of
			// the run either way.
			pace()
			cfg.Logf("chaos: draining member %d", drainee)
			if err := cfg.Local.Drain(drainee); err != nil {
				cfg.Logf("chaos: drain of member %d failed: %v", drainee, err)
				reportMu.Lock()
				report.DrainFailures++
				reportMu.Unlock()
				return
			}
			reportMu.Lock()
			report.Drains++
			report.DrainedNodes = append(report.DrainedNodes, drainee)
			reportMu.Unlock()
			watch.noteDrained(drainee)
			// Retirement may land after the load ends; keep watching past
			// killStop with a hard bound so the run always reaches a verdict.
			retireBy := time.Now().Add(30 * time.Second)
			for time.Now().Before(retireBy) {
				if tb := cfg.Local.maxEpochTable(); drainee < len(tb.Members) &&
					tb.Members[drainee].EffectiveState() == StateLeft && len(tb.PartitionsOf(drainee)) == 0 {
					cfg.Logf("chaos: member %d migrated empty and retired", drainee)
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
			reportMu.Lock()
			report.DrainStuck++
			reportMu.Unlock()
		}()
	} else {
		close(growDone)
	}

	// The load runs on past its acquires until the first kill has failed
	// over, so a fast run still fails a node over under load.
	runErr := lp.Run(firstKill)
	close(killStop)
	<-killDone
	<-growDone
	// Pending restarts must land before verification: a restarted node that
	// double-issues would otherwise dodge the ledger, and the caller may
	// Close the cluster as soon as we return.
	restartWG.Wait()
	lp.Close()
	if runErr != nil {
		watch.finalize(&report)
		return ChaosReport{}, fmt.Errorf("chaos: %w", runErr)
	}

	// Post-run verification: wait out every reclaim deadline, then prove the
	// failover healed the namespace — every adopted partition grants again,
	// and none of the killed nodes' names is leaked.
	lp.WaitReclaimed()
	if report.Kills > 0 {
		fillStart := time.Now()
		fills, unserved, err := adoptionProbe(client, lp, cfg.TTL, adopted)
		if err != nil {
			watch.finalize(&report)
			return report, err
		}
		report.FillAcquired, report.AdoptedUnserved = fills, unserved
		report.FillElapsed = time.Since(fillStart)
		if leaked, err := verifyOrphansFree(client, lp.Ledger); err != nil {
			cfg.Logf("chaos: orphan collect verification incomplete: %v", err)
		} else if leaked > 0 {
			cfg.Logf("chaos: %d orphans still registered after the deadline", leaked)
		}
	}
	report.ContractReport = lp.Report()
	report.OrphanEvents, report.OrphansReissued, report.OrphansFree, report.OrphansLeaked = lp.OrphanTally()
	report.Routing = client.Counters()

	// Drain: once every deadline has passed and the probe released its
	// grants, no lease may remain active anywhere in the cluster.
	deadline := time.Now().Add(15 * time.Second)
	for {
		active, reporting := client.ClusterActive()
		report.Undrained = active
		if (active == 0 && reporting > 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Stop the watcher and fold its verdict in while the cluster is still
	// up: the end-of-run occupancy agreement re-scrapes every live member,
	// and the last sweep catches the final adoptions.
	watch.finalize(&report)
	report.FinalEpoch = client.Table().Epoch
	for _, m := range client.Table().Alive() {
		if s, err := client.NodeStats(m.Addr); err == nil {
			report.Nodes = append(report.Nodes, s)
		}
	}
	return report, nil
}

// adoptionProbe proves the failover healed: starting at the reclaim
// deadline, it keeps acquiring (and promptly releasing) until every adopted
// partition has granted at least once. It returns its grants and how many
// partitions never granted. Scale-free: it needs on the order of
// partitions-many grants, not a full namespace sweep.
func adoptionProbe(client *Client, lp *server.Loop, ttl time.Duration, adopted map[int]bool) (fills uint64, unserved int, err error) {
	waiting := maps.Clone(adopted)
	budget := time.Now().Add(15 * time.Second)
	for len(waiting) > 0 && time.Now().Before(budget) {
		sent := time.Now()
		g, status, hint, err := client.Acquire(ttl.Milliseconds())
		if err != nil {
			return fills, len(waiting), fmt.Errorf("chaos: adoption probe: %w", err)
		}
		switch {
		case status/100 == 2:
			lp.Grant(g, sent, time.Now())
			fills++
			delete(waiting, g.Partition)
			if err := lp.Release(g.Name, g.Token); err != nil {
				return fills, len(waiting), fmt.Errorf("chaos: adoption probe: %w", err)
			}
		case status == http.StatusServiceUnavailable:
			// Full or still warming: both push the probe past its budget if
			// they persist, which is exactly the failure being tested for.
			if hint <= 0 {
				hint = 20 * time.Millisecond
			}
			time.Sleep(hint)
		default:
			return fills, len(waiting), fmt.Errorf("chaos: adoption probe acquire returned %d", status)
		}
	}
	return fills, len(waiting), nil
}

// verifyOrphansFree checks every orphan never observed reissued against its
// current owner's /collect: absent means the slot healed (grantable again),
// present means the name is leaked. Returns how many remain leaked.
func verifyOrphansFree(client *Client, led *server.Ledger) (int, error) {
	t := client.Table()
	registered := make(map[int]map[int]bool) // member ID -> registered set
	for _, name := range led.Orphans() {
		owner, ok := t.Owner(t.PartitionOf(name))
		if !ok {
			continue
		}
		set, ok := registered[owner.ID]
		if !ok {
			names, err := client.CollectNode(owner.Addr)
			if err != nil {
				return len(led.Orphans()), err
			}
			set = make(map[int]bool, len(names))
			for _, n := range names {
				set[n] = true
			}
			registered[owner.ID] = set
		}
		if !set[name] {
			led.OrphanFree(name)
		}
	}
	return len(led.Orphans()), nil
}
