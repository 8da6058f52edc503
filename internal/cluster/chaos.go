package cluster

// The chaos load runner: the cluster-wide analogue of server.RunLoad. Closed-
// loop clients drive acquire/renew/release through the routed Client while a
// killer tears down live nodes mid-run; a global ledger verifies the cluster
// lease contract the ISSUE demands — zero duplicate names across nodes, no
// reissue of a name before its server-stated deadline, zero lost releases,
// stale tokens fenced — and a post-run phase proves failover healed the
// namespace: once the reclaim deadline (TTL + 2 wheel ticks after the epoch
// bump, plus slack) has passed, every adopted partition must grant again and
// none of the killed node's names may be leaked.
//
// Every legitimacy bound in the ledger is the server's own statement — the
// deadline_unix_ms it returned with the grant — never a client-side guess,
// so the checks are exact: a name reissued strictly before its previous
// lease's deadline is a violation, one reissued at or after it is not.

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
	// HTTPClient overrides the routed client's transport.
	HTTPClient *http.Client
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

// ChaosReport is the outcome of one chaos run: the traffic mix, failover
// accounting, and the verification ledger.
type ChaosReport struct {
	Acquires    uint64        `json:"acquires"`
	Renews      uint64        `json:"renews"`
	Releases    uint64        `json:"releases"`
	Crashes     uint64        `json:"crashes"`
	FullRetries uint64        `json:"full_retries"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	// WindowOps counts the verified operations completed inside Elapsed:
	// the adoption probe's grants and releases and the stale-token probes
	// that finish after the last client are left out.
	WindowOps uint64 `json:"window_ops"`

	AcquireP50 time.Duration `json:"acquire_p50_ns"`
	AcquireP90 time.Duration `json:"acquire_p90_ns"`
	AcquireP99 time.Duration `json:"acquire_p99_ns"`
	AcquireMax time.Duration `json:"acquire_max_ns"`

	// Failover accounting.
	Kills           int   `json:"kills"`
	KilledNodes     []int `json:"killed_nodes"`
	Restarts        int   `json:"restarts"`
	RestartedNodes  []int `json:"restarted_nodes,omitempty"`
	RestartFailures int   `json:"restart_failures"`
	// RestartPreempts counts kills resolved by the victim restarting before
	// any failover: the epoch never moved and the victim resumed its recorded
	// partitions from its journal. A legitimate outcome in restart mode (the
	// survivors may lack quorum, or the restart simply won the race); without
	// RestartAfter the same silence is a FailoverTimeout.
	RestartPreempts int    `json:"restart_preempts,omitempty"`
	EpochBumps      int    `json:"epoch_bumps"`
	FinalEpoch      uint64 `json:"final_epoch"`

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
	// Migration totals summed across the members' final /stats: plans the
	// stewards issued, snapshots shipped by sources, cutovers completed by
	// targets, plans unwound. Retired or dead members' counts are absent.
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
	// KilledSessions counts operations on leases that died with their node:
	// expected collateral, verified to be fenced, never a violation.
	KilledSessions uint64 `json:"killed_sessions"`
	// HolderLapses counts leases that expired under a paused holder (the
	// client outslept its own TTL): its later renew/release is fenced, which
	// is the contract working, not a violation.
	HolderLapses uint64 `json:"holder_lapses"`
	// FillAcquired counts the post-failover grantability probe's grants: the
	// probe keeps acquiring until every adopted partition has granted at
	// least once after the reclaim deadline.
	FillAcquired uint64        `json:"fill_acquired"`
	FillElapsed  time.Duration `json:"fill_elapsed_ns"`

	// StaleRejected counts stale-token probes correctly bounced with 409.
	StaleRejected uint64 `json:"stale_rejected"`
	// ProbesDropped counts fencing probes discarded because the verifier
	// backlog was full: those sessions' drains are still covered by the
	// final drain check, but their tokens went unprobed. Reported so a
	// shrunken verification surface is never silent.
	ProbesDropped uint64 `json:"probes_dropped"`

	// Violations.
	DuplicateNames  uint64 `json:"duplicate_names"`
	EarlyReissues   uint64 `json:"early_reissues"`
	LostReleases    uint64 `json:"lost_releases"`
	UnexpectedStale uint64 `json:"unexpected_stale"`
	StaleAccepted   uint64 `json:"stale_accepted"`
	// OrphansLeaked counts killed-node names still registered (per /collect)
	// after the reclaim deadline with no live lease the ledger knows of.
	OrphansLeaked int `json:"orphans_leaked"`
	// AdoptedUnserved counts failed-over partitions that never granted a
	// name after the reclaim deadline: the quarantine failed to lift.
	AdoptedUnserved  int   `json:"adopted_unserved"`
	FailoverTimeouts int   `json:"failover_timeouts"`
	Undrained        int64 `json:"undrained"`

	// Metrics-watcher verdict: the run is scraped from /metrics every
	// chaosScrapeInterval and the observability surface itself is verified.
	// MetricsScrapes is 0 and MetricsDisabled true when the targets serve no
	// /metrics (watcher auto-disables on a first-scrape 404).
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

	// Event-journal verdict: the run sweeps every member's /debug/events on
	// the metrics cadence and audits the merged timeline — the journal must
	// explain every ledger-relevant transition. EventCounts tallies the
	// captured timeline by event type.
	EventsCaptured int            `json:"events_captured"`
	EventsDisabled bool           `json:"events_disabled,omitempty"`
	EventCounts    map[string]int `json:"event_counts,omitempty"`
	// EventsUnexplainedBumps counts epoch_bump events with no recorded cause;
	// EventsDecisionlessFailovers counts steward reassignments whose epoch has
	// no failover_decision event (a failover the journal cannot explain);
	// EventsUnfencedAdoptions counts snapshot_adopt events with no fence_write
	// at the same epoch and partition.
	EventsUnexplainedBumps      int `json:"events_unexplained_bumps"`
	EventsDecisionlessFailovers int `json:"events_decisionless_failovers"`
	EventsUnfencedAdoptions     int `json:"events_unfenced_adoptions"`

	Routing ClientCounters      `json:"routing"`
	Nodes   []NodeStatsResponse `json:"nodes"`
}

// Ops returns the total number of verified operations.
func (r ChaosReport) Ops() uint64 {
	return r.Acquires + r.Renews + r.Releases + r.StaleRejected
}

// Throughput returns the verified operations per second completed inside
// the main phase.
func (r ChaosReport) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.WindowOps) / r.Elapsed.Seconds()
}

// Violations lists every broken cluster-contract invariant, nil when clean.
func (r ChaosReport) Violations() []string {
	var v []string
	if r.DuplicateNames > 0 {
		v = append(v, fmt.Sprintf("%d duplicate names held concurrently across the cluster", r.DuplicateNames))
	}
	if r.EarlyReissues > 0 {
		v = append(v, fmt.Sprintf("%d names reissued before the previous lease's deadline", r.EarlyReissues))
	}
	if r.LostReleases > 0 {
		v = append(v, fmt.Sprintf("%d releases of live leases rejected (lost release)", r.LostReleases))
	}
	if r.UnexpectedStale > 0 {
		v = append(v, fmt.Sprintf("%d live renews rejected as stale", r.UnexpectedStale))
	}
	if r.StaleAccepted > 0 {
		v = append(v, fmt.Sprintf("%d stale-token operations accepted after the reclaim deadline", r.StaleAccepted))
	}
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
	if r.Undrained != 0 {
		v = append(v, fmt.Sprintf("%d leases still active after every deadline passed", r.Undrained))
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
	if r.EventsUnfencedAdoptions > 0 {
		v = append(v, fmt.Sprintf("%d snapshot adoptions have no fence_write event", r.EventsUnfencedAdoptions))
	}
	if !r.EventsDisabled && r.EpochBumps > 0 && r.EventCounts[trace.EvEpochBump] == 0 {
		v = append(v, "epoch bumps invisible in the event journal")
	}
	if !r.EventsDisabled && r.EventsCaptured > 0 && r.MetricsQuarantines > 0 && r.EventCounts[trace.EvQuarantineStart] == 0 {
		v = append(v, "quarantine adoptions invisible in the event journal")
	}
	return v
}

// heldInfo is the ledger's record of one lease some client currently holds.
// deadline is the server's own statement from the grant (or last renew).
// node is the granting (or last-renewing) member — advisory only, since a
// live migration can move the lease to a new owner behind the holder's back.
// partition is authoritative: a name's partition never changes, only the
// partition's owner does, so kill sweeps go by partition.
type heldInfo struct {
	token     uint64
	node      int
	partition int
	deadline  time.Time
}

// orphanInfo tracks one name a killed node held: when it may legitimately
// reappear and whether it did.
type orphanInfo struct {
	name          int
	token         uint64
	earliestLegit time.Time // the dead lease's server-stated deadline
	deadline      time.Time // epoch bump + TTL + 2 ticks + slack
	reissuedAt    time.Time // zero until observed
}

// chaosLedger is the shared verification state. One mutex guards it all:
// operations are HTTP-paced (milliseconds), so contention is negligible.
type chaosLedger struct {
	mu        sync.Mutex
	held      map[int]heldInfo
	abandoned map[int]time.Time // client-crash abandons: the lease deadline
	orphaned  map[int]*orphanInfo
	resolved  []*orphanInfo // orphan records whose reissue was observed
	killed    map[int]bool  // node ID -> killed, its sessions swept (onKill)
	// dying holds the nodes killed before the killer has seen them fail
	// over: a client can reach an adopter, and have a dead lease rejected,
	// before onKill runs, so those sessions may fail already, while their
	// held records wait for onKill's sweep.
	dying map[int]bool
	// lapsed records (name, token) sessions whose lease expired under its
	// own holder (the ledger saw the name re-granted at/after the old
	// deadline); the holder's eventual renew/release 409 is then expected.
	// Tokens alone would not do: every partition's manager mints from its
	// own sequence, so a bare token value can be live on several names at
	// once.
	lapsed map[lapseKey]bool
	// adopted records the partitions kills moved to new owners; the
	// post-run probe must see each grant again.
	adopted map[int]bool

	duplicates      atomic.Uint64
	earlyReissues   atomic.Uint64
	lostReleases    atomic.Uint64
	unexpectedStale atomic.Uint64
	staleAccepted   atomic.Uint64
	staleRejected   atomic.Uint64
	fullRetries     atomic.Uint64
	killedSessions  atomic.Uint64
	holderLapses    atomic.Uint64

	acquires      atomic.Uint64
	renews        atomic.Uint64
	releases      atomic.Uint64
	crashes       atomic.Uint64
	fills         atomic.Uint64
	probesDropped atomic.Uint64

	lastAbandon atomic.Int64 // UnixNano of the latest abandoned-lease deadline
}

// lapseKey identifies one session: token values collide across partitions,
// names recycle — together they are unique.
type lapseKey struct {
	name  int
	token uint64
}

func newChaosLedger() *chaosLedger {
	return &chaosLedger{
		held:      make(map[int]heldInfo),
		abandoned: make(map[int]time.Time),
		orphaned:  make(map[int]*orphanInfo),
		killed:    make(map[int]bool),
		dying:     make(map[int]bool),
		lapsed:    make(map[lapseKey]bool),
		adopted:   make(map[int]bool),
	}
}

// onAcquire classifies a fresh grant against everything the ledger knows —
// duplicate of a live lease, orphan reissue (checked against the dead
// lease's deadline), reissue of an expired-under-holder lease, abandoned-
// name reissue — then records the grant as held.
func (led *chaosLedger) onAcquire(g GrantResponse, now time.Time) {
	led.mu.Lock()
	defer led.mu.Unlock()
	switch {
	case led.orphaned[g.Name] != nil:
		rec := led.orphaned[g.Name]
		rec.reissuedAt = now
		if now.Before(rec.earliestLegit) {
			led.earlyReissues.Add(1)
		}
		led.lapsed[lapseKey{g.Name, rec.token}] = true
		led.resolved = append(led.resolved, rec)
		delete(led.orphaned, g.Name)
	case led.held[g.Name].token != 0:
		old := led.held[g.Name]
		switch {
		case led.killed[old.node]:
			// The lease died with its node but the kill sweep had not run
			// yet: an orphan reissue, bounded by the dead lease's deadline.
			if now.Before(old.deadline) {
				led.earlyReissues.Add(1)
			}
			led.lapsed[lapseKey{g.Name, old.token}] = true
			led.resolved = append(led.resolved, &orphanInfo{name: g.Name, token: old.token, earliestLegit: old.deadline, reissuedAt: now})
		case !now.Before(old.deadline):
			// The old lease expired under a holder that outslept its TTL;
			// reissue at/after the deadline is the contract working.
			led.lapsed[lapseKey{g.Name, old.token}] = true
			led.holderLapses.Add(1)
		default:
			led.duplicates.Add(1)
		}
	default:
		if earliest, ok := led.abandoned[g.Name]; ok {
			if now.Before(earliest) {
				led.earlyReissues.Add(1)
			}
			delete(led.abandoned, g.Name)
		}
	}
	led.held[g.Name] = heldInfo{token: g.Token, node: g.NodeID, partition: g.Partition, deadline: time.UnixMilli(g.DeadlineUnixMillis)}
	led.acquires.Add(1)
}

// onRenewOK installs the renewed deadline and refreshes the node attribution:
// the renew response names the current owner, which a migration may have
// moved since the grant.
func (led *chaosLedger) onRenewOK(name int, token uint64, renewed GrantResponse) {
	led.mu.Lock()
	if h, ok := led.held[name]; ok && h.token == token {
		h.deadline = time.UnixMilli(renewed.DeadlineUnixMillis)
		h.node = renewed.NodeID
		led.held[name] = h
	}
	led.mu.Unlock()
	led.renews.Add(1)
}

// failureKind classifies a fenced (or transport-failed) renew/release of the
// lease (name, token).
type failureKind int

const (
	failureViolation failureKind = iota // nothing explains it: a real violation
	failureKilled                       // the lease died with its killed node
	failureLapsed                       // the lease expired under its holder
)

// classifyFailure explains a fenced renew/release. It removes the held
// record for explained failures, since the lease is dead either way.
func (led *chaosLedger) classifyFailure(name int, token uint64, now time.Time) failureKind {
	led.mu.Lock()
	defer led.mu.Unlock()
	if rec, ok := led.orphaned[name]; ok && rec.token == token {
		return failureKilled
	}
	if led.lapsed[lapseKey{name, token}] {
		return failureLapsed
	}
	for _, rec := range led.resolved {
		if rec.name == name && rec.token == token {
			return failureKilled
		}
	}
	if h, ok := led.held[name]; ok && h.token == token {
		if led.killed[h.node] {
			delete(led.held, name)
			return failureKilled
		}
		if led.dying[h.node] {
			return failureKilled // onKill turns the record into an orphan
		}
		if !now.Before(h.deadline) {
			delete(led.held, name)
			led.lapsed[lapseKey{name, token}] = true
			return failureLapsed
		}
	}
	return failureViolation
}

// beginRelease removes the held record BEFORE the release request is sent:
// the server frees the name at some instant inside the HTTP exchange, and a
// concurrent client can legitimately be granted it before our response comes
// back — the ledger must not call that a duplicate.
func (led *chaosLedger) beginRelease(name int, token uint64) (heldInfo, bool) {
	led.mu.Lock()
	defer led.mu.Unlock()
	h, ok := led.held[name]
	if !ok || h.token != token {
		return heldInfo{}, false
	}
	delete(led.held, name)
	return h, true
}

// onCrash abandons the lease: the name may be reissued once its
// server-stated deadline passes. Returns the deadline, or false when the
// lease was already orphaned or lapsed.
func (led *chaosLedger) onCrash(name int, token uint64) (time.Time, bool) {
	led.mu.Lock()
	defer led.mu.Unlock()
	h, ok := led.held[name]
	if !ok || h.token != token {
		return time.Time{}, false
	}
	delete(led.held, name)
	led.abandoned[name] = h.deadline
	for {
		last := led.lastAbandon.Load()
		if h.deadline.UnixNano() <= last || led.lastAbandon.CompareAndSwap(last, h.deadline.UnixNano()) {
			break
		}
	}
	led.crashes.Add(1)
	return h.deadline, true
}

// onKill sweeps every lease living on the killed node into the orphan set,
// records the partitions that changed hands, and returns the swept records
// for fencing verification. The sweep keys on the victim's owned partitions
// at death, not on which node granted the lease: a lease granted elsewhere
// and migrated onto the victim died with it, while one migrated off the
// victim before the kill is alive on its new owner and must not be orphaned.
func (led *chaosLedger) onKill(victim int, victimParts []int, bumpAt time.Time, reclaimBound time.Duration) []staleProbe {
	led.mu.Lock()
	defer led.mu.Unlock()
	led.killed[victim] = true
	victimSet := make(map[int]bool, len(victimParts))
	for _, p := range victimParts {
		led.adopted[p] = true
		victimSet[p] = true
	}
	var probes []staleProbe
	for name, h := range led.held {
		if !victimSet[h.partition] {
			continue
		}
		rec := &orphanInfo{
			name:          name,
			token:         h.token,
			earliestLegit: h.deadline,
			deadline:      bumpAt.Add(reclaimBound),
		}
		delete(led.held, name)
		led.orphaned[name] = rec
		probes = append(probes, staleProbe{name: name, token: h.token, notBefore: rec.deadline})
	}
	return probes
}

// adoptedSnapshot returns the partitions that failed over so far.
func (led *chaosLedger) adoptedSnapshot() []int {
	led.mu.Lock()
	defer led.mu.Unlock()
	out := make([]int, 0, len(led.adopted))
	for p := range led.adopted {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// unresolvedOrphans returns the orphan names never observed reissued.
func (led *chaosLedger) unresolvedOrphans() []int {
	led.mu.Lock()
	defer led.mu.Unlock()
	out := make([]int, 0, len(led.orphaned))
	for name := range led.orphaned {
		out = append(out, name)
	}
	sort.Ints(out)
	return out
}

// resolveOrphanFree marks an unresolved orphan verified-free (absent from
// its owner's registered set after the deadline).
func (led *chaosLedger) resolveOrphanFree(name int) {
	led.mu.Lock()
	defer led.mu.Unlock()
	if rec, ok := led.orphaned[name]; ok {
		led.resolved = append(led.resolved, rec)
		delete(led.orphaned, name)
	}
}

// orphanTally counts the orphan records: total events, observed reissues,
// verified-free, and leaked (neither).
func (led *chaosLedger) orphanTally() (events, reissued, free, leaked int) {
	led.mu.Lock()
	defer led.mu.Unlock()
	events = len(led.orphaned) + len(led.resolved)
	for _, rec := range led.resolved {
		if rec.reissuedAt.IsZero() {
			free++
		} else {
			reissued++
		}
	}
	leaked = len(led.orphaned)
	return
}

// staleProbe is one dead token queued for fencing verification.
type staleProbe struct {
	name      int
	token     uint64
	notBefore time.Time
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
		HTTPClient:   cfg.HTTPClient,
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
	// reclaimBound is the contractual window after an epoch bump within
	// which a killed node's names must be fenced and reissuable: the TTL any
	// of its leases could still run, plus two wheel ticks, plus slack.
	reclaimBound := cfg.TTL + 2*tick + cfg.ReclaimSlack

	// The metrics watcher scrapes /metrics from every member throughout the
	// run; a first-scrape 404 (metrics disabled) silently turns it off. The
	// events watcher sweeps /debug/events the same way, assembling the
	// cluster timeline before kills can destroy in-memory rings.
	watch := startMetricsWatcher(cfg.Targets, cfg.HTTPClient, cfg.Logf)
	evwatch := startEventsWatcher(cfg.Targets, cfg.HTTPClient, cfg.Logf)

	led := newChaosLedger()
	var (
		remaining atomic.Int64
		failed    atomic.Bool
		wg        sync.WaitGroup
		probeWG   sync.WaitGroup
		probes    = make(chan staleProbe, 8192)
		latMu     sync.Mutex
		latencies []time.Duration
		errOnce   sync.Once
		runErr    error
		killDone  = make(chan struct{})
		killStop  = make(chan struct{})
		firstKill = make(chan struct{}) // closed once the first kill has resolved
		restartWG sync.WaitGroup
		report    ChaosReport
		reportMu  sync.Mutex // guards report's failover fields written by the killer
	)
	remaining.Store(cfg.Acquires)
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
		failed.Store(true)
	}
	// more reports whether a client starts another round: while acquires
	// remain, then on until the first kill has resolved or the killer has
	// stopped (at once without a kill schedule, whose killDone is closed).
	more := func() bool {
		if failed.Load() {
			return false
		}
		if remaining.Add(-1) >= 0 {
			return true
		}
		select {
		case <-firstKill:
			return false
		case <-killDone:
			return false
		default:
			return true
		}
	}

	// Fencing verifiers: once an orphan or abandon deadline has passed, its
	// token must be dead cluster-wide — renew and release must both bounce.
	for i := 0; i < 4; i++ {
		probeWG.Add(1)
		go func() {
			defer probeWG.Done()
			for p := range probes {
				if wait := time.Until(p.notBefore); wait > 0 {
					time.Sleep(wait)
				}
				if _, status, err := client.Renew(p.name, p.token, cfg.TTL.Milliseconds()); err == nil {
					if status/100 == 2 {
						led.staleAccepted.Add(1)
					} else {
						led.staleRejected.Add(1)
					}
				}
				if status, err := client.Release(p.name, p.token); err == nil {
					if status/100 == 2 {
						led.staleAccepted.Add(1)
					} else {
						led.staleRejected.Add(1)
					}
				}
			}
		}()
	}

	// awaitFailover waits for a kill to resolve: the survivors bump the epoch
	// past before, or — in restart mode — the victim returns first and
	// resumes its recorded partitions under the unchanged epoch (the
	// survivors may lack quorum to fail over at all, and the victim's journal
	// makes the resume safe). Returns (bumped, resumed).
	awaitFailover := func(local *Local, before uint64, victim int, restartMode bool, timeout time.Duration) (bool, bool) {
		deadline := time.Now().Add(timeout)
		for {
			if local.MaxEpoch() > before {
				return true, false
			}
			if restartMode && local.Node(victim) != nil {
				return false, true
			}
			if time.Now().After(deadline) {
				return false, false
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
		go func() {
			defer close(killDone)
			gen := rng.New(rng.KindSplitMix, cfg.Seed^0xD1CEB00C)
			fired := false
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
				before := cfg.Local.MaxEpoch()
				cfg.Logf("chaos: killing node %d (epoch %d, %d alive, partitions %v)", victim, before, len(alive), victimParts)
				led.onDeath(victim)
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
						watch.noteRestart(cfg.Targets[victim])
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
				bumped, resumed := awaitFailover(cfg.Local, before, victim, cfg.RestartAfter > 0, 30*time.Second)
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
				for _, p := range led.onKill(victim, victimParts, bumpAt, reclaimBound) {
					select {
					case probes <- p:
					default:
						led.probesDropped.Add(1)
					}
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
			if drainee < len(cfg.Targets) {
				watch.noteDrained(cfg.Targets[drainee])
			}
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

	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			gen := rng.New(rng.KindSplitMix, cfg.Seed+uint64(id)*0x9E3779B97F4A7C15+1)
			for more() {
				if err := chaosRound(client, cfg, led, gen, tick, probes, &latMu, &latencies); err != nil {
					fail(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	report.Elapsed = time.Since(start)
	report.WindowOps = led.acquires.Load() + led.renews.Load() + led.releases.Load() + led.staleRejected.Load()
	close(killStop)
	<-killDone
	<-growDone
	// Pending restarts must land before verification: a restarted node that
	// double-issues would otherwise dodge the ledger, and the caller may
	// Close the cluster as soon as we return.
	restartWG.Wait()
	close(probes)
	probeWG.Wait()
	if runErr != nil {
		watch.finalize(&report)
		evwatch.finalize(&report)
		return ChaosReport{}, fmt.Errorf("chaos: %w", runErr)
	}

	// Post-run verification: wait out every reclaim deadline, then prove the
	// failover healed the namespace — every adopted partition grants again,
	// and none of the killed nodes' names is leaked.
	sleepUntilDeadlines(led, tick, cfg.ReclaimSlack)
	if report.Kills > 0 {
		fillStart := time.Now()
		unserved, err := adoptionProbe(client, cfg, led)
		if err != nil {
			watch.finalize(&report)
			evwatch.finalize(&report)
			return report, err
		}
		report.AdoptedUnserved = unserved
		report.FillElapsed = time.Since(fillStart)
		if leaked, err := verifyOrphansFree(client, led); err != nil {
			cfg.Logf("chaos: orphan collect verification incomplete: %v", err)
		} else if leaked > 0 {
			cfg.Logf("chaos: %d orphans still registered after the deadline", leaked)
		}
	}

	report.Acquires = led.acquires.Load()
	report.Renews = led.renews.Load()
	report.Releases = led.releases.Load()
	report.Crashes = led.crashes.Load()
	report.FullRetries = led.fullRetries.Load()
	report.KilledSessions = led.killedSessions.Load()
	report.HolderLapses = led.holderLapses.Load()
	report.FillAcquired = led.fills.Load()
	report.StaleRejected = led.staleRejected.Load()
	report.ProbesDropped = led.probesDropped.Load()
	if report.ProbesDropped > 0 {
		cfg.Logf("chaos: %d fencing probes dropped (verifier backlog full)", report.ProbesDropped)
	}
	report.DuplicateNames = led.duplicates.Load()
	report.EarlyReissues = led.earlyReissues.Load()
	report.LostReleases = led.lostReleases.Load()
	report.UnexpectedStale = led.unexpectedStale.Load()
	report.StaleAccepted = led.staleAccepted.Load()
	report.OrphanEvents, report.OrphansReissued, report.OrphansFree, report.OrphansLeaked = led.orphanTally()
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
	// Stop the watchers and fold their verdicts in while the cluster is
	// still up: the end-of-run occupancy agreement re-scrapes every live
	// member, and the last event sweep catches the final adoptions.
	watch.finalize(&report)
	evwatch.finalize(&report)
	report.FinalEpoch = client.Table().Epoch
	for _, m := range client.Table().Alive() {
		if s, err := client.NodeStats(m.Addr); err == nil {
			report.Nodes = append(report.Nodes, s)
		}
	}
	for _, s := range report.Nodes {
		report.MigrationsPlanned += s.Migrations.Planned
		report.MigrationsStaged += s.Migrations.Staged
		report.MigrationsCutover += s.Migrations.Cutover
		report.MigrationsAborted += s.Migrations.Aborted
	}

	slices.Sort(latencies)
	report.AcquireP50 = server.Percentile(latencies, 0.50)
	report.AcquireP90 = server.Percentile(latencies, 0.90)
	report.AcquireP99 = server.Percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		report.AcquireMax = latencies[n-1]
	}
	return report, nil
}

// chaosRound is one closed-loop iteration over the routed client.
func chaosRound(client *Client, cfg ChaosConfig, led *chaosLedger, gen rng.Source, tick time.Duration, probes chan<- staleProbe, latMu *sync.Mutex, latencies *[]time.Duration) error {
	ttlMillis := cfg.TTL.Milliseconds()
	var g GrantResponse
	for {
		t0 := time.Now()
		grant, status, hint, err := client.Acquire(ttlMillis)
		lat := time.Since(t0)
		if err != nil {
			return err
		}
		if status/100 == 2 {
			g = grant
			latMu.Lock()
			*latencies = append(*latencies, lat)
			latMu.Unlock()
			break
		}
		if status == http.StatusServiceUnavailable {
			led.fullRetries.Add(1)
			if hint <= 0 {
				hint = tick
			}
			time.Sleep(hint)
			continue
		}
		return fmt.Errorf("acquire returned status %d", status)
	}
	led.onAcquire(g, time.Now())

	server.Hold(cfg.HoldMean, gen)
	if cfg.RenewPercent > 0 && gen.Intn(100) < cfg.RenewPercent {
		renewed, status, err := client.Renew(g.Name, g.Token, ttlMillis)
		switch {
		case err != nil || status/100 != 2:
			// A renew may legitimately fail only because the lease died with
			// its node or expired under us; anything else is a violation.
			switch led.classifyFailure(g.Name, g.Token, time.Now()) {
			case failureKilled:
				led.killedSessions.Add(1)
				return nil
			case failureLapsed:
				led.holderLapses.Add(1)
				return nil
			}
			if err != nil {
				return fmt.Errorf("renew: %w", err)
			}
			led.unexpectedStale.Add(1)
		default:
			led.onRenewOK(g.Name, g.Token, renewed)
		}
		server.Hold(cfg.HoldMean, gen)
	}

	if cfg.CrashPercent > 0 && gen.Intn(100) < cfg.CrashPercent {
		if deadline, ok := led.onCrash(g.Name, g.Token); ok {
			select {
			case probes <- staleProbe{name: g.Name, token: g.Token, notBefore: deadline.Add(2*tick + cfg.ReclaimSlack)}:
			default:
				led.probesDropped.Add(1)
			}
		}
		return nil
	}

	h, ok := led.beginRelease(g.Name, g.Token)
	if !ok {
		// A kill sweep (or an observed lapse) took the lease from under us.
		led.killedSessions.Add(1)
		return nil
	}
	status, err := client.Release(g.Name, g.Token)
	if err != nil || status/100 != 2 {
		switch led.classifyFailure(g.Name, g.Token, time.Now()) {
		case failureKilled:
			led.killedSessions.Add(1)
			return nil
		case failureLapsed:
			led.holderLapses.Add(1)
			return nil
		}
		// classifyFailure no longer sees the held record (beginRelease took
		// it): judge by the record we removed.
		if led.killedNode(h.node) {
			led.killedSessions.Add(1)
			return nil
		}
		if !time.Now().Before(h.deadline) {
			led.holderLapses.Add(1)
			return nil
		}
		if err != nil {
			return fmt.Errorf("release: %w", err)
		}
		led.lostReleases.Add(1)
		return nil
	}
	led.releases.Add(1)
	return nil
}

// onDeath records that the killer is about to kill victim.
func (led *chaosLedger) onDeath(victim int) {
	led.mu.Lock()
	defer led.mu.Unlock()
	led.dying[victim] = true
}

// killedNode reports whether the node is known killed.
func (led *chaosLedger) killedNode(id int) bool {
	led.mu.Lock()
	defer led.mu.Unlock()
	return led.killed[id] || led.dying[id]
}

// sleepUntilDeadlines waits until every orphan and abandon deadline has
// passed, so the healing probes and drain check measure obligations, not
// races.
func sleepUntilDeadlines(led *chaosLedger, tick, slack time.Duration) {
	var until time.Time
	led.mu.Lock()
	for _, rec := range led.orphaned {
		if rec.deadline.After(until) {
			until = rec.deadline
		}
	}
	led.mu.Unlock()
	if last := led.lastAbandon.Load(); last != 0 {
		if t := time.Unix(0, last).Add(2*tick + slack); t.After(until) {
			until = t
		}
	}
	if wait := time.Until(until); wait > 0 {
		time.Sleep(wait)
	}
}

// adoptionProbe proves the failover healed: starting at the reclaim
// deadline, it keeps acquiring (and promptly releasing) until every adopted
// partition has granted at least once, and returns how many never did.
// Scale-free: it needs on the order of partitions-many grants, not a full
// namespace sweep.
func adoptionProbe(client *Client, cfg ChaosConfig, led *chaosLedger) (unserved int, err error) {
	waiting := make(map[int]bool)
	for _, p := range led.adoptedSnapshot() {
		waiting[p] = true
	}
	if len(waiting) == 0 {
		return 0, nil
	}
	budget := time.Now().Add(15 * time.Second)
	for len(waiting) > 0 && time.Now().Before(budget) {
		g, status, hint, aerr := client.Acquire(cfg.TTL.Milliseconds())
		if aerr != nil {
			return len(waiting), fmt.Errorf("chaos: adoption probe: %w", aerr)
		}
		switch {
		case status/100 == 2:
			led.onAcquire(g, time.Now())
			led.fills.Add(1)
			delete(waiting, g.Partition)
			if h, ok := led.beginRelease(g.Name, g.Token); ok {
				if status, rerr := client.Release(g.Name, g.Token); rerr == nil && status/100 == 2 {
					led.releases.Add(1)
				} else if time.Now().Before(h.deadline) {
					led.lostReleases.Add(1)
				}
			}
		case status == http.StatusServiceUnavailable:
			// Full or still warming: both push the probe past its budget if
			// they persist, which is exactly the failure being tested for.
			if hint <= 0 {
				hint = 20 * time.Millisecond
			}
			time.Sleep(hint)
		default:
			return len(waiting), fmt.Errorf("chaos: adoption probe acquire returned %d", status)
		}
	}
	return len(waiting), nil
}

// verifyOrphansFree checks every orphan never observed reissued against its
// current owner's /collect: absent means the slot healed (grantable again),
// present means the name is leaked. Returns how many remain leaked.
func verifyOrphansFree(client *Client, led *chaosLedger) (int, error) {
	unresolved := led.unresolvedOrphans()
	if len(unresolved) == 0 {
		return 0, nil
	}
	t := client.Table()
	registered := make(map[int]map[int]bool) // member ID -> registered set
	for _, name := range unresolved {
		owner, ok := t.Owner(t.PartitionOf(name))
		if !ok {
			continue
		}
		set, ok := registered[owner.ID]
		if !ok {
			names, err := client.CollectNode(owner.Addr)
			if err != nil {
				return len(led.unresolvedOrphans()), err
			}
			set = make(map[int]bool, len(names))
			for _, n := range names {
				set[n] = true
			}
			registered[owner.ID] = set
		}
		if !set[name] {
			led.resolveOrphanFree(name)
		}
	}
	return len(led.unresolvedOrphans()), nil
}
