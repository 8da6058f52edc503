package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/rebalance"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wal"
)

// Error codes the cluster node adds to the single-node vocabulary.
const (
	// ErrCodeStaleEpoch is the 412 body code: the write's epoch does not
	// match the node's table.
	ErrCodeStaleEpoch = "stale_epoch"
	// ErrCodeNotOwner is the 421 body code: the node does not own the
	// partition the name belongs to; the client should refresh its table.
	ErrCodeNotOwner = "not_owner"
	// ErrCodeWarming is a 503 body code: every open partition the node owns
	// is still quarantined after a failover adoption.
	ErrCodeWarming = "warming"
	// ErrCodeNoPartitions is a 503 body code: the node currently owns no
	// partitions at all.
	ErrCodeNoPartitions = "no_partitions"
)

// GrantResponse is the body of a clustered /acquire and /renew; see
// server.GrantResponse.
type GrantResponse = server.GrantResponse

// EpochResponse is the body of a 412, a 421 and of POST /cluster replies;
// see server.EpochResponse.
type EpochResponse = server.EpochResponse

// HealthResponse is the body of a clustered /healthz. Epoch rides along so
// the health probes that drive failure detection double as the anti-entropy
// signal: a prober that sees a higher epoch pulls the newer table. Build and
// uptime identity ride along too, so a probe can tell a fresh restart from a
// long-lived process.
type HealthResponse struct {
	OK           bool   `json:"ok"`
	NodeID       int    `json:"node_id"`
	Epoch        uint64 `json:"epoch"`
	Version      string `json:"version,omitempty"`
	GoVersion    string `json:"go_version,omitempty"`
	UptimeMillis int64  `json:"uptime_ms,omitempty"`
}

// NodeLeasesResponse is the body of a clustered /leases page: sessions under
// cluster-global names, walked across the node's owned partitions in name
// order.
type NodeLeasesResponse struct {
	Sessions []server.SessionJSON `json:"sessions"`
	Next     int                  `json:"next"`
	Active   int                  `json:"active"`
	NodeID   int                  `json:"node_id"`
	Epoch    uint64               `json:"epoch"`
}

// PartitionStats describes one owned partition in a /stats response — the
// per-partition load signal rebalancing decisions read.
type PartitionStats struct {
	Partition int `json:"partition"`
	Capacity  int `json:"capacity"`
	Size      int `json:"size"`
	// QuarantinedMillis is the remaining quarantine after a failover
	// adoption; 0 once the partition serves acquires.
	QuarantinedMillis int64       `json:"quarantined_ms,omitempty"`
	LoadFactor        float64     `json:"load_factor"`
	Lease             lease.Stats `json:"lease"`
}

// MigrationStats counts one node's live-migration activity by phase: plans
// it stewarded, snapshots it shipped as a source, cutovers it completed as a
// target, and plans unwound before cutover. Each is its journal's total of
// the phase's event.
type MigrationStats struct {
	Planned uint64 `json:"planned"`
	Staged  uint64 `json:"staged"`
	Cutover uint64 `json:"cutover"`
	Aborted uint64 `json:"aborted"`
}

// NodeStatsResponse is the body of a clustered /stats.
type NodeStatsResponse struct {
	NodeID int    `json:"node_id"`
	Epoch  uint64 `json:"epoch"`
	// State is this member's lifecycle state in its own table view.
	State             string           `json:"state,omitempty"`
	TickMillis        int64            `json:"tick_ms"`
	UptimeMillis      int64            `json:"uptime_ms"`
	Active            int64            `json:"active"`
	Capacity          int              `json:"capacity"`
	Adoptions         uint64           `json:"adoptions"`
	Quarantines       uint64           `json:"quarantines"`
	Misroutes         uint64           `json:"misroutes"`
	StaleEpochRejects uint64           `json:"stale_epoch_rejects"`
	Migrations        MigrationStats   `json:"migrations"`
	Partitions        []PartitionStats `json:"partitions"`
}

// NodeConfig parameterizes one cluster member.
type NodeConfig struct {
	// NodeID is this node's index into Peers.
	NodeID int
	// Peers lists every member's advertised base URL, in member-ID order;
	// all nodes must be configured with the same list.
	Peers []string
	// WirePeers optionally lists every member's advertised wire-protocol
	// endpoint (host:port), index-aligned with Peers; empty entries mean
	// that member serves HTTP only. All nodes must agree on the list, since
	// it becomes part of the shared membership table.
	WirePeers []string
	// Partitions is P, the cluster-wide partition count (a power of two).
	Partitions int
	// NewPartitionArray builds the backing array of one partition. Every
	// node must use an identical factory (same capacity and layout per
	// partition) so namespaces line up across owners; it is called again on
	// the new owner when a partition fails over.
	NewPartitionArray func(partition int) (activity.Array, error)
	// Lease parameterizes each partition's manager. MaxTTL is forced to the
	// node's MaxTTL.
	Lease lease.Config
	// DefaultTTL is applied when an acquire omits its TTL. Zero selects 10s
	// (clamped to MaxTTL).
	DefaultTTL time.Duration
	// MaxTTL bounds every lease TTL and thereby the failover handover: an
	// adopted partition is quarantined until every lease the old owner could
	// still have outstanding has expired. Zero selects 30s. Infinite leases
	// are rejected in cluster mode.
	MaxTTL time.Duration
	// Quarantine overrides the adoption quarantine. Zero selects
	// MaxTTL + 2 lease ticks, matching the reissue bound the chaos ledger
	// asserts.
	Quarantine time.Duration
	// ProbeInterval is the peer health-probe cadence. Zero selects 250ms.
	ProbeInterval time.Duration
	// DownAfter is the consecutive probe misses before a peer is suspected.
	// Zero selects 3.
	DownAfter int
	// DataDir enables durable lease state: each owned partition journals its
	// transitions to DataDir/p<ID> (WAL + periodic snapshots) and the node
	// persists every adopted membership table to DataDir/node.json. A
	// restarted node replays its partitions and rejoins at its recorded
	// epoch: a fast restart (before the peers detect the crash) resumes with
	// every lease intact and no quarantine; a restart after a failover finds
	// its epoch stale and self-fences instead of double-issuing. Empty keeps
	// the node purely in-memory.
	DataDir string
	// WALSync is the journal durability policy (default wal.SyncAlways:
	// group-committed fsync before every ack).
	WALSync wal.SyncPolicy
	// WALSyncInterval is the fsync cadence under wal.SyncInterval. Zero
	// selects 25ms.
	WALSyncInterval time.Duration
	// CheckpointEvery is the per-partition snapshot cadence (the log
	// truncates at each snapshot). Zero selects 30s.
	CheckpointEvery time.Duration
	// Metrics, when non-nil, instruments the lease operations, registers the
	// cluster families on its registry, and mounts GET /metrics plus the
	// pprof routes on this node's mux.
	Metrics *server.Metrics
	// MetricsElsewhere suppresses the /metrics + pprof mounts (operations
	// still record) when the registry is served on a dedicated listener.
	MetricsElsewhere bool
	// Logf, when set, receives membership-event logs (including the
	// formatted mirror of every structured event the node journals).
	Logf func(format string, args ...any)
	// Tracer, when non-nil, is the node's flight recorder: every lease
	// operation (both protocols) records a phase-attributed span, served at
	// GET /debug/trace and /debug/trace/slow.
	Tracer *trace.Recorder
	// Clock overrides the time source for quarantine arithmetic (tests).
	// Nil selects time.Now. The lease managers keep their own Config.Clock.
	Clock func() time.Time
	// Bootstrap, when set, is the membership table a join admission returned:
	// the node boots from it (typically as a joining member owning nothing)
	// instead of constructing the epoch-1 table from Peers. Peers/WirePeers
	// may be left empty; they are derived from the table's members. A
	// recorded table in DataDir still wins (restart of a joined node).
	Bootstrap *Table
	// RebalanceEvery is the steward's migration-planner cadence. Each round
	// observes every serving member's per-partition load factors and performs
	// at most one move: emptying draining members first, then filling live
	// members that own nothing, then (only with RebalanceThreshold > 0)
	// spreading load. Zero selects 1s; negative disables the planner.
	RebalanceEvery time.Duration
	// RebalanceThreshold is the mean load-factor spread between the hottest
	// and coolest live members above which the planner moves a hot partition
	// downhill. Zero disables load-driven moves; drain and join-fill moves
	// always run while the planner itself is enabled.
	RebalanceThreshold float64
	// MigrateTimeout bounds a migration's fence window on the source: if no
	// cutover or abort arrives within it (steward death, lost push), the
	// source unfences the partition and resumes serving it. Zero selects 3s
	// — well inside the routed client's 421 retry budget, so even a stuck
	// migration resolves before clients give up. A shipped snapshot staged
	// on the target expires after half this, so a stale stage can never
	// install after its source has unfenced.
	MigrateTimeout time.Duration
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.DefaultTTL <= 0 {
		c.DefaultTTL = 10 * time.Second
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = 30 * time.Second
	}
	if c.DefaultTTL > c.MaxTTL {
		c.DefaultTTL = c.MaxTTL
	}
	c.Lease.MaxTTL = c.MaxTTL
	if c.Lease.TickInterval <= 0 {
		c.Lease.TickInterval = 100 * time.Millisecond
	}
	if c.Quarantine <= 0 {
		c.Quarantine = c.MaxTTL + 2*c.Lease.TickInterval
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.WALSyncInterval <= 0 {
		c.WALSyncInterval = 25 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.RebalanceEvery == 0 {
		c.RebalanceEvery = time.Second
	}
	if c.MigrateTimeout <= 0 {
		c.MigrateTimeout = 3 * time.Second
	}
	return c
}

// peerClient carries every node-to-node call: probes, table pulls and
// pushes, steward proxying and migration control.
var peerClient = &http.Client{Timeout: 2 * time.Second}

// rejoinAfter is the number of consecutive healthy probes of a down member
// before the steward re-ups it (live, owning nothing; the planner hands it
// partitions again).
const rejoinAfter = 2

// partition is one owned slice of the namespace: a lease manager over its
// own array, plus the quarantine gate applied after a failover adoption.
type partition struct {
	id  int
	mgr *lease.Manager
	// store is the partition's durable journal (nil without DataDir); the
	// manager journals through it and stopCk halts its checkpoint loop.
	store  *wal.Store
	stopCk func()
	// quarantineUntil gates acquires on an adopted partition: until every
	// lease the previous owner could still have outstanding has expired, the
	// partition serves only 503s, so a name granted by the dead node can
	// never be concurrently reissued here. Zero for initial partitions and
	// for migration cutovers (the source's fence replaces the wait).
	quarantineUntil time.Time
	// migrating fences the partition during a live migration: acquires skip
	// it and renew/release answer 421, so once the fence is taken (under the
	// table write lock, which waits out every in-flight op) the exported
	// snapshot is the partition's final word bar expirations. migrateEpoch is
	// the cutover epoch the fence was taken for; the fence self-releases at
	// the configured MigrateTimeout if neither cutover nor abort arrived.
	migrating    bool
	migrateEpoch uint64
}

// startCheckpoints launches the partition's periodic snapshot loop (no-op
// without a journal); idempotent per incarnation via the stopCk handoff.
func (part *partition) startCheckpoints(n *Node) {
	if part.store == nil || part.stopCk != nil {
		return
	}
	id := uint32(part.id)
	part.stopCk = part.mgr.StartCheckpoints(n.cfg.CheckpointEvery, func() (uint32, uint64) {
		return id, n.Epoch()
	}, func(err error) {
		n.cfg.Logf("cluster: node %d: checkpoint partition %d: %v", n.cfg.NodeID, part.id, err)
	})
}

// close stops the partition's machinery. With clean set (graceful shutdown)
// it writes a final clean-shutdown snapshot, which the next boot replays
// alone; without it (crash simulation, or losing the partition to a newer
// table whose owner may be reading these files) nothing more is written.
func (part *partition) close(n *Node, epoch uint64, clean bool) {
	if part.stopCk != nil {
		part.stopCk()
		part.stopCk = nil
	}
	part.mgr.Close()
	if part.store == nil {
		return
	}
	if clean {
		if err := part.mgr.Checkpoint(uint32(part.id), epoch, true); err != nil {
			n.cfg.Logf("cluster: node %d: final checkpoint partition %d: %v", n.cfg.NodeID, part.id, err)
		}
	}
	if err := part.store.Close(); err != nil {
		n.cfg.Logf("cluster: node %d: closing wal partition %d: %v", n.cfg.NodeID, part.id, err)
	}
}

// Node is one cluster member: the owned partitions, the membership table,
// and the HTTP API. Build it with NewNode, then Start it.
type Node struct {
	cfg  NodeConfig
	h    http.Handler
	wire *server.WireBackend

	// events is the control-plane journal. It is the one record of every
	// transition the node takes: /stats and the la_cluster_* transition
	// counters read its per-type totals.
	events *trace.EventLog

	mu       sync.RWMutex
	table    Table
	parts    map[int]*partition
	ownedIDs []int // sorted keys of parts
	// staged holds snapshots shipped by migration sources, keyed by
	// partition, waiting for the cutover table to install them (guarded by
	// mu). Entries expire (stale plans must never install) and are dropped
	// the moment the partition is adopted or superseded.
	staged map[int]stagedSnapshot

	rr        atomic.Uint64 // acquire round-robin over owned partitions
	misroutes atomic.Uint64 // 421s: names of partitions not served here

	// loads is the steward's planner cache, fed concurrently by per-member
	// stats fetches each planner round.
	loads       *rebalance.Cache
	rebalanceMu sync.Mutex // serializes planner rounds (ticker vs forced)

	// Prober telemetry (see registerMetrics).
	probes      atomic.Uint64
	probeMisses atomic.Uint64
	failovers   atomic.Uint64
	tablePushes atomic.Uint64
	tablePulls  atomic.Uint64

	refreshC chan struct{}

	// Durability telemetry: boot replay duration and sessions restored
	// (recoveredBoot also triggers an immediate anti-entropy pull, since the
	// recorded epoch may be stale).
	recoveryNanos    atomic.Int64
	restoredSessions atomic.Uint64
	recoveredBoot    bool

	lifeMu     sync.Mutex
	running    bool
	closed     atomic.Bool
	stopClosed bool
	stop       chan struct{}
	done       chan struct{}
	pushes     sync.WaitGroup // pushTable's posts in flight; added to under lifeMu while open
	// planDone is closed when the rebalance planner loop exits; nil when the
	// planner is disabled.
	planDone  chan struct{}
	startedAt time.Time
}

// stagedSnapshot is a migration snapshot parked on the target between the
// source's ship and the cutover table's arrival.
type stagedSnapshot struct {
	epoch     uint64 // the cutover epoch the plan was computed for
	prevOwner int
	snap      *wal.Snapshot
	expires   time.Time
}

// NewNode builds a member from its configuration: the epoch-1 table (every
// peer up, partitions dealt round-robin) plus the partitions this node
// initially owns. The background machinery (expirers, prober) starts with
// Start.
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Bootstrap != nil {
		if err := cfg.Bootstrap.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: bootstrap table: %w", err)
		}
		if cfg.Bootstrap.Partitions != cfg.Partitions {
			return nil, fmt.Errorf("cluster: bootstrap table has %d partitions, configured %d", cfg.Bootstrap.Partitions, cfg.Partitions)
		}
		if len(cfg.Peers) == 0 {
			// A joiner configures itself from the admission table: the peer
			// lists are just the members' advertised addresses.
			for _, m := range cfg.Bootstrap.Members {
				cfg.Peers = append(cfg.Peers, m.Addr)
				cfg.WirePeers = append(cfg.WirePeers, m.WireAddr)
			}
		}
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: node needs at least one peer address")
	}
	if cfg.NodeID < 0 || cfg.NodeID >= len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: node id %d outside peer list [0, %d)", cfg.NodeID, len(cfg.Peers))
	}
	if cfg.Bootstrap != nil && cfg.NodeID >= len(cfg.Bootstrap.Members) {
		return nil, fmt.Errorf("cluster: node id %d outside bootstrap member list [0, %d)", cfg.NodeID, len(cfg.Bootstrap.Members))
	}
	if cfg.Partitions < 1 || cfg.Partitions&(cfg.Partitions-1) != 0 {
		return nil, fmt.Errorf("cluster: partition count %d is not a power of two", cfg.Partitions)
	}
	if cfg.NewPartitionArray == nil {
		return nil, fmt.Errorf("cluster: NewPartitionArray must be set")
	}

	if len(cfg.WirePeers) != 0 && len(cfg.WirePeers) != len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: %d wire peers for %d peers; the lists must be index-aligned", len(cfg.WirePeers), len(cfg.Peers))
	}
	members := make([]Member, len(cfg.Peers))
	for i, addr := range cfg.Peers {
		if addr == "" {
			return nil, fmt.Errorf("cluster: peer %d has an empty address", i)
		}
		members[i] = Member{ID: i, Addr: addr}
		if len(cfg.WirePeers) != 0 {
			members[i].WireAddr = cfg.WirePeers[i]
		}
	}

	n := &Node{
		cfg: cfg,
		// The journal exists before any partition state is touched, so
		// boot-time transitions (replay summaries) are its first entries.
		events:   trace.NewEventLog(trace.EventConfig{Node: cfg.NodeID, Sink: cfg.Logf, Dir: cfg.DataDir, Clock: cfg.Clock}),
		parts:    make(map[int]*partition),
		staged:   make(map[int]stagedSnapshot),
		loads:    rebalance.NewCache(),
		refreshC: make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}

	// A durable node rejoins at the last table it adopted: the recorded
	// epoch keeps its fencing-token space and lets a fast restart resume
	// seamlessly, while a stale record is corrected by the boot-time pull.
	initialEpoch := uint64(1)
	var recorded *Table
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("cluster: data dir: %w", err)
		}
		if t, ok := loadNodeTable(cfg.DataDir); ok {
			// Membership may have grown or shrunk around a restart, so the
			// recorded member count may disagree with Peers in either
			// direction (the boot-time pull reconciles); it just has to
			// know this node, and the partition geometry is immutable.
			if t.Partitions != cfg.Partitions || cfg.NodeID >= len(t.Members) {
				return nil, fmt.Errorf("cluster: recorded table in %s has %d partitions over %d members, configured %d partitions as node %d",
					cfg.DataDir, t.Partitions, len(t.Members), cfg.Partitions, cfg.NodeID)
			}
			recorded = &t
			initialEpoch = t.Epoch
			n.recoveredBoot = true
		}
	}
	if recorded == nil && cfg.Bootstrap != nil {
		initialEpoch = cfg.Bootstrap.Epoch
		// The admission table may already be stale (the steward keeps
		// moving); pull before the first probe round, like a restart.
		n.recoveredBoot = true
	}

	// Build the initially owned partitions; the first array fixes the
	// stride every member must agree on (identical factories guarantee it).
	stride, capacity := 0, 0
	// Initial ownership: the recorded assignment when one survived, the
	// round-robin deal otherwise. A node whose own record marks it down was
	// failed over before this restart: it owns nothing until a newer table
	// says otherwise.
	owned := make(map[int]bool)
	switch {
	case recorded != nil:
		if recorded.Members[cfg.NodeID].Serving() {
			for _, p := range recorded.PartitionsOf(cfg.NodeID) {
				owned[p] = true
			}
		}
	case cfg.Bootstrap != nil:
		// A joiner owns whatever the admission table says — typically
		// nothing (state joining); the planner fills it after promotion.
		if cfg.Bootstrap.Members[cfg.NodeID].Serving() {
			for _, p := range cfg.Bootstrap.PartitionsOf(cfg.NodeID) {
				owned[p] = true
			}
		}
	default:
		for p := 0; p < cfg.Partitions; p++ {
			if members[p%len(members)].ID == cfg.NodeID {
				owned[p] = true
			}
		}
	}
	for p := 0; p < cfg.Partitions; p++ {
		if !owned[p] {
			continue
		}
		part, err := n.openPartition(p, initialEpoch)
		if err != nil {
			return nil, err
		}
		if stride == 0 {
			stride = part.mgr.Size()
		}
		capacity = part.mgr.Capacity()
		if part.store != nil {
			begin := time.Now()
			rst, err := part.mgr.Restore()
			if err != nil {
				part.close(n, initialEpoch, false)
				return nil, fmt.Errorf("cluster: restoring partition %d: %w", p, err)
			}
			n.recoveryNanos.Add(time.Since(begin).Nanoseconds())
			n.restoredSessions.Add(uint64(rst.Sessions))
			if rst.Sessions > 0 || rst.Records > 0 {
				n.events.Eventf(trace.EvReplay, initialEpoch, p, "restart",
					"restored %d sessions (%d lapsed, %d tail records)",
					rst.Sessions, rst.Expired, rst.Records)
			}
		}
		n.parts[p] = part
	}
	if stride == 0 {
		// More members than partitions (or nothing owned): this node still
		// needs the shared geometry for its table.
		arr, err := cfg.NewPartitionArray(0)
		if err != nil {
			return nil, fmt.Errorf("cluster: building partition 0: %w", err)
		}
		stride, capacity = arr.Size(), arr.Capacity()
	}

	switch {
	case recorded != nil:
		if recorded.Stride != stride {
			n.closeParts(initialEpoch, false)
			return nil, fmt.Errorf("cluster: recorded table stride %d does not match built stride %d", recorded.Stride, stride)
		}
		n.table = *recorded
	case cfg.Bootstrap != nil:
		if cfg.Bootstrap.Stride != stride {
			n.closeParts(initialEpoch, false)
			return nil, fmt.Errorf("cluster: bootstrap table stride %d does not match built stride %d", cfg.Bootstrap.Stride, stride)
		}
		n.table = cfg.Bootstrap.Clone()
		if cfg.DataDir != "" {
			if err := persistNodeTable(cfg.DataDir, n.table); err != nil {
				cfg.Logf("cluster: node %d: persisting bootstrap table: %v", cfg.NodeID, err)
			}
		}
	default:
		table, err := NewTable(members, cfg.Partitions, stride, capacity*cfg.Partitions)
		if err != nil {
			return nil, err
		}
		n.table = table
		if cfg.DataDir != "" {
			if err := persistNodeTable(cfg.DataDir, table); err != nil {
				cfg.Logf("cluster: node %d: persisting initial table: %v", cfg.NodeID, err)
			}
		}
	}
	n.rebuildOwnedLocked()

	codec := server.Config{Metrics: cfg.Metrics, MetricsElsewhere: cfg.MetricsElsewhere, Tracer: cfg.Tracer, Events: n.events}
	mux := server.NewMux(n, codec)
	mux.HandleFunc("GET /cluster", n.handleClusterGet)
	mux.HandleFunc("POST /cluster", n.handleClusterPost)
	mux.HandleFunc("POST /cluster/join", n.handleJoin)
	mux.HandleFunc("POST /cluster/drain", n.handleDrain)
	mux.HandleFunc("POST /cluster/rebalance", n.handleRebalance)
	mux.HandleFunc("POST /migrate/prepare", n.handleMigratePrepare)
	mux.HandleFunc("POST /migrate/stage", n.handleMigrateStage)
	mux.HandleFunc("POST /migrate/abort", n.handleMigrateAbort)
	if cfg.Metrics != nil {
		n.registerMetrics()
	}
	n.h = server.WithRequestID(mux)
	n.wire = server.NewWire(n, codec, n.serveControl)
	return n, nil
}

// tokenEpochShift places the owning epoch in the high bits of each
// partition manager's fencing-token sequence: token = ((epoch<<32) +
// counter) << TokenHandleBits | handle. Successive incarnations of a
// failed-over partition therefore mint from disjoint token spaces — a dead
// owner's token can never equal a live one — as long as a partition mints
// fewer than 2^32 tokens per epoch and epochs stay below 2^16.
const tokenEpochShift = 32

// openPartition builds partition id's incarnation under epoch: a fresh
// array, a manager minting from the epoch's token space and, on a durable
// node, the partition's journal. A partition that cannot be built whole is
// not served, so a durable node never serves one without its journal.
func (n *Node) openPartition(id int, epoch uint64) (*partition, error) {
	arr, err := n.cfg.NewPartitionArray(id)
	if err != nil {
		return nil, fmt.Errorf("cluster: building partition %d: %w", id, err)
	}
	lcfg := n.cfg.Lease
	lcfg.TokenSeqBase = epoch << tokenEpochShift
	var store *wal.Store
	if n.cfg.DataDir != "" {
		if store, err = wal.Open(n.partDir(id), n.cfg.WALSync, n.cfg.WALSyncInterval); err != nil {
			return nil, fmt.Errorf("cluster: opening wal for partition %d: %w", id, err)
		}
		lcfg.Journal = store
	}
	mgr, err := lease.NewManager(arr, lcfg)
	if err != nil {
		if store != nil {
			_ = store.Close()
		}
		return nil, err
	}
	return &partition{id: id, mgr: mgr, store: store}, nil
}

// partDir is the durable state directory of one partition.
func (n *Node) partDir(p int) string {
	return filepath.Join(n.cfg.DataDir, fmt.Sprintf("p%d", p))
}

// closeParts closes every owned partition; single-threaded callers only
// (NewNode failure paths and shutdown after the prober has stopped).
func (n *Node) closeParts(epoch uint64, clean bool) {
	for _, part := range n.parts {
		part.close(n, epoch, clean)
	}
}

// nodeTableFile is the persisted membership record inside DataDir: the last
// table this node adopted, re-advertised on restart.
const nodeTableFile = "node.json"

// persistNodeTable atomically records the adopted table (tmp + fsync +
// rename, like a snapshot), so a crash can never leave a torn record.
func persistNodeTable(dir string, t Table) error {
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, nodeTableFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, nodeTableFile)); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// loadNodeTable reads the recorded table; a missing, torn or invalid record
// simply means a fresh boot.
func loadNodeTable(dir string) (Table, bool) {
	b, err := os.ReadFile(filepath.Join(dir, nodeTableFile))
	if err != nil {
		return Table{}, false
	}
	var t Table
	if err := json.Unmarshal(b, &t); err != nil {
		return Table{}, false
	}
	if err := t.Validate(); err != nil {
		return Table{}, false
	}
	return t, true
}

// rebuildOwnedLocked refreshes the sorted owned-partition index; callers
// hold mu.
func (n *Node) rebuildOwnedLocked() {
	n.ownedIDs = n.ownedIDs[:0]
	for id := range n.parts {
		n.ownedIDs = append(n.ownedIDs, id)
	}
	sort.Ints(n.ownedIDs)
}

// ID returns the node's member ID.
func (n *Node) ID() int { return n.cfg.NodeID }

// Table returns the node's current membership table. The returned value's
// slices are shared and must not be mutated.
func (n *Node) Table() Table {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.table
}

// Epoch returns the node's current table epoch.
func (n *Node) Epoch() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.table.Epoch
}

// ServeHTTP dispatches to the clustered lease API through the request-ID
// middleware.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.h.ServeHTTP(w, r) }

// Serve starts the node (expirers + prober) and runs its HTTP front end on
// addr until ctx is cancelled, then shuts the listener down gracefully and
// closes the node. It returns nil on a clean shutdown.
func (n *Node) Serve(ctx context.Context, addr string) error {
	n.Start()
	return server.ListenAndServe(ctx, addr, n, n.Close)
}

// ErrStaleEpoch is returned by Adopt when the offered table's epoch is not
// newer than the node's.
var ErrStaleEpoch = errors.New("cluster: table epoch not newer than current")

// Adopt installs a newer membership table: partitions this node lost are
// closed (their leases die with them — the new owner's quarantine covers the
// holders), partitions gained are built fresh and quarantined for the full
// handover horizon. Adopting a table that marks this node down self-fences:
// the node drops every partition and keeps serving only reads.
func (n *Node) Adopt(t Table) error { return n.adoptTable(t, "api") }

// adoptTable is Adopt with the cause of the transition threaded through, so
// the event journal can say *why* each epoch bump happened: "peer_push" (a
// steward pushed its table), "anti_entropy_pull" (this node pulled a newer
// epoch it saw in a probe), "steward_reassign" (this node decided a
// failover itself) or "api" (an operator called Adopt directly).
func (n *Node) adoptTable(t Table, cause string) error {
	if err := t.Validate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.table
	if t.Epoch <= cur.Epoch {
		return ErrStaleEpoch
	}
	if t.Partitions != cur.Partitions || t.Stride != cur.Stride {
		return fmt.Errorf("cluster: adopted table changes immutable geometry (partitions/stride)")
	}
	// Membership grows (joins) but never shrinks — retired members stay in
	// the table as left — and an existing member's identity is immutable.
	if len(t.Members) < len(cur.Members) {
		return fmt.Errorf("cluster: adopted table drops members (%d -> %d)", len(cur.Members), len(t.Members))
	}
	for i := range cur.Members {
		if t.Members[i].Addr != cur.Members[i].Addr {
			return fmt.Errorf("cluster: adopted table rewrites member %d address %q -> %q", i, cur.Members[i].Addr, t.Members[i].Addr)
		}
	}
	n.events.Eventf(trace.EvEpochBump, t.Epoch, -1, cause,
		"epoch %d -> %d; now owning %v", cur.Epoch, t.Epoch, t.PartitionsOf(n.cfg.NodeID))

	owned := make(map[int]bool)
	if !t.Members[n.cfg.NodeID].Down {
		for _, p := range t.PartitionsOf(n.cfg.NodeID) {
			owned[p] = true
		}
	}
	for id, part := range n.parts {
		if !owned[id] {
			// No clean snapshot: the partition's new owner may be reading
			// (and has possibly fenced) these very files.
			part.close(n, cur.Epoch, false)
			delete(n.parts, id)
			n.events.Eventf(trace.EvPartitionDrop, t.Epoch, id, cause, "dropped partition %d", id)
		} else if part.migrating {
			// The partition stayed ours under a newer epoch: whatever plan
			// fenced it died with the old epoch. Unfence and resume serving.
			part.migrating = false
			n.events.Eventf(trace.EvMigrationAbort, t.Epoch, id, "epoch_superseded",
				"migration fence released: partition %d kept under epoch %d", id, t.Epoch)
		}
	}
	now := n.cfg.Clock()
	for id := range owned {
		if _, ok := n.parts[id]; ok {
			continue
		}
		n.adoptPartitionLocked(id, t, cur.Assignment[id], now, cause)
	}
	// Any snapshot still staged for a partition we did not just adopt was
	// shipped for a plan this table supersedes; drop it.
	for id := range n.staged {
		delete(n.staged, id)
	}
	n.rebuildOwnedLocked()
	n.table = t
	if n.cfg.DataDir != "" {
		if err := persistNodeTable(n.cfg.DataDir, t); err != nil {
			n.cfg.Logf("cluster: node %d: persisting table epoch %d: %v", n.cfg.NodeID, t.Epoch, err)
		}
	}
	return nil
}

// adoptPartitionLocked builds one gained partition under a new table. A
// migration target installs the snapshot its source shipped for this epoch
// and serves immediately; every other adoption (a failover from a dead
// owner) starts empty behind the MaxTTL quarantine, since the dead owner's
// leases can only be waited out. A partition that cannot be opened, its
// journal on a durable node included, is left unserved (clients see 421s)
// rather than rejecting the whole table; the epoch still advances. Callers
// hold mu.
func (n *Node) adoptPartitionLocked(id int, t Table, prevOwner int, now time.Time, cause string) {
	if n.cfg.DataDir != "" {
		// A fresh incarnation: any state left from a previous ownership of
		// this partition was retired by the epoch fence and the quarantine.
		if err := os.RemoveAll(n.partDir(id)); err != nil {
			n.cfg.Logf("cluster: node %d epoch %d: clearing stale state of partition %d: %v", n.cfg.NodeID, t.Epoch, id, err)
		}
	}
	part, err := n.openPartition(id, t.Epoch)
	if err != nil {
		n.cfg.Logf("cluster: node %d epoch %d: adopted partition %d left unserved: %v", n.cfg.NodeID, t.Epoch, id, err)
		return
	}

	cutover := false
	if st, ok := n.staged[id]; ok {
		delete(n.staged, id)
		if st.epoch == t.Epoch && now.Before(st.expires) {
			if err := n.installStagedLocked(part, st, t.Epoch); err != nil {
				n.cfg.Logf("cluster: node %d epoch %d: installing staged migration snapshot of partition %d failed (falling back): %v",
					n.cfg.NodeID, t.Epoch, id, err)
			} else {
				cutover = true
			}
		}
	}
	if !cutover {
		part.quarantineUntil = now.Add(n.cfg.Quarantine)
	}
	if n.leasesRunning() {
		part.mgr.Start()
		part.startCheckpoints(n)
	}
	n.parts[id] = part
	if cutover {
		n.events.Eventf(trace.EvMigrationCutover, t.Epoch, id, cause,
			"cutover: installed snapshot shipped by node %d (%d sessions live, no quarantine)", prevOwner, part.mgr.Active())
	} else {
		n.events.Eventf(trace.EvQuarantineStart, t.Epoch, id, cause,
			"adopted empty; quarantined until %v", part.quarantineUntil.Format(time.TimeOnly))
		// Journal the matching end so a timeline shows when acquires opened
		// up; guarded on closed so a killed node never journals after death.
		time.AfterFunc(n.cfg.Quarantine, func() {
			if !n.closed.Load() {
				n.events.Eventf(trace.EvQuarantineEnd, t.Epoch, id, "quarantine_elapsed",
					"handover horizon passed; serving acquires")
			}
		})
	}
}

// installStagedLocked folds a migration snapshot the source shipped into a
// freshly built partition — the cutover half of a live migration. No
// quarantine: the source fenced the partition before exporting, so the
// snapshot is complete (every grant the source ever acknowledged), and the
// epoch bump routes every client to us. The import is checkpointed into our
// own journal before a single request is served, so a crash right after the
// cutover cannot forget the shipped sessions. Callers hold mu.
func (n *Node) installStagedLocked(part *partition, st stagedSnapshot, epoch uint64) error {
	rst, err := part.mgr.RestoreState(st.snap, nil)
	if err != nil {
		return fmt.Errorf("restoring staged snapshot: %w", err)
	}
	if part.store != nil {
		if err := part.mgr.Checkpoint(uint32(part.id), epoch, false); err != nil {
			return fmt.Errorf("checkpointing staged import: %w", err)
		}
	}
	n.restoredSessions.Add(uint64(rst.Sessions))
	return nil
}

func (n *Node) leasesRunning() bool {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	return n.running
}

// Start launches the partition expirers and the peer health prober. It is
// idempotent and a no-op after Close.
func (n *Node) Start() {
	n.lifeMu.Lock()
	if n.running || n.closed.Load() {
		n.lifeMu.Unlock()
		return
	}
	n.running = true
	n.startedAt = n.cfg.Clock()
	if n.cfg.RebalanceEvery > 0 {
		n.planDone = make(chan struct{})
	}
	n.lifeMu.Unlock()

	n.mu.RLock()
	for _, part := range n.parts {
		part.mgr.Start()
		part.startCheckpoints(n)
	}
	n.mu.RUnlock()
	if n.recoveredBoot {
		// A restarted node's recorded epoch may be stale (a failover happened
		// while it was down): pull before the first probe round, shrinking
		// the window in which it would serve under the old epoch.
		n.requestRefresh()
	}
	go n.probeLoop()
	if n.planDone != nil {
		go n.rebalanceLoop(n.planDone)
	}
}

// Close stops the prober and every partition manager, writes a final
// clean-shutdown snapshot per durable partition (the next boot replays the
// snapshot alone), and rejects further writes. It is idempotent.
func (n *Node) Close() { n.shutdown(true) }

// Kill is Close without the final snapshots: the crash-simulation path (the
// local harness's kill switch). On-disk state is left exactly as the last
// group commit wrote it — what a real crash leaves for replay.
func (n *Node) Kill() { n.shutdown(false) }

func (n *Node) shutdown(clean bool) {
	n.lifeMu.Lock()
	n.closed.Store(true)
	wasRunning := n.running
	if !n.stopClosed {
		close(n.stop)
		n.stopClosed = true
	}
	planDone := n.planDone
	n.lifeMu.Unlock()
	if wasRunning {
		<-n.done
		if planDone != nil {
			<-planDone
		}
	}
	n.pushes.Wait()
	n.mu.Lock()
	n.closeParts(n.table.Epoch, clean)
	n.mu.Unlock()
	n.events.Close()
}

// requestRefresh nudges the prober to pull tables from peers; non-blocking.
func (n *Node) requestRefresh() {
	select {
	case n.refreshC <- struct{}{}:
	default:
	}
}

func (n *Node) handleClusterGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.Table())
}

func (n *Node) handleClusterPost(w http.ResponseWriter, r *http.Request) {
	var t Table
	if !decode(w, r, &t) {
		return
	}
	err := n.adoptTable(t, "peer_push")
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, EpochResponse{Adopted: true, Epoch: t.Epoch})
	case errors.Is(err, ErrStaleEpoch):
		writeJSON(w, http.StatusPreconditionFailed, EpochResponse{Error: ErrCodeStaleEpoch, Epoch: n.Epoch()})
	default:
		writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest)
	}
}
