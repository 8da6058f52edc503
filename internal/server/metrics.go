package server

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/metrics"
	"github.com/levelarray/levelarray/internal/shard"
	"github.com/levelarray/levelarray/internal/wal"
	"github.com/levelarray/levelarray/internal/wire"
)

// Metric family help text shared by the standalone server and the cluster
// node, so one catalog describes both facades.
const (
	helpOps     = "Lease operations attempted, by op (both protocols)."
	helpFence   = "Requests rejected by a fencing check, by error code (409/412/421)."
	helpUnavail = "Requests answered 503, by error code."
)

// Metrics is the instrumentation bundle shared by the HTTP handlers and the
// wire backend (and reused by the cluster node, which adds its own
// families on the same Registry). All instruments are lock-free; nil
// *Metrics disables instrumentation entirely.
type Metrics struct {
	Registry *metrics.Registry

	// Per-operation latency histograms (seconds, exponential buckets).
	AcquireLatency *metrics.Histogram
	RenewLatency   *metrics.Histogram
	ReleaseLatency *metrics.Histogram

	// Per-operation attempt counters (la_ops_total{op=...}).
	AcquireOps *metrics.Counter
	RenewOps   *metrics.Counter
	ReleaseOps *metrics.Counter
	BatchOps   *metrics.Counter

	mu      sync.Mutex
	fence   map[string]*metrics.Counter
	unavail map[string]*metrics.Counter
}

// NewMetrics registers the service families on reg and returns the bundle.
func NewMetrics(reg *metrics.Registry) *Metrics {
	m := &Metrics{
		Registry:       reg,
		AcquireLatency: reg.Histogram("la_acquire_latency_seconds", "Acquire latency.", metrics.LatencyBuckets()),
		RenewLatency:   reg.Histogram("la_renew_latency_seconds", "Renew latency.", metrics.LatencyBuckets()),
		ReleaseLatency: reg.Histogram("la_release_latency_seconds", "Release latency.", metrics.LatencyBuckets()),
		AcquireOps:     reg.Counter("la_ops_total", helpOps, metrics.L("op", "acquire")),
		RenewOps:       reg.Counter("la_ops_total", helpOps, metrics.L("op", "renew")),
		ReleaseOps:     reg.Counter("la_ops_total", helpOps, metrics.L("op", "release")),
		BatchOps:       reg.Counter("la_ops_total", helpOps, metrics.L("op", "batch")),
		fence:          make(map[string]*metrics.Counter),
		unavail:        make(map[string]*metrics.Counter),
	}
	// Pre-register the codes every deployment can emit, so the families are
	// present (at 0) from the first scrape.
	m.Fence(ErrCodeStaleToken)
	m.Fence(ErrCodeNotLeased)
	m.Unavailable(ErrCodeFull)
	m.Unavailable(ErrCodeClosed)
	RegisterBuildInfo(reg)
	return m
}

// Fence returns (registering on first use) the 4xx fencing counter for an
// error code.
func (m *Metrics) Fence(code string) *metrics.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.fence[code]
	if c == nil {
		c = m.Registry.Counter("la_fence_rejections_total", helpFence, metrics.L("code", code))
		m.fence[code] = c
	}
	return c
}

// FenceFunc adds a scrape-time fencing series backed by an existing counter
// (the cluster node's 412/421 atomics).
func (m *Metrics) FenceFunc(code string, fn func() uint64) {
	m.Registry.CounterFunc("la_fence_rejections_total", helpFence, fn, metrics.L("code", code))
}

// Unavailable returns (registering on first use) the 503 counter for an
// error code.
func (m *Metrics) Unavailable(code string) *metrics.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.unavail[code]
	if c == nil {
		c = m.Registry.Counter("la_unavailable_total", helpUnavail, metrics.L("code", code))
		m.unavail[code] = c
	}
	return c
}

// The single-lease ops a Metrics bundle times.
const (
	opAcquire = iota
	opRenew
	opRelease
)

// observe records one single-lease op for either codec and either backend:
// latency (with the request id as the bucket's exemplar), the attempt
// counter, and the failure class of a 409 or 503. The 412/421 routing fences
// are counted by the cluster node's own counters (FenceFunc). Safe on a nil
// receiver.
func (m *Metrics) observe(op int, start time.Time, o outcome, rid string) {
	if m == nil {
		return
	}
	lat, ops := m.AcquireLatency, m.AcquireOps
	switch op {
	case opRenew:
		lat, ops = m.RenewLatency, m.RenewOps
	case opRelease:
		lat, ops = m.ReleaseLatency, m.ReleaseOps
	}
	lat.ObserveEx(time.Since(start), rid)
	ops.Inc()
	switch o.status {
	case wire.StatusConflict:
		m.Fence(o.code.String()).Inc()
	case wire.StatusUnavailable:
		m.Unavailable(o.code.String()).Inc()
	}
}

// RegisterManager exposes a lease manager's gauges and counters: occupancy
// and load factor, plus the lifetime operation/expiration/orphan counters.
// The cluster node does not use this (its per-partition sampler families
// cover the same stats partition-labeled); the standalone server does.
func RegisterManager(reg *metrics.Registry, mgr *lease.Manager) {
	reg.GaugeFunc("la_leases_active", "Currently held leases.", func() float64 {
		return float64(mgr.Active())
	})
	reg.GaugeFunc("la_lease_capacity", "Lease namespace capacity.", func() float64 {
		return float64(mgr.Capacity())
	})
	reg.GaugeFunc("la_lease_load_factor", "Active leases over capacity.", mgr.LoadFactor)
	type cf struct {
		name, help string
		read       func(lease.Stats) uint64
	}
	for _, c := range []cf{
		{"la_lease_acquires_total", "Successful acquires.", func(s lease.Stats) uint64 { return s.Acquires }},
		{"la_lease_renews_total", "Successful renews.", func(s lease.Stats) uint64 { return s.Renews }},
		{"la_lease_releases_total", "Successful releases.", func(s lease.Stats) uint64 { return s.Releases }},
		{"la_lease_expirations_total", "Leases reaped by the expirer.", func(s lease.Stats) uint64 { return s.Expirations }},
		{"la_lease_failed_acquires_total", "Acquires failed with a full namespace.", func(s lease.Stats) uint64 { return s.FailedAcquires }},
		{"la_lease_renew_races_total", "Renews fenced by a stale token.", func(s lease.Stats) uint64 { return s.RenewRaces }},
		{"la_lease_release_races_total", "Releases fenced by a stale token.", func(s lease.Stats) uint64 { return s.ReleaseRaces }},
		{"la_lease_orphans_reclaimed_total", "Orphaned bits reclaimed by the cross-check sweep.", func(s lease.Stats) uint64 { return s.OrphansReclaimed }},
		{"la_lease_ticks_total", "Completed expirer passes.", func(s lease.Stats) uint64 { return s.Ticks }},
	} {
		read := c.read
		reg.CounterFunc(c.name, c.help, func() uint64 { return read(mgr.Stats()) })
	}
}

// RegisterShardStats exposes the sharded substrate's per-shard occupancy and
// steal counters when arr is sharded; other arrays register nothing.
func RegisterShardStats(reg *metrics.Registry, arr activity.Array) {
	sharded, ok := arr.(*shard.Sharded)
	if !ok {
		return
	}
	shardLabel := func(s shard.ShardStats) metrics.Label {
		return metrics.L("shard", strconv.Itoa(s.Shard))
	}
	reg.Sampler("la_shard_occupancy", "Occupied slots per shard.", metrics.TypeGauge, func(emit metrics.Emit) {
		for _, s := range sharded.ShardStats() {
			emit(float64(s.Occupancy), shardLabel(s))
		}
	})
	reg.Sampler("la_shard_steals_in_total", "Registrations stolen into each shard.", metrics.TypeCounter, func(emit metrics.Emit) {
		for _, s := range sharded.ShardStats() {
			emit(float64(s.StealsIn), shardLabel(s))
		}
	})
	reg.Sampler("la_shard_home_fulls_total", "Home-shard-full events per shard.", metrics.TypeCounter, func(emit metrics.Emit) {
		for _, s := range sharded.ShardStats() {
			emit(float64(s.HomeFulls), shardLabel(s))
		}
	})
}

// RegisterWireServer exposes a wire server's transport counters.
func RegisterWireServer(reg *metrics.Registry, ws *wire.Server) {
	reg.CounterFunc("la_wire_server_conns_total", "Wire connections accepted.", func() uint64 {
		return ws.Counters().ConnsAccepted
	})
	reg.CounterFunc("la_wire_server_frames_read_total", "Wire request frames read.", func() uint64 {
		return ws.Counters().FramesRead
	})
	reg.CounterFunc("la_wire_server_frames_written_total", "Wire response frames written.", func() uint64 {
		return ws.Counters().FramesWritten
	})
	reg.CounterFunc("la_wire_server_flushes_total", "Wire write flushes (frames/flush = write combining).", func() uint64 {
		return ws.Counters().Flushes
	})
	reg.CounterFunc("la_wire_server_decode_errors_total", "Malformed wire payloads answered 400.", func() uint64 {
		return ws.Counters().DecodeErrors
	})
}

// RegisterWAL exposes one partition store's durability counters — the
// la_wal_* families the service smoke test scrapes. The cluster node
// registers partition-labeled samplers instead.
func RegisterWAL(reg *metrics.Registry, st *wal.Store) {
	type cf struct {
		name, help string
		read       func(wal.Counters) uint64
	}
	for _, c := range []cf{
		{"la_wal_appends_total", "Lease records appended to the WAL.", func(c wal.Counters) uint64 { return c.Appends }},
		{"la_wal_syncs_total", "WAL fsyncs (appends/syncs = group-commit batching).", func(c wal.Counters) uint64 { return c.Syncs }},
		{"la_wal_bytes_total", "Bytes appended to the WAL.", func(c wal.Counters) uint64 { return c.Bytes }},
		{"la_wal_checkpoints_total", "Snapshot checkpoints completed.", func(c wal.Counters) uint64 { return c.Checkpoints }},
		{"la_wal_replay_records_total", "Records replayed from the log on boot.", func(c wal.Counters) uint64 { return c.ReplayRecords }},
		{"la_wal_torn_tails_total", "Torn final records truncated during replay.", func(c wal.Counters) uint64 { return c.TornTails }},
	} {
		read := c.read
		reg.CounterFunc(c.name, c.help, func() uint64 { return read(st.Counters()) })
	}
}

// RegisterRecovery exposes the boot replay duration, 0 until a recovery has
// run (la_recovery_seconds, asserted by the restart smoke test).
func RegisterRecovery(reg *metrics.Registry, seconds func() float64) {
	reg.GaugeFunc("la_recovery_seconds", "Duration of the boot WAL replay (snapshot + tail + re-adoption).", seconds)
}

// RegisterDebug mounts the stdlib pprof handlers on mux (the ones
// net/http/pprof would install on the default mux).
func RegisterDebug(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// MountMetrics serves reg at GET /metrics and the pprof routes on mux: the
// standard instrumentation surface of every laserve listener.
func MountMetrics(mux *http.ServeMux, reg *metrics.Registry) {
	mux.Handle("GET /metrics", reg.Handler())
	RegisterDebug(mux)
}
