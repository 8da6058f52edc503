package server

import (
	"fmt"
	"time"

	"github.com/levelarray/levelarray/internal/wire"
)

// wireCounted is implemented by APIs backed by a pooled wire client; the
// load report uses it for syscall-efficiency stats.
type wireCounted interface {
	WireCounters() wire.Counters
}

// LoadConfig parameterizes one closed-loop load run against a lease service.
type LoadConfig struct {
	// API is the client the run drives: a Client over HTTP or a WireClient
	// over the binary protocol.
	API LeaseAPI
	// Batch, when > 0, switches the clients to batch rounds of that size:
	// one AcquireN per round, one bulk renew covering the whole set, then a
	// batch release of the non-crashed remainder. Requires an API
	// implementing BatchLeaseAPI. Bounded by wire.MaxBatch.
	Batch int
	// Clients is the number of concurrent closed-loop clients. Zero selects 16.
	Clients int
	// Acquires is the total number of acquire operations to perform across
	// all clients (renews and releases come on top). Zero selects 10000.
	Acquires int64
	// TTL is the lease TTL requested by every acquire. Zero selects 2s. It
	// should be comfortably longer than HoldMean so live leases never expire
	// mid-hold.
	TTL time.Duration
	// HoldMean is the mean of the exponential hold-time distribution between
	// acquire and release; zero holds for no time at all. Draws are capped
	// at 10x the mean.
	HoldMean time.Duration
	// CrashPercent is the percentage (0..100) of leases abandoned without
	// release, exercising server-side expiry.
	CrashPercent int
	// RenewPercent is the percentage (0..100) of held leases renewed once
	// mid-hold.
	RenewPercent int
	// Seed is the base seed for the per-client generators.
	Seed uint64
	// ReclaimSlack pads the expiry-verification wait beyond the contractual
	// deadline + 2 expirer ticks, absorbing HTTP and scheduler latency.
	// Zero selects 500ms.
	ReclaimSlack time.Duration
}

func (c LoadConfig) withDefaults() (LoadConfig, error) {
	if c.API == nil {
		return c, fmt.Errorf("loadgen: API must be set")
	}
	if c.Batch < 0 || c.Batch > wire.MaxBatch {
		return c, fmt.Errorf("loadgen: batch size %d outside 0..%d", c.Batch, wire.MaxBatch)
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
		return c, fmt.Errorf("loadgen: crash percent %d outside 0..100", c.CrashPercent)
	}
	if c.RenewPercent < 0 || c.RenewPercent > 100 {
		return c, fmt.Errorf("loadgen: renew percent %d outside 0..100", c.RenewPercent)
	}
	if c.ReclaimSlack <= 0 {
		c.ReclaimSlack = 500 * time.Millisecond
	}
	return c, nil
}

// LoadReport is the outcome of one load run: the shared report core (the
// traffic mix, the acquire latencies and the ledger's verdict) plus the
// service's expiry accounting. A report with Violations() != nil means the
// service broke a lease-contract invariant.
type LoadReport struct {
	ContractReport
	// ExpiryMismatch is the service's expirations during the run less the
	// leases that should have expired: one per crash and one per holder lapse.
	ExpiryMismatch int64 `json:"expiry_mismatch"`

	// Wire carries the syscall-efficiency counters of the run when the API
	// is backed by a pooled wire client (the deltas across the run): how
	// many operations each connection amortized and how many frames each
	// write syscall carried.
	Wire *WireEfficiency `json:"wire,omitempty"`

	FinalStats StatsResponse `json:"final_stats"`
}

// Violations lists every broken invariant, or nil when the run was clean.
func (r LoadReport) Violations() []string {
	v := r.ContractReport.Violations()
	if r.ExpiryMismatch != 0 {
		v = append(v, fmt.Sprintf("expirations diverge from crashes + holder lapses by %d", r.ExpiryMismatch))
	}
	return v
}

// WireEfficiency is the syscall-amortization summary of a wire-backed run:
// the pooled client's own counters, as deltas over the run, so the report
// carries the client-side health that used to live only in exit logs.
type WireEfficiency struct {
	Dials      uint64 `json:"dials"`
	Ops        uint64 `json:"ops"`
	FramesSent uint64 `json:"frames_sent"`
	Flushes    uint64 `json:"flushes"`
	// Backoffs counts calls failed fast inside a redial-backoff window — a
	// nonzero value means the run was hitting a dead or flapping endpoint.
	Backoffs uint64 `json:"backoffs"`
}

// OpsPerConn returns completed operations per connection dialed.
func (w WireEfficiency) OpsPerConn() float64 {
	if w.Dials == 0 {
		return 0
	}
	return float64(w.Ops) / float64(w.Dials)
}

// FramesPerFlush returns request frames per write-side flush (syscall):
// the write-combining factor of the pipelined connection pool.
func (w WireEfficiency) FramesPerFlush() float64 {
	if w.Flushes == 0 {
		return 0
	}
	return float64(w.FramesSent) / float64(w.Flushes)
}

// RunLoad drives one closed-loop load run against one service and verifies
// the lease contract end to end (see Ledger), then checks that every
// abandoned lease was reclaimed: once the last reclaim deadline has passed,
// no lease may remain active and the service's expirations must equal the
// crashes plus the holder lapses.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return LoadReport{}, err
	}
	client := cfg.API
	var wireBase wire.Counters
	counted, hasCounters := client.(wireCounted)
	if hasCounters {
		wireBase = counted.WireCounters()
	}

	// The expirer tick comes from the server so the reclaim checks agree
	// with its actual granularity.
	initial, err := client.Stats()
	if err != nil {
		return LoadReport{}, fmt.Errorf("loadgen: fetching initial stats: %w", err)
	}
	tick := time.Duration(initial.TickMillis) * time.Millisecond
	if tick <= 0 {
		tick = 100 * time.Millisecond
	}

	lp, err := NewLoop(LoopConfig{
		Ops: client, Batch: cfg.Batch, Clients: cfg.Clients, Acquires: cfg.Acquires,
		TTL: cfg.TTL, HoldMean: cfg.HoldMean, CrashPercent: cfg.CrashPercent, RenewPercent: cfg.RenewPercent,
		Seed: cfg.Seed, Tick: tick, ReclaimSlack: cfg.ReclaimSlack,
	})
	if err != nil {
		return LoadReport{}, fmt.Errorf("loadgen: %w", err)
	}
	runErr := lp.Run(nil)
	lp.Close()
	if runErr != nil {
		return LoadReport{}, fmt.Errorf("loadgen: %w", runErr)
	}
	report := LoadReport{ContractReport: lp.Report()}
	if hasCounters {
		after := counted.WireCounters()
		report.Wire = &WireEfficiency{
			Dials:      after.Dials - wireBase.Dials,
			Ops:        after.Ops - wireBase.Ops,
			FramesSent: after.FramesSent - wireBase.FramesSent,
			Flushes:    after.Flushes - wireBase.Flushes,
			Backoffs:   after.Backoffs - wireBase.Backoffs,
		}
	}

	lp.WaitReclaimed()
	expected := int64(report.Crashes + report.HolderLapses)
	deadline := time.Now().Add(10 * time.Second)
	for {
		final, err := client.Stats()
		if err != nil {
			return report, fmt.Errorf("loadgen: fetching final stats: %w", err)
		}
		report.FinalStats = final
		report.Undrained = final.Lease.Active
		report.ExpiryMismatch = int64(final.Lease.Expirations-initial.Lease.Expirations) - expected
		if (report.Undrained == 0 && report.ExpiryMismatch == 0) || time.Now().After(deadline) {
			return report, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
}
