package server

import (
	"net"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/wire"
)

// newWireService starts a wire server over a fresh manager and returns a
// connected typed client.
func newWireService(t *testing.T, capacity int, tick time.Duration) (*WireClient, *lease.Manager) {
	t.Helper()
	arr := core.MustNew(core.Config{Capacity: capacity})
	mgr := lease.MustNewManager(arr, lease.Config{TickInterval: tick})
	mgr.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := wire.NewServer(NewWireBackend(mgr, Config{DefaultTTL: time.Second}))
	go func() { _ = srv.Serve(ln) }()
	cl := wire.NewClient(ln.Addr().String(), nil)
	t.Cleanup(func() {
		cl.Close()
		_ = srv.Close()
		mgr.Close()
	})
	return NewWireClient(cl), mgr
}

func TestWireBatchOps(t *testing.T) {
	c, mgr := newWireService(t, 64, 10*time.Millisecond)

	grants, status, _, err := c.AcquireBatch(32, 60_000, nil)
	if err != nil || status != 200 {
		t.Fatalf("AcquireBatch: status %d err %v", status, err)
	}
	if len(grants) != 32 {
		t.Fatalf("granted %d, want 32", len(grants))
	}
	seen := map[int]bool{}
	for _, g := range grants {
		if seen[g.Name] {
			t.Fatalf("name %d granted twice", g.Name)
		}
		seen[g.Name] = true
	}
	if mgr.Active() != 32 {
		t.Fatalf("Active = %d, want 32", mgr.Active())
	}

	refs := make([]LeaseRef, len(grants))
	for i, g := range grants {
		refs[i] = LeaseRef{Name: g.Name, Token: g.Token}
	}
	// Corrupt one token: the batch must report it individually, not fail.
	refs[7].Token++

	renewedAt := time.Now()
	results, status, err := c.RenewSession(refs, 60_000, nil)
	if err != nil || status != 200 {
		t.Fatalf("RenewSession: status %d err %v", status, err)
	}
	if len(results) != len(refs) {
		t.Fatalf("results %d, want %d", len(results), len(refs))
	}
	for i, res := range results {
		if i == 7 {
			if res.Status != 409 || res.Code != "stale_token" {
				t.Fatalf("corrupted ref: %+v, want 409 stale_token", res)
			}
			continue
		}
		if res.Status != 200 {
			t.Fatalf("result %d: %+v", i, res)
		}
		if res.DeadlineUnixMillis < renewedAt.Add(59*time.Second).UnixMilli() {
			t.Fatalf("result %d deadline %d not extended by ~60s", i, res.DeadlineUnixMillis)
		}
	}

	refs[7].Token-- // restore
	rel, status, err := c.ReleaseBatch(refs, nil)
	if err != nil || status != 200 {
		t.Fatalf("ReleaseBatch: status %d err %v", status, err)
	}
	for i, res := range rel {
		if res.Status != 200 {
			t.Fatalf("release %d: %+v", i, res)
		}
	}
	if mgr.Active() != 0 {
		t.Fatalf("Active after batch release = %d, want 0", mgr.Active())
	}
}

func TestWireLoadRun(t *testing.T) {
	if testing.Short() {
		t.Skip("load run")
	}
	c, _ := newWireService(t, 256, 20*time.Millisecond)
	report, err := RunLoad(LoadConfig{
		API:          c,
		Clients:      8,
		Acquires:     3000,
		TTL:          2 * time.Second,
		HoldMean:     200 * time.Microsecond,
		CrashPercent: 20,
		RenewPercent: 30,
		Seed:         42,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("violations over wire: %v", v)
	}
	if report.Wire == nil {
		t.Fatal("report.Wire must be populated for a wire-backed run")
	}
	if report.Wire.Ops == 0 || report.Wire.FramesSent == 0 {
		t.Fatalf("wire efficiency empty: %+v", report.Wire)
	}
	if report.Wire.OpsPerConn() < 100 {
		t.Fatalf("ops per connection %.1f: persistent connections must amortize dials", report.Wire.OpsPerConn())
	}
}

func TestWireBatchLoadRun(t *testing.T) {
	if testing.Short() {
		t.Skip("load run")
	}
	c, _ := newWireService(t, 1024, 20*time.Millisecond)
	report, err := RunLoad(LoadConfig{
		API:          c,
		Batch:        32,
		Clients:      4,
		Acquires:     4000,
		TTL:          2 * time.Second,
		CrashPercent: 10,
		RenewPercent: 50,
		Seed:         7,
	})
	if err != nil {
		t.Fatalf("RunLoad batch: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("violations in batch mode: %v", v)
	}
	if report.Acquires == 0 || report.Renews == 0 {
		t.Fatalf("batch run did too little: %+v", report)
	}
}

// TestBatchLoadProbesEveryAbandonedToken abandons more leases within one TTL
// than a fixed 4096-entry probe backlog holds: every abandoned token must
// still be fenced, by a renew and a release each.
func TestBatchLoadProbesEveryAbandonedToken(t *testing.T) {
	if testing.Short() {
		t.Skip("load run")
	}
	c, _ := newWireService(t, 8192, 20*time.Millisecond)
	const ttl = time.Second
	report, err := RunLoad(LoadConfig{
		API:          c,
		Batch:        64,
		Clients:      4,
		Acquires:     4500,
		TTL:          ttl,
		CrashPercent: 100,
		ReclaimSlack: 50 * time.Millisecond,
		Seed:         9,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("violations: %v", v)
	}
	if report.Crashes <= 4096 || report.Elapsed >= ttl {
		t.Fatalf("want more than 4096 abandons within one TTL: %d in %v", report.Crashes, report.Elapsed)
	}
	if report.StaleRejected != 2*report.Crashes {
		t.Fatalf("%d stale tokens rejected, want 2 x %d crashes", report.StaleRejected, report.Crashes)
	}
}
