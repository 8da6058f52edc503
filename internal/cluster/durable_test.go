package cluster

// Durability tests: crash-restart replay through the harness, fenced rejoin
// of a node restarted after its partitions failed over, and the
// kill-and-restart chaos acceptance run.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/lease"
)

// durableLocal boots an in-process cluster with durable lease state rooted in
// a fresh temp dir, tuned for test speed.
func durableLocal(t *testing.T, nodes, partitions, capacity int, maxTTL time.Duration) *Local {
	t.Helper()
	l, err := StartLocal(LocalConfig{
		Nodes:      nodes,
		Partitions: partitions,
		Capacity:   capacity,
		Seed:       7,
		DataDir:    t.TempDir(),
		Node: NodeConfig{
			Lease:         lease.Config{TickInterval: 20 * time.Millisecond},
			DefaultTTL:    maxTTL,
			MaxTTL:        maxTTL,
			ProbeInterval: 25 * time.Millisecond,
			DownAfter:     2,
			Logf:          t.Logf,
		},
	})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(l.Close)
	return l
}

// TestDurableSingleNodeCrashRestart is the crash-restart replay round trip:
// a single durable member is killed without warning and restarted on the same
// address; every lease it granted must survive (renewable with its original
// token) and none of their names may be double-issued afterwards.
func TestDurableSingleNodeCrashRestart(t *testing.T) {
	l := durableLocal(t, 1, 2, 64, 30*time.Second)
	c, err := NewClient(ClientConfig{Targets: l.Targets()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	held := map[int]GrantResponse{}
	for len(held) < 20 {
		g, status, _, err := c.Acquire(10_000)
		if err != nil || status != http.StatusOK {
			t.Fatalf("acquire: status %d err %v", status, err)
		}
		held[g.Name] = g
	}

	l.Kill(0) // crash: no clean snapshot, the WAL tail is all there is
	if err := l.Restart(0); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	node := l.Node(0)
	if node == nil {
		t.Fatal("restarted node not alive")
	}
	if got := node.restoredSessions.Load(); got < 20 {
		t.Fatalf("restored %d sessions, want >= 20", got)
	}
	if node.Epoch() != 1 {
		t.Fatalf("restarted node at epoch %d, want recorded epoch 1", node.Epoch())
	}

	// Every pre-crash lease is intact: same token, renewable.
	for name, g := range held {
		if _, status, err := c.Renew(name, g.Token, 10_000); err != nil || status != http.StatusOK {
			t.Fatalf("post-restart renew %d: status %d err %v", name, status, err)
		}
	}

	// Fill to saturation: no held name may be granted a second time.
	for {
		g, status, hint, err := c.Acquire(10_000)
		if err != nil {
			t.Fatalf("fill acquire: %v", err)
		}
		if status != http.StatusOK {
			if status != http.StatusServiceUnavailable {
				t.Fatalf("fill acquire: status %d", status)
			}
			_ = hint
			break // full: the whole namespace is accounted for
		}
		if _, dup := held[g.Name]; dup {
			t.Fatalf("name %d double-issued after restart", g.Name)
		}
	}
}

// TestDurableRestartAfterFailoverFenced covers the restart-while-quarantined
// race: a node killed and failed over restarts from its recorded (now stale)
// table. It must refuse writes carrying the newer epoch (412), and adopting
// the survivors' table must self-fence it — every partition dropped, no
// double-issue window.
func TestDurableRestartAfterFailoverFenced(t *testing.T) {
	l := durableLocal(t, 3, 8, 256, 300*time.Millisecond)
	c, err := NewClient(ClientConfig{Targets: l.Targets()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	victim := 2
	heldOnVictim := 0
	for i := 0; i < 24; i++ {
		g, status, _, err := c.Acquire(300)
		if err != nil || status != http.StatusOK {
			t.Fatalf("acquire: status %d err %v", status, err)
		}
		if g.NodeID == victim {
			heldOnVictim++
		}
	}
	if heldOnVictim == 0 {
		t.Fatal("victim holds no leases; test setup broken")
	}

	l.Kill(victim)
	if !l.WaitForEpoch(2, 5*time.Second) {
		t.Fatal("epoch never bumped after kill")
	}

	// Rebuild the victim from its recorded state, as Restart would, but do
	// not Start it: the fencing behaviour must hold even before the boot-time
	// pull has any chance to run.
	node, err := NewNode(l.nodeConfigFor(victim))
	if err != nil {
		t.Fatalf("rebuilding victim: %v", err)
	}
	defer node.Kill()
	if node.Epoch() != 1 {
		t.Fatalf("rebuilt victim at epoch %d, want recorded epoch 1", node.Epoch())
	}
	if node.restoredSessions.Load() == 0 {
		t.Fatal("rebuilt victim restored no sessions despite journaled grants")
	}

	// A write stamped with the newer epoch is fenced with 412.
	req := httptest.NewRequest(http.MethodPost, "/acquire", strings.NewReader(`{"ttl_ms":300}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(EpochHeader, "2")
	rec := httptest.NewRecorder()
	node.ServeHTTP(rec, req)
	if rec.Code != http.StatusPreconditionFailed {
		t.Fatalf("newer-epoch acquire on stale restarted node: status %d, want 412", rec.Code)
	}
	var er EpochResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error != ErrCodeStaleEpoch {
		t.Fatalf("fence body %q err %v, want %s", rec.Body.String(), err, ErrCodeStaleEpoch)
	}
	if node.staleEpochRejects.Load() == 0 {
		t.Fatal("stale-epoch reject not counted")
	}

	// Adopting the survivors' table (which marks the victim down) self-fences:
	// every partition is dropped.
	survivor := l.Node(l.AliveIDs()[0])
	if err := node.Adopt(survivor.Table()); err != nil {
		t.Fatalf("adopting survivors' table: %v", err)
	}
	if !node.Table().Members[victim].Down {
		t.Fatal("adopted table does not mark the victim down")
	}
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/acquire", strings.NewReader(`{"ttl_ms":300}`))
	req.Header.Set("Content-Type", "application/json")
	rec2 := rec
	node.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusServiceUnavailable {
		t.Fatalf("acquire on self-fenced node: status %d, want 503 (owns nothing)", rec2.Code)
	}
}

// TestChaosKillRestartDurable is the durable chaos acceptance run: a mid-run
// kill with the node restarted while the run is still going. The ledger must
// stay violation-free — the restarted member rejoins with a stale epoch and
// must never double-issue.
func TestChaosKillRestartDurable(t *testing.T) {
	l := durableLocal(t, 3, 4, 128, 300*time.Millisecond)
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
		RestartAfter: 400 * time.Millisecond,
		ReclaimSlack: 400 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("durable chaos violations: %v\nreport: %+v", v, report)
	}
	if report.Kills != 1 {
		t.Fatalf("kills = %d, want exactly 1 (MinAlive 2 of 3)", report.Kills)
	}
	if report.Restarts != 1 {
		t.Fatalf("restarts = %d, want exactly 1", report.Restarts)
	}
	if report.EpochBumps != 1 {
		t.Fatalf("epoch bumps %d, want 1", report.EpochBumps)
	}
	if report.OrphanEvents != report.OrphansReissued+report.OrphansFree {
		t.Fatalf("orphan accounting: %d events, %d reissued + %d free", report.OrphanEvents, report.OrphansReissued, report.OrphansFree)
	}
}
