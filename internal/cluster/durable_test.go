package cluster

// Durability tests: crash-restart replay through the harness, fenced rejoin
// of a node restarted after its partitions failed over, and the
// kill-and-restart chaos acceptance run.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wire"
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
	req.Header.Set(server.EpochHeader, "2")
	rec := httptest.NewRecorder()
	node.ServeHTTP(rec, req)
	if rec.Code != http.StatusPreconditionFailed {
		t.Fatalf("newer-epoch acquire on stale restarted node: status %d, want 412", rec.Code)
	}
	var er EpochResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error != ErrCodeStaleEpoch {
		t.Fatalf("fence body %q err %v, want %s", rec.Body.String(), err, ErrCodeStaleEpoch)
	}
	if node.events.Count(trace.EvStaleEpoch) == 0 {
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

// TestDurableKillRestartUnderWireBatches kills and restarts a durable member
// while pipelined wire writes to it wait on their batches' durability
// barriers. Neither Kill nor Restart may hang on those waits, and the
// restarted member serves the same wire client again.
func TestDurableKillRestartUnderWireBatches(t *testing.T) {
	l := durableLocal(t, 1, 2, 256, 30*time.Second)
	wc := wire.NewClient(l.WireTargets()[0], &wire.ClientConfig{Conns: 2, CallTimeout: 2 * time.Second})
	defer wc.Close()
	client := server.NewWireClient(wc)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected while the member is down.
				if g, status, _, err := client.Acquire(10_000); err == nil && status == http.StatusOK {
					_, _ = client.Release(g.Name, g.Token)
				}
			}
		}()
	}
	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s hung with wire batch barriers in flight", what)
		}
	}

	time.Sleep(50 * time.Millisecond)
	within("Kill", func() { l.Kill(0) })
	within("Restart", func() {
		if err := l.Restart(0); err != nil {
			t.Errorf("Restart: %v", err)
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		g, status, _, err := client.Acquire(10_000)
		if err == nil && status == http.StatusOK {
			if status, err := client.Release(g.Name, g.Token); err != nil || status != http.StatusOK {
				t.Fatalf("release after restart: status %d err %v", status, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no wire grant within 10s of the restart (last status %d err %v)", status, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// walCounts sums the WAL appends and fsyncs of every partition n owns.
func walCounts(n *Node) (appends, syncs uint64) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, id := range n.ownedIDs {
		if st := n.parts[id].store; st != nil {
			c := st.Counters()
			appends, syncs = appends+c.Appends, syncs+c.Syncs
		}
	}
	return appends, syncs
}

// TestDurableWireBatchesShareFsyncs: a durable member serves the frames a
// wire connection had buffered as one batch behind one durability barrier.
// 16 callers pipeline acquire+release pairs over one connection, which one
// serving goroutine reads; served a frame at a time, every write would pay
// its own fsync (1.00 appends per fsync).
func TestDurableWireBatchesShareFsyncs(t *testing.T) {
	l := durableLocal(t, 1, 2, 1024, 30*time.Second)
	wc := wire.NewClient(l.WireTargets()[0], &wire.ClientConfig{Conns: 1})
	defer wc.Close()
	client := server.NewWireClient(wc)

	appends0, syncs0 := walCounts(l.Node(0))
	const callers, pairs = 16, 100
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range pairs {
				g, status, _, err := client.Acquire(10_000)
				if err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("acquire: status %d err %v", status, err)
					return
				}
				if status, err := client.Release(g.Name, g.Token); err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("release: status %d err %v", status, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	appends1, syncs1 := walCounts(l.Node(0))
	appends, syncs := appends1-appends0, syncs1-syncs0
	if appends < 2*callers*pairs || syncs == 0 {
		t.Fatalf("%d appends over %d fsyncs, want at least %d appends", appends, syncs, 2*callers*pairs)
	}
	per := float64(appends) / float64(syncs)
	t.Logf("%d appends over %d fsyncs (%.2f per fsync)", appends, syncs, per)
	if per < 1.5 {
		t.Fatalf("%.2f appends per fsync, want >= 1.5: the member served its wire batches a frame at a time", per)
	}
}

// TestChaosKillRestartResumed is the durable chaos run with a failure
// detector slower than the restart: each victim returns and resumes its
// partitions from its journal before the survivors could fail it over. Its
// leases live on, so the ledger must neither sweep them nor fence their
// tokens, and the run stays violation-free.
func TestChaosKillRestartResumed(t *testing.T) {
	l, err := StartLocal(LocalConfig{
		Nodes:      3,
		Partitions: 4,
		Capacity:   128,
		Seed:       7,
		DataDir:    t.TempDir(),
		Node: NodeConfig{
			Lease:         lease.Config{TickInterval: 20 * time.Millisecond},
			DefaultTTL:    300 * time.Millisecond,
			MaxTTL:        300 * time.Millisecond,
			ProbeInterval: 25 * time.Millisecond,
			DownAfter:     40, // a second of silence: far past each restart
			Logf:          t.Logf,
		},
	})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(l.Close)
	report, err := RunChaos(ChaosConfig{
		Local:        l,
		Clients:      8,
		Acquires:     3000,
		TTL:          300 * time.Millisecond,
		HoldMean:     time.Millisecond,
		CrashPercent: 10,
		RenewPercent: 20,
		Seed:         19,
		KillEvery:    300 * time.Millisecond,
		MinAlive:     2,
		RestartAfter: 100 * time.Millisecond,
		ReclaimSlack: 400 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("resumed-kill chaos violations: %v\nreport: %+v", v, report)
	}
	if report.RestartPreempts == 0 || report.EpochBumps != 0 {
		t.Fatalf("kills %d: %d resumed, %d failed over; want every kill resumed", report.Kills, report.RestartPreempts, report.EpochBumps)
	}
	if report.OrphanEvents != 0 {
		t.Fatalf("%d leases orphaned by kills that ended none", report.OrphanEvents)
	}
}

// TestChaosRestartsJoinedVictim kills and restarts a member that joined
// mid-run: two durable members grow to three, and seed 2 makes the joiner
// the killer's first victim. The restart bookkeeping and the watcher find
// the joiner in the live member list, and the run stays violation-free.
func TestChaosRestartsJoinedVictim(t *testing.T) {
	l := elasticLocal(t, 2, 4, 128, func(cfg *LocalConfig) {
		cfg.DataDir = t.TempDir()
		cfg.Node.DefaultTTL = 400 * time.Millisecond
		cfg.Node.MaxTTL = 400 * time.Millisecond
	})
	report, err := RunChaos(ChaosConfig{
		Local:        l,
		Clients:      8,
		Acquires:     2000,
		TTL:          400 * time.Millisecond,
		HoldMean:     time.Millisecond,
		CrashPercent: 10,
		RenewPercent: 20,
		Seed:         2,
		KillEvery:    time.Second,
		MinAlive:     2,
		RestartAfter: 300 * time.Millisecond,
		GrowTo:       3,
		GrowEvery:    300 * time.Millisecond,
		ReclaimSlack: 400 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("chaos violations: %v\nreport: %+v", v, report)
	}
	if report.Joins != 1 || len(report.KilledNodes) == 0 || report.KilledNodes[0] != 2 {
		t.Fatalf("joins %d, killed %v: want the joiner, member 2, killed first", report.Joins, report.KilledNodes)
	}
	if report.Restarts == 0 {
		t.Fatalf("no killed member restarted: %+v", report)
	}
}

// TestAdoptWithoutJournalLeavesPartitionUnserved: a durable node that
// cannot open an adopted partition's journal leaves the partition unserved
// (421), as it does one whose array fails to build. Served without its
// journal, the partition's grants would be forgotten by a crash, and a
// restart would replay it empty with no quarantine.
func TestAdoptWithoutJournalLeavesPartitionUnserved(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "node0")
	node, err := NewNode(NodeConfig{
		NodeID:     0,
		Peers:      []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		Partitions: 2,
		NewPartitionArray: func(p int) (activity.Array, error) {
			return core.New(core.Config{Capacity: 64, Epsilon: 1, Seed: uint64(p) + 1})
		},
		DataDir: dir,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()
	tb := node.Table()
	p := tb.PartitionsOf(1)[0]
	next, ok := tb.Move(p, 0)
	if !ok {
		t.Fatalf("moving partition %d to node 0 rejected", p)
	}
	// The data directory becomes a regular file: no journal can open in it.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := node.Adopt(next); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	if got := node.Table().Assignment[p]; got != 0 {
		t.Fatalf("partition %d assigned to node %d after the adoption, want 0", p, got)
	}
	req := httptest.NewRequest(http.MethodPost, "/release", strings.NewReader(fmt.Sprintf(`{"name":%d,"token":1}`, p*tb.Stride)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	node.ServeHTTP(rec, req)
	if rec.Code != http.StatusMisdirectedRequest {
		t.Fatalf("release in partition %d adopted without a journal: status %d (%s), want 421", p, rec.Code, rec.Body.String())
	}
}
