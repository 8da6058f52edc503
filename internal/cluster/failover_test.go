package cluster

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/lease"
)

// fastLocal boots an in-process cluster tuned for test speed: 20ms lease
// ticks, 25ms probes, two misses to suspicion, 300ms TTL ceiling.
func fastLocal(t *testing.T, nodes, partitions, capacity int) *Local {
	t.Helper()
	l, err := StartLocal(LocalConfig{
		Nodes:      nodes,
		Partitions: partitions,
		Capacity:   capacity,
		Seed:       7,
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
	return l
}

// TestRoutedClientBasics drives acquire/renew/release through the routed
// client against a healthy 3-node cluster and checks global uniqueness and
// fencing.
func TestRoutedClientBasics(t *testing.T) {
	l, err := StartLocal(LocalConfig{
		Nodes:      3,
		Partitions: 8,
		Capacity:   256,
		Seed:       7,
		Node: NodeConfig{
			Lease:         lease.Config{TickInterval: 20 * time.Millisecond},
			DefaultTTL:    time.Minute,
			MaxTTL:        time.Minute,
			ProbeInterval: 25 * time.Millisecond,
			DownAfter:     2,
		},
	})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(l.Close)
	c, err := NewClient(ClientConfig{Targets: l.Targets()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	tbl := c.Table()
	if tbl.Epoch != 1 || len(tbl.Alive()) != 3 {
		t.Fatalf("initial table epoch %d alive %d", tbl.Epoch, len(tbl.Alive()))
	}

	type grant struct {
		g GrantResponse
	}
	held := map[int]grant{}
	nodesSeen := map[int]bool{}
	for i := 0; i < 96; i++ {
		g, status, _, err := c.Acquire(60_000)
		if err != nil || status != http.StatusOK {
			t.Fatalf("acquire %d: status %d err %v", i, status, err)
		}
		if _, dup := held[g.Name]; dup {
			t.Fatalf("name %d granted twice while held", g.Name)
		}
		if got := tbl.PartitionOf(g.Name); got != g.Partition {
			t.Fatalf("grant partition %d, table says %d", g.Partition, got)
		}
		if owner, _ := tbl.Owner(g.Partition); owner.ID != g.NodeID {
			t.Fatalf("grant from node %d but table owner is %d", g.NodeID, owner.ID)
		}
		held[g.Name] = grant{g: g}
		nodesSeen[g.NodeID] = true
	}
	if len(nodesSeen) != 3 {
		t.Fatalf("round-robin acquire used %d of 3 nodes", len(nodesSeen))
	}
	for name, h := range held {
		if _, status, err := c.Renew(name, h.g.Token, 60_000); err != nil || status != http.StatusOK {
			t.Fatalf("renew %d: status %d err %v", name, status, err)
		}
		if status, err := c.Release(name, h.g.Token); err != nil || status != http.StatusOK {
			t.Fatalf("release %d: status %d err %v", name, status, err)
		}
		// Fencing: the released token is dead cluster-wide.
		if _, status, err := c.Renew(name, h.g.Token, 60_000); err != nil || status != http.StatusConflict {
			t.Fatalf("stale renew %d: status %d err %v, want 409", name, status, err)
		}
	}
}

// TestFailoverEndToEnd kills a node and verifies the full lifted-lease
// story: epoch bump, reassignment to survivors, stale-epoch fencing of old
// writers, ghost-lease fencing, quarantine, and reissue of the dead node's
// names after the quarantine horizon.
func TestFailoverEndToEnd(t *testing.T) {
	l := fastLocal(t, 3, 8, 256)
	c, err := NewClient(ClientConfig{Targets: l.Targets()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	tbl := c.Table()

	// Hold one lease per node so the victim is guaranteed to hold some.
	held := map[int]GrantResponse{}
	for len(held) < 24 {
		g, status, _, err := c.Acquire(300) // 300ms, the cluster MaxTTL
		if err != nil || status != http.StatusOK {
			t.Fatalf("acquire: status %d err %v", status, err)
		}
		held[g.Name] = g
	}

	victim := 2
	victimAddr := tbl.Members[victim].Addr
	var victimGrants []GrantResponse
	for _, g := range held {
		if g.NodeID == victim {
			victimGrants = append(victimGrants, g)
		}
	}
	if len(victimGrants) == 0 {
		t.Fatal("victim holds no leases; test setup broken")
	}

	killedAt := time.Now()
	l.Kill(victim)
	if !l.WaitForEpoch(2, 5*time.Second) {
		t.Fatal("epoch never bumped after kill")
	}
	bumpAt := time.Now()
	if d := bumpAt.Sub(killedAt); d > 2*time.Second {
		t.Fatalf("failover took %v, want well under 2s at 25ms probes", d)
	}

	// Every survivor converges on a table marking the victim down, with all
	// partitions on survivors.
	deadlineT := time.Now().Add(2 * time.Second)
	for _, id := range l.AliveIDs() {
		for l.Node(id).Epoch() < 2 && time.Now().Before(deadlineT) {
			time.Sleep(5 * time.Millisecond)
		}
		nt := l.Node(id).Table()
		if !nt.Members[victim].Down {
			t.Fatalf("node %d table does not mark victim down", id)
		}
		for p, owner := range nt.Assignment {
			if owner == victim {
				t.Fatalf("node %d still assigns partition %d to the victim", id, p)
			}
		}
	}

	// A writer stuck on the old epoch is fenced with 412 by survivors.
	survivor := l.Node(l.AliveIDs()[0])
	survivorAddr := survivor.Table().Members[survivor.ID()].Addr
	var fence EpochResponse
	hc := &http.Client{Timeout: 2 * time.Second}
	status, _, err := postJSON(hc, survivorAddr+"/acquire", 1, map[string]any{"ttl_ms": 300}, nil, &fence)
	if err != nil || status != http.StatusPreconditionFailed || fence.Error != ErrCodeStaleEpoch {
		t.Fatalf("old-epoch write: status %d body %+v err %v, want 412 stale_epoch", status, fence, err)
	}

	// The dead node's address refuses connections (crash-stop, not zombie).
	if _, _, err := postJSON(hc, victimAddr+"/acquire", 0, map[string]any{}, nil, nil); err == nil {
		t.Fatal("killed node still answering")
	}

	// Ghost leases (granted by the victim) are fenced at the new owners.
	c.Refresh()
	for _, g := range victimGrants {
		_, status, err := c.Renew(g.Name, g.Token, 300)
		if err != nil || status != http.StatusConflict {
			t.Fatalf("ghost renew of %d: status %d err %v, want 409", g.Name, status, err)
		}
	}

	// Survivors' leases are untouched by the failover.
	for _, g := range held {
		if g.NodeID == victim {
			continue
		}
		if _, status, err := c.Renew(g.Name, g.Token, 300); err != nil || status != http.StatusOK {
			t.Fatalf("survivor renew of %d: status %d err %v", g.Name, status, err)
		}
	}

	// After the quarantine horizon (MaxTTL + 2 ticks from adoption, bounded
	// by bump + TTL + 2 ticks + slack), every one of the victim's names is
	// grantable again: fill the cluster to the brim and check coverage.
	time.Sleep(time.Until(bumpAt.Add(300*time.Millisecond + 2*20*time.Millisecond + 500*time.Millisecond)))
	wanted := map[int]bool{}
	for _, g := range victimGrants {
		wanted[g.Name] = true
	}
	var (
		fillMu sync.Mutex
		fills  []GrantResponse
	)
	covered := func() bool {
		fillMu.Lock()
		defer fillMu.Unlock()
		return len(wanted) == 0
	}
	// Concurrent fill with an early exit once every victim-held name has
	// been observed reissued: the fills carry the 300ms MaxTTL, so a slow
	// (race-mode, loaded-CI) sequential sweep could churn against its own
	// expirations without ever saturating.
	fillDeadline := time.Now().Add(10 * time.Second)
	var fillWG sync.WaitGroup
	for w := 0; w < 8; w++ {
		fillWG.Add(1)
		go func() {
			defer fillWG.Done()
			for !covered() && time.Now().Before(fillDeadline) {
				g, status, _, err := c.Acquire(-1) // clamped to MaxTTL by the nodes
				if err != nil || status != http.StatusOK {
					return // cluster full (or unreachable): saturation reached
				}
				fillMu.Lock()
				delete(wanted, g.Name)
				fills = append(fills, g)
				fillMu.Unlock()
			}
		}()
	}
	fillWG.Wait()
	if !covered() {
		t.Fatalf("victim-held names %v not reissued by the fill sweep", wanted)
	}
	for _, g := range fills {
		status, err := c.Release(g.Name, g.Token)
		if err != nil {
			t.Fatalf("fill release %d: %v", g.Name, err)
		}
		// The fills carry the 300ms MaxTTL, so stragglers may have expired
		// by the time this loop reaches them; that 409 is legitimate.
		if status != http.StatusOK && !(status == http.StatusConflict && time.Now().After(time.UnixMilli(g.DeadlineUnixMillis))) {
			t.Fatalf("fill release %d: status %d (granted by node %d, deadline still %v away)", g.Name, status, g.NodeID, time.Until(time.UnixMilli(g.DeadlineUnixMillis)))
		}
	}
}

// TestChaosRunCleanWithoutKills runs the chaos verifier against a healthy
// cluster: the cluster-level regression of PR 4's loadgen contract.
func TestChaosRunCleanWithoutKills(t *testing.T) {
	l := fastLocal(t, 3, 4, 128)
	report, err := RunChaos(ChaosConfig{
		Local:        l,
		Clients:      8,
		Acquires:     1500,
		TTL:          300 * time.Millisecond,
		HoldMean:     100 * time.Microsecond,
		CrashPercent: 10,
		RenewPercent: 20,
		Seed:         11,
		ReclaimSlack: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("violations on a healthy cluster: %v", v)
	}
	if report.Acquires < 1500 {
		t.Fatalf("acquires %d, want >= 1500", report.Acquires)
	}
	if report.Crashes == 0 || report.StaleRejected == 0 {
		t.Fatalf("crash path unexercised: crashes %d staleRejected %d", report.Crashes, report.StaleRejected)
	}
	if report.Kills != 0 || report.OrphanEvents != 0 {
		t.Fatalf("phantom kills: %+v", report)
	}
}

// TestChaosLoadOutlastsFirstKill: a run whose acquires finish before the
// first kill tick keeps its clients going until that kill has failed over,
// so a fast client cannot end a kill-scheduled run with nothing killed.
func TestChaosLoadOutlastsFirstKill(t *testing.T) {
	l := fastLocal(t, 3, 4, 128)
	const acquires = 50
	report, err := RunChaos(ChaosConfig{
		Local:        l,
		Clients:      4,
		Acquires:     acquires,
		TTL:          300 * time.Millisecond,
		Seed:         17,
		KillEvery:    300 * time.Millisecond,
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
	if report.Kills != 1 || report.EpochBumps != 1 {
		t.Fatalf("kills %d epoch bumps %d, want 1 and 1", report.Kills, report.EpochBumps)
	}
	if report.Elapsed < 300*time.Millisecond {
		t.Fatalf("load ended after %v, before the first kill tick", report.Elapsed)
	}
	if report.Acquires-report.FillAcquired <= acquires {
		t.Fatalf("clients acquired %d, want more than the %d configured", report.Acquires-report.FillAcquired, acquires)
	}
}

// TestChaosRunSurvivesNodeKill is the in-process acceptance test: a chaos
// run with a mid-run node kill must stay violation-free, observe the epoch
// bump, and reissue every orphan.
func TestChaosRunSurvivesNodeKill(t *testing.T) {
	l := fastLocal(t, 3, 4, 128)
	report, err := RunChaos(ChaosConfig{
		Local:        l,
		Clients:      8,
		Acquires:     4000,
		TTL:          300 * time.Millisecond,
		HoldMean:     time.Millisecond, // stretches the run well past the first kill tick
		CrashPercent: 10,
		RenewPercent: 20,
		Seed:         13,
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
		t.Fatalf("kills = %d, want exactly 1 (MinAlive 2 of 3)", report.Kills)
	}
	if report.EpochBumps != 1 || report.FinalEpoch < 2 {
		t.Fatalf("epoch bumps %d final epoch %d", report.EpochBumps, report.FinalEpoch)
	}
	if report.OrphanEvents != report.OrphansReissued+report.OrphansFree {
		t.Fatalf("orphan accounting: %d events, %d reissued + %d free", report.OrphanEvents, report.OrphansReissued, report.OrphansFree)
	}
	if report.FillAcquired == 0 {
		t.Fatal("adoption probe did not run")
	}
	// The adoption probe runs after the timed window: its grants count in
	// the totals but not in the throughput.
	if report.WindowOps+report.FillAcquired > report.Ops() {
		t.Fatalf("window ops %d + %d adoption-probe grants exceed the %d verified ops", report.WindowOps, report.FillAcquired, report.Ops())
	}
	// Two survivors over 4 partitions must still serve the whole namespace.
	if len(report.Nodes) != 2 {
		t.Fatalf("final stats from %d nodes, want 2", len(report.Nodes))
	}
	parts := 0
	for _, ns := range report.Nodes {
		parts += len(ns.Partitions)
	}
	if parts != 4 {
		t.Fatalf("survivors own %d partitions, want all 4", parts)
	}
}
