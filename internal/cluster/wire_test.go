package cluster

import (
	"net/http"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/wire"
)

// TestClusterWireRoutedOps drives the routed client against a healthy
// cluster and verifies every lease operation actually traveled over the
// binary protocol (no silent HTTP fallback).
func TestClusterWireRoutedOps(t *testing.T) {
	l := fastLocal(t, 3, 4, 128)
	c, err := NewClient(ClientConfig{Targets: l.Targets()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	for _, m := range c.Table().Members {
		if m.WireAddr == "" {
			t.Fatalf("member %d advertises no wire endpoint", m.ID)
		}
	}

	held := map[int]GrantResponse{}
	for i := 0; i < 48; i++ {
		g, status, _, err := c.Acquire(200)
		if err != nil || status != http.StatusOK {
			t.Fatalf("acquire %d: status %d err %v", i, status, err)
		}
		if _, dup := held[g.Name]; dup {
			t.Fatalf("name %d granted twice", g.Name)
		}
		held[g.Name] = g
	}
	for name, g := range held {
		if _, status, err := c.Renew(name, g.Token, 200); err != nil || status != http.StatusOK {
			t.Fatalf("renew %d: status %d err %v", name, status, err)
		}
		if status, err := c.Release(name, g.Token); err != nil || status != http.StatusOK {
			t.Fatalf("release %d: status %d err %v", name, status, err)
		}
		if _, status, err := c.Renew(name, g.Token, 200); err != nil || status != http.StatusConflict {
			t.Fatalf("stale renew %d: status %d err %v, want 409", name, status, err)
		}
	}

	counters := c.Counters()
	wantOps := uint64(48 * 4) // acquire + renew + release + fenced renew
	if counters.WireOps != wantOps {
		t.Fatalf("WireOps = %d, want %d (every op over the wire)", counters.WireOps, wantOps)
	}
	if counters.WireFallbacks != 0 {
		t.Fatalf("WireFallbacks = %d, want 0 on a healthy cluster", counters.WireFallbacks)
	}
}

// TestClusterWireFallback closes one member's wire server: routed acquire,
// renew and release on that member must still land, over HTTP, each hop
// counted as one wire fallback.
func TestClusterWireFallback(t *testing.T) {
	l := fastLocal(t, 2, 4, 128)
	c, err := NewClient(ClientConfig{Targets: l.Targets()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	if err := l.snapshot()[1].wireSrv.Close(); err != nil {
		t.Fatalf("closing member 1's wire server: %v", err)
	}

	// fallbacks runs op and returns how far it moved WireFallbacks.
	fallbacks := func(op func()) uint64 {
		before := c.Counters().WireFallbacks
		op()
		return c.Counters().WireFallbacks - before
	}
	var g GrantResponse
	for i := 0; g.Token == 0; i++ {
		if i == 8 {
			t.Fatal("member 1 granted none of 8 round-robin acquires")
		}
		var got GrantResponse
		moved := fallbacks(func() {
			var status int
			if got, status, _, err = c.Acquire(200); err != nil || status != http.StatusOK {
				t.Fatalf("acquire: status %d err %v", status, err)
			}
		})
		if got.NodeID == 1 {
			if moved != 1 {
				t.Fatalf("acquire granted by member 1 moved WireFallbacks by %d, want 1", moved)
			}
			g = got
		}
	}
	if moved := fallbacks(func() {
		if r, status, err := c.Renew(g.Name, g.Token, 200); err != nil || status != http.StatusOK || r.Token != g.Token {
			t.Fatalf("renew on member 1: %+v status %d err %v", r, status, err)
		}
	}); moved != 1 {
		t.Fatalf("renew on member 1 moved WireFallbacks by %d, want 1", moved)
	}
	if moved := fallbacks(func() {
		if status, err := c.Release(g.Name, g.Token); err != nil || status != http.StatusOK {
			t.Fatalf("release on member 1: status %d err %v", status, err)
		}
	}); moved != 1 {
		t.Fatalf("release on member 1 moved WireFallbacks by %d, want 1", moved)
	}
}

// TestClusterWireDisabled checks the opt-out: with DisableWire the client
// never opens a binary connection.
func TestClusterWireDisabled(t *testing.T) {
	l := fastLocal(t, 3, 4, 128)
	c, err := NewClient(ClientConfig{Targets: l.Targets(), DisableWire: true})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	g, status, _, err := c.Acquire(200)
	if err != nil || status != http.StatusOK {
		t.Fatalf("acquire: status %d err %v", status, err)
	}
	if status, err := c.Release(g.Name, g.Token); err != nil || status != http.StatusOK {
		t.Fatalf("release: status %d err %v", status, err)
	}
	if ops := c.Counters().WireOps; ops != 0 {
		t.Fatalf("WireOps = %d with wire disabled, want 0", ops)
	}
}

// TestClusterWireBatchOps exercises AcquireN/RenewSession/ReleaseN against
// one member: global names, per-item fencing, partition attribution.
func TestClusterWireBatchOps(t *testing.T) {
	l := fastLocal(t, 2, 4, 256)
	node := l.Node(0)
	cl := wire.NewClient(l.WireTargets()[0], nil)
	defer cl.Close()
	tbl := node.Table()

	var req wire.Request
	var resp wire.Response
	req = wire.Request{Op: wire.OpAcquireN, TTLMillis: 250, N: 40}
	if err := cl.Do(&req, &resp); err != nil {
		t.Fatalf("AcquireN: %v", err)
	}
	if resp.Status != wire.StatusOK || len(resp.Grants) != 40 {
		t.Fatalf("AcquireN: status %v, %d grants", resp.Status, len(resp.Grants))
	}
	seen := map[int64]bool{}
	grants := append([]wire.Grant(nil), resp.Grants...)
	for _, g := range grants {
		if seen[g.Name] {
			t.Fatalf("name %d granted twice in one batch", g.Name)
		}
		seen[g.Name] = true
		if got := tbl.PartitionOf(int(g.Name)); got != int(g.Partition) {
			t.Fatalf("grant names partition %d, table says %d", g.Partition, got)
		}
		if owner, _ := tbl.Owner(int(g.Partition)); owner.ID != int(g.NodeID) {
			t.Fatalf("grant from node %d but partition %d belongs to %d", g.NodeID, g.Partition, owner.ID)
		}
		if g.NodeID != 0 {
			t.Fatalf("node 0 granted on behalf of node %d", g.NodeID)
		}
	}

	// Bulk renew with one corrupted token and one foreign name.
	refs := make([]wire.Ref, 0, len(grants)+1)
	for _, g := range grants {
		refs = append(refs, wire.Ref{Name: g.Name, Token: g.Token})
	}
	refs[3].Token++                                        // stale
	refs = append(refs, wire.Ref{Name: 1 << 40, Token: 1}) // outside the namespace
	req = wire.Request{Op: wire.OpRenewSession, TTLMillis: 250, Items: refs}
	if err := cl.Do(&req, &resp); err != nil {
		t.Fatalf("RenewSession: %v", err)
	}
	if resp.Status != wire.StatusOK || len(resp.Items) != len(refs) {
		t.Fatalf("RenewSession: status %v, %d items for %d refs", resp.Status, len(resp.Items), len(refs))
	}
	for i, it := range resp.Items {
		switch i {
		case 3:
			if it.Status != wire.StatusConflict || it.Code != wire.CodeStaleToken {
				t.Fatalf("stale item: %+v, want 409 stale_token", it)
			}
		case len(refs) - 1:
			if it.Status != wire.StatusConflict || it.Code != wire.CodeNotLeased {
				t.Fatalf("foreign-name item: %+v, want 409 not_leased", it)
			}
		default:
			if it.Status != wire.StatusOK || it.DeadlineUnixMilli == 0 {
				t.Fatalf("item %d: %+v, want renewed deadline", i, it)
			}
		}
	}

	// Batch release of the good refs; the corrupted one is restored first.
	refs[3].Token--
	req = wire.Request{Op: wire.OpReleaseN, Items: refs[:len(refs)-1]}
	if err := cl.Do(&req, &resp); err != nil {
		t.Fatalf("ReleaseN: %v", err)
	}
	if resp.Status != wire.StatusOK || len(resp.Items) != len(refs)-1 {
		t.Fatalf("ReleaseN: status %v, %d items", resp.Status, len(resp.Items))
	}
	for i, it := range resp.Items {
		if it.Status != wire.StatusOK {
			t.Fatalf("release item %d: %+v", i, it)
		}
	}
}

// TestClusterChaosOverWire is the wire-mode acceptance run: chaos with a
// mid-run node kill, fully routed over the binary protocol, must stay
// violation-free.
func TestClusterChaosOverWire(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	l := fastLocal(t, 3, 4, 128)
	report, err := RunChaos(ChaosConfig{
		Local:        l,
		Clients:      8,
		Acquires:     3000,
		TTL:          300 * time.Millisecond,
		HoldMean:     time.Millisecond,
		CrashPercent: 10,
		RenewPercent: 20,
		Seed:         17,
		KillEvery:    150 * time.Millisecond,
		MinAlive:     2,
		ReclaimSlack: 400 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("chaos violations over wire: %v\nreport: %+v", v, report)
	}
	if report.Kills != 1 {
		t.Fatalf("kills = %d, want 1", report.Kills)
	}
	if report.Routing.WireOps == 0 {
		t.Fatal("chaos run never used the wire protocol")
	}
	t.Logf("wire ops %d, wire fallbacks %d (fallbacks onto HTTP are expected around the kill)",
		report.Routing.WireOps, report.Routing.WireFallbacks)
}
