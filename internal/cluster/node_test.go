package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/server"
)

// testNodeConfig builds a NodeConfig for handler-level tests: real node,
// fake peers, prober never started.
// postJSON is server.PostJSON carrying epoch in the epoch header when it
// is nonzero.
func postJSON(hc *http.Client, url string, epoch uint64, in, out, errOut any) (int, http.Header, error) {
	var header http.Header
	if epoch != 0 {
		header = http.Header{EpochHeader: {strconv.FormatUint(epoch, 10)}}
	}
	return server.PostJSON(hc, url, header, in, out, errOut)
}

func testNodeConfig(nodeID, peers, partitions, perPartition int) NodeConfig {
	addrs := make([]string, peers)
	for i := range addrs {
		addrs[i] = "http://127.0.0.1:0" // never dialed: Start is not called
	}
	return NodeConfig{
		NodeID:     nodeID,
		Peers:      addrs,
		Partitions: partitions,
		NewPartitionArray: func(partition int) (activity.Array, error) {
			return core.New(core.Config{Capacity: perPartition, Epsilon: 1, Seed: uint64(partition) + 1})
		},
		DefaultTTL: time.Minute,
		MaxTTL:     time.Minute,
	}
}

func startTestNode(t *testing.T, cfg NodeConfig) (*Node, *httptest.Server) {
	t.Helper()
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv := httptest.NewServer(n)
	t.Cleanup(func() {
		srv.Close()
		n.Close()
	})
	return n, srv
}

// TestNodeGrantsGlobalNames checks grants land in the node's own partitions
// under the cluster-global encoding, and that renew/release route back.
func TestNodeGrantsGlobalNames(t *testing.T) {
	n, srv := startTestNode(t, testNodeConfig(0, 2, 4, 8))
	hc := srv.Client()
	tbl := n.Table()

	owned := map[int]bool{}
	for _, p := range tbl.PartitionsOf(0) {
		owned[p] = true
	}
	seen := map[int]uint64{}
	for i := 0; i < 16; i++ {
		var g GrantResponse
		status, _, err := postJSON(hc, srv.URL+"/acquire", tbl.Epoch, server.AcquireRequest{TTLMillis: 60_000}, &g, nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("acquire %d: status %d err %v", i, status, err)
		}
		p := tbl.PartitionOf(g.Name)
		if !owned[p] {
			t.Fatalf("grant %d landed in partition %d, not owned by node 0 (%v)", g.Name, p, tbl.PartitionsOf(0))
		}
		if g.Partition != p || g.NodeID != 0 || g.Epoch != tbl.Epoch {
			t.Fatalf("grant metadata %+v inconsistent (partition %d)", g, p)
		}
		if g.DeadlineUnixMillis == 0 {
			t.Fatal("cluster grants must always carry a finite deadline")
		}
		if _, dup := seen[g.Name]; dup {
			t.Fatalf("name %d granted twice while held", g.Name)
		}
		seen[g.Name] = g.Token
	}
	for name, token := range seen {
		var rg GrantResponse
		status, _, err := postJSON(hc, srv.URL+"/renew", tbl.Epoch, server.RenewRequest{Name: name, Token: token, TTLMillis: 60_000}, &rg, nil)
		if err != nil || status != http.StatusOK || rg.Name != name {
			t.Fatalf("renew: status %d err %v resp %+v", status, err, rg)
		}
		status, _, err = postJSON(hc, srv.URL+"/release", tbl.Epoch, server.ReleaseRequest{Name: name, Token: token}, nil, nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("release: status %d err %v", status, err)
		}
	}
}

// TestAdoptLifecycle drives a failover table into a node directly: gained
// partitions are quarantined, lost ones close, stale tables bounce, and a
// table that declares the node down self-fences it.
func TestAdoptLifecycle(t *testing.T) {
	cfg := testNodeConfig(0, 3, 4, 8)
	cfg.Quarantine = time.Hour // make quarantine observable
	n, srv := startTestNode(t, cfg)
	hc := srv.Client()
	tbl := n.Table()

	// Member 1 dies: node 0 adopts its partitions.
	next, ok := tbl.Reassign(1)
	if !ok {
		t.Fatal("Reassign(1) failed")
	}
	var reply EpochResponse
	status, _, err := postJSON(hc, srv.URL+"/cluster", 0, next, &reply, &reply)
	if err != nil || status != http.StatusOK || !reply.Adopted || reply.Epoch != next.Epoch {
		t.Fatalf("adopt push: status %d err %v reply %+v", status, err, reply)
	}
	if n.Epoch() != next.Epoch {
		t.Fatalf("node epoch %d, want %d", n.Epoch(), next.Epoch)
	}

	// Stale and replayed tables bounce with 412.
	status, _, err = postJSON(hc, srv.URL+"/cluster", 0, next, nil, &reply)
	if err != nil || status != http.StatusPreconditionFailed {
		t.Fatalf("replayed adopt: status %d err %v", status, err)
	}
	status, _, err = postJSON(hc, srv.URL+"/cluster", 0, tbl, nil, &reply)
	if err != nil || status != http.StatusPreconditionFailed {
		t.Fatalf("stale adopt: status %d err %v", status, err)
	}

	// Old-epoch writes are now fenced.
	var fence EpochResponse
	status, _, err = postJSON(hc, srv.URL+"/acquire", tbl.Epoch, server.AcquireRequest{TTLMillis: 1000}, nil, &fence)
	if err != nil || status != http.StatusPreconditionFailed {
		t.Fatalf("old-epoch acquire after failover: status %d err %v", status, err)
	}

	// Adopted partitions are quarantined: renew/release of a lease the dead
	// owner granted is fenced with 409, and the partition grants nothing.
	adopted := tbl.PartitionsOf(1)[0]
	ghost := adopted*tbl.Stride + 2
	status, _, err = postJSON(hc, srv.URL+"/renew", next.Epoch, server.RenewRequest{Name: ghost, Token: 42, TTLMillis: 1000}, nil, nil)
	if err != nil || status != http.StatusConflict {
		t.Fatalf("ghost renew on adopted partition: status %d err %v, want 409", status, err)
	}
	// With every partition it owns (all of them now) either quarantined or
	// open, acquires must only land in non-quarantined partitions.
	for i := 0; i < 32; i++ {
		var g GrantResponse
		status, _, err := postJSON(hc, srv.URL+"/acquire", next.Epoch, server.AcquireRequest{TTLMillis: 1000}, &g, nil)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if status == http.StatusServiceUnavailable {
			break // node 0's own partitions saturated; fine
		}
		p := next.PartitionOf(g.Name)
		for _, q := range tbl.PartitionsOf(1) {
			if p == q {
				t.Fatalf("grant %d landed in quarantined partition %d", g.Name, p)
			}
		}
	}

	// A table that declares node 0 down self-fences it entirely.
	final, ok := next.Reassign(0)
	if !ok {
		t.Fatal("Reassign(0) failed")
	}
	status, _, err = postJSON(hc, srv.URL+"/cluster", 0, final, &reply, &reply)
	if err != nil || status != http.StatusOK {
		t.Fatalf("self-fencing adopt: status %d err %v", status, err)
	}
	var unavailable server.ErrorResponse
	status, _, err = postJSON(hc, srv.URL+"/acquire", final.Epoch, server.AcquireRequest{TTLMillis: 1000}, nil, &unavailable)
	if err != nil || status != http.StatusServiceUnavailable || unavailable.Error != ErrCodeNoPartitions {
		t.Fatalf("acquire on self-fenced node: status %d body %+v, want 503 %q", status, unavailable, ErrCodeNoPartitions)
	}
}

// TestWarmingAdvertisesRetryAfter checks a node whose every owned partition
// is quarantined returns 503 warming with a pacing hint bounded by the
// remaining quarantine.
func TestWarmingAdvertisesRetryAfter(t *testing.T) {
	cfg := testNodeConfig(1, 2, 1, 8) // one partition, owned by member 0: node 1 starts empty-handed
	cfg.Quarantine = 2 * time.Second
	n, srv := startTestNode(t, cfg)
	tbl := n.Table()
	hc := srv.Client()

	// Before the failover, node 1 owns nothing at all.
	var body server.ErrorResponse
	status, _, err := postJSON(hc, srv.URL+"/acquire", tbl.Epoch, server.AcquireRequest{TTLMillis: 60_000}, nil, &body)
	if err != nil || status != http.StatusServiceUnavailable || body.Error != ErrCodeNoPartitions {
		t.Fatalf("ownerless acquire: status %d body %+v err %v, want 503 %q", status, body, err, ErrCodeNoPartitions)
	}

	// Node 0 dies; node 1 adopts the only partition, quarantined.
	next, _ := tbl.Reassign(0)
	if err := n.Adopt(next); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	body = server.ErrorResponse{}
	status, header, err := postJSON(hc, srv.URL+"/acquire", next.Epoch, server.AcquireRequest{TTLMillis: 60_000}, nil, &body)
	if err != nil || status != http.StatusServiceUnavailable {
		t.Fatalf("warming acquire: status %d err %v", status, err)
	}
	if body.Error != ErrCodeWarming {
		t.Fatalf("warming code %q, want %q", body.Error, ErrCodeWarming)
	}
	hint := server.RetryAfterHint(header, 0)
	if hint <= 0 || hint > 2*time.Second {
		t.Fatalf("warming Retry-After hint %v outside (0, quarantine]", hint)
	}
}

// TestNodeLeasesPaginatesAcrossPartitions pages /leases across a node's
// partitions under global names.
func TestNodeLeasesPaginatesAcrossPartitions(t *testing.T) {
	n, srv := startTestNode(t, testNodeConfig(0, 1, 4, 8)) // sole node: owns all 4 partitions
	hc := srv.Client()
	tbl := n.Table()

	granted := map[int]uint64{}
	for i := 0; i < 20; i++ {
		var g GrantResponse
		status, _, err := postJSON(hc, srv.URL+"/acquire", tbl.Epoch, server.AcquireRequest{TTLMillis: 60_000}, &g, nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("acquire: status %d err %v", status, err)
		}
		granted[g.Name] = g.Token
	}

	seen := map[int]uint64{}
	start := 0
	for start != -1 {
		var page NodeLeasesResponse
		status, err := server.GetJSON(hc, srv.URL+fmt.Sprintf("/leases?limit=3&start=%d", start), &page)
		if err != nil || status != http.StatusOK {
			t.Fatalf("GET /leases: status %d err %v", status, err)
		}
		if page.Active != len(granted) {
			t.Fatalf("active %d, want %d", page.Active, len(granted))
		}
		if len(page.Sessions) > 3 {
			t.Fatalf("page of %d exceeds limit", len(page.Sessions))
		}
		for _, s := range page.Sessions {
			if _, dup := seen[s.Name]; dup {
				t.Fatalf("name %d listed twice", s.Name)
			}
			seen[s.Name] = s.Token
		}
		if page.Next != -1 && page.Next <= start {
			t.Fatalf("cursor did not advance: %d -> %d", start, page.Next)
		}
		start = page.Next
	}
	if len(seen) != len(granted) {
		t.Fatalf("listed %d sessions, want %d", len(seen), len(granted))
	}
	for name, token := range granted {
		if seen[name] != token {
			t.Fatalf("name %d token %d, want %d", name, seen[name], token)
		}
	}
}

// TestAdoptedPartitionTokensUseEpochSpace asserts successive owners of a
// failed-over partition mint from disjoint fencing-token spaces: the token's
// high bits carry the owning epoch, so a dead owner's token can never equal
// a token the adopter mints.
func TestAdoptedPartitionTokensUseEpochSpace(t *testing.T) {
	cfg := testNodeConfig(0, 2, 2, 8)
	cfg.Quarantine = time.Nanosecond // expire the quarantine immediately
	n, srv := startTestNode(t, cfg)
	hc := srv.Client()
	tbl := n.Table()

	var epoch1 GrantResponse
	status, _, err := postJSON(hc, srv.URL+"/acquire", tbl.Epoch, server.AcquireRequest{TTLMillis: 60_000}, &epoch1, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("epoch-1 acquire: status %d err %v", status, err)
	}
	if got := epoch1.Token >> (lease.TokenHandleBits + 32); got != 1 {
		t.Fatalf("epoch-1 token %d carries epoch %d, want 1", epoch1.Token, got)
	}

	next, ok := tbl.Reassign(1)
	if !ok {
		t.Fatal("Reassign(1) failed")
	}
	if err := n.Adopt(next); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	adopted := tbl.PartitionsOf(1)[0]
	for i := 0; i < 32; i++ {
		var g GrantResponse
		status, _, err := postJSON(hc, srv.URL+"/acquire", next.Epoch, server.AcquireRequest{TTLMillis: 60_000}, &g, nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("epoch-2 acquire %d: status %d err %v", i, status, err)
		}
		wantEpoch := uint64(1) // kept partitions continue their own space
		if g.Partition == adopted {
			wantEpoch = 2 // the fresh incarnation mints from the new epoch
		}
		if got := g.Token >> (lease.TokenHandleBits + 32); got != wantEpoch {
			t.Fatalf("partition %d token %d carries epoch %d, want %d", g.Partition, g.Token, got, wantEpoch)
		}
	}
}
