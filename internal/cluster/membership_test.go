package cluster

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
)

// elasticLocal boots a cluster tuned for fast membership convergence: quick
// probes, a 50ms planner tick and a short migration fence.
func elasticLocal(t *testing.T, nodes, partitions, capacity int, mutate func(*LocalConfig)) *Local {
	t.Helper()
	cfg := LocalConfig{
		Nodes:      nodes,
		Partitions: partitions,
		Capacity:   capacity,
		Seed:       7,
		Node: NodeConfig{
			Lease:          lease.Config{TickInterval: 20 * time.Millisecond},
			DefaultTTL:     time.Minute,
			MaxTTL:         time.Minute,
			ProbeInterval:  25 * time.Millisecond,
			DownAfter:      2,
			RebalanceEvery: 50 * time.Millisecond,
			MigrateTimeout: 2 * time.Second,
			Logf:           t.Logf,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	l, err := StartLocal(cfg)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(l.Close)
	return l
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stewardTable returns the highest-epoch table any live member holds.
func stewardTable(l *Local) Table {
	return l.maxEpochTable()
}

// migrationsCut sums completed cutovers across the live members' journals.
func migrationsCut(l *Local) uint64 {
	var sum uint64
	for _, id := range l.AliveIDs() {
		if n := l.Node(id); n != nil {
			sum += n.events.Count(trace.EvMigrationCutover)
		}
	}
	return sum
}

// TestJoinFillsNewMember grows a 2-node cluster to 3: the joiner is admitted
// joining, promoted live by the steward, and handed a partition by the
// planner — with every lease granted before the join still renewable after.
func TestJoinFillsNewMember(t *testing.T) {
	l := elasticLocal(t, 2, 4, 256, nil)
	c, err := NewClient(ClientConfig{Targets: l.Targets()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	held := map[int]uint64{}
	for i := 0; i < 48; i++ {
		g, status, _, err := c.Acquire(60_000)
		if err != nil || status != http.StatusOK {
			t.Fatalf("acquire %d: status %d err %v", i, status, err)
		}
		held[g.Name] = g.Token
	}

	id, err := l.Join()
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if id != 2 {
		t.Fatalf("joined as member %d, want 2", id)
	}
	waitFor(t, 10*time.Second, "joiner promoted and filled", func() bool {
		tb := stewardTable(l)
		return len(tb.Members) == 3 &&
			tb.Members[2].EffectiveState() == StateLive &&
			len(tb.PartitionsOf(2)) >= 1
	})
	// The target counts the cutover as it installs the staged partition,
	// which can land just after the table above shows the move.
	waitFor(t, 10*time.Second, "the join fill's migration cutover", func() bool {
		return migrationsCut(l) > 0
	})

	// Every pre-join lease survived the migration (the routed client follows
	// the cutover's 421/412s transparently).
	for name, token := range held {
		if _, status, err := c.Renew(name, token, 60_000); err != nil || status != http.StatusOK {
			t.Fatalf("renew %d after join: status %d err %v", name, status, err)
		}
	}
	// And the grown cluster still never double-issues.
	for i := 0; i < 48; i++ {
		g, status, _, err := c.Acquire(60_000)
		if err != nil || status != http.StatusOK {
			t.Fatalf("post-join acquire %d: status %d err %v", i, status, err)
		}
		if _, dup := held[g.Name]; dup {
			t.Fatalf("name %d granted twice while held", g.Name)
		}
		held[g.Name] = g.Token
	}
}

// TestRejoinAfterRestart is the Down-sticky regression test: a member that
// crashes, is failed over, and comes back is re-upped by the steward (live,
// owning nothing) and then re-filled by the planner — instead of staying
// down forever.
func TestRejoinAfterRestart(t *testing.T) {
	l := elasticLocal(t, 3, 8, 256, nil)
	c, err := NewClient(ClientConfig{Targets: l.Targets()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	// A little load so the cluster is not idle.
	for i := 0; i < 24; i++ {
		if _, status, _, err := c.Acquire(60_000); err != nil || status != http.StatusOK {
			t.Fatalf("acquire %d: status %d err %v", i, status, err)
		}
	}

	l.Kill(2)
	waitFor(t, 10*time.Second, "member 2 marked down", func() bool {
		tb := stewardTable(l)
		return tb.Members[2].EffectiveState() == StateDown && len(tb.PartitionsOf(2)) == 0
	})

	if err := l.Restart(2); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	waitFor(t, 10*time.Second, "member 2 rejoined live", func() bool {
		return stewardTable(l).Members[2].EffectiveState() == StateLive
	})
	waitFor(t, 10*time.Second, "member 2 re-filled by the planner", func() bool {
		return len(stewardTable(l).PartitionsOf(2)) >= 1
	})

	// The rejoined member serves again: keep acquiring until a grant lands on
	// node 2.
	waitFor(t, 10*time.Second, "a grant from the rejoined member", func() bool {
		g, status, _, err := c.Acquire(60_000)
		return err == nil && status == http.StatusOK && g.NodeID == 2
	})
}

// TestDrainRetiresMember drains a member: the planner migrates it empty one
// partition at a time, every migrated lease stays renewable, and the emptied
// member is retired (left).
func TestDrainRetiresMember(t *testing.T) {
	l := elasticLocal(t, 3, 8, 256, nil)
	c, err := NewClient(ClientConfig{Targets: l.Targets()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	held := map[int]uint64{}
	fromDrained := 0
	for i := 0; i < 96; i++ {
		g, status, _, err := c.Acquire(60_000)
		if err != nil || status != http.StatusOK {
			t.Fatalf("acquire %d: status %d err %v", i, status, err)
		}
		held[g.Name] = g.Token
		if g.NodeID == 2 {
			fromDrained++
		}
	}
	if fromDrained == 0 {
		t.Fatal("no lease landed on the member to be drained; test is vacuous")
	}

	if err := l.Drain(2); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waitFor(t, 15*time.Second, "member 2 drained empty and retired", func() bool {
		tb := stewardTable(l)
		return tb.Members[2].EffectiveState() == StateLeft && len(tb.PartitionsOf(2)) == 0
	})
	if migrationsCut(l) == 0 {
		t.Fatal("drain emptied the member without a migration cutover")
	}

	// Zero lost leases: every grant — including those migrated off the
	// drained member — still renews.
	for name, token := range held {
		if _, status, err := c.Renew(name, token, 60_000); err != nil || status != http.StatusOK {
			t.Fatalf("renew %d after drain: status %d err %v", name, status, err)
		}
	}
}

// TestMigrateAbortUnfences drives the prepare path against an unreachable
// target: the ship fails, the fence is released immediately, and the
// partition serves again with its leases intact.
func TestMigrateAbortUnfences(t *testing.T) {
	l := elasticLocal(t, 2, 4, 64, func(cfg *LocalConfig) {
		cfg.Node.RebalanceEvery = -1 // planner off: this test drives prepare by hand
	})
	c, err := NewClient(ClientConfig{Targets: l.Targets()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	g, status, _, err := c.Acquire(60_000)
	if err != nil || status != http.StatusOK {
		t.Fatalf("acquire: status %d err %v", status, err)
	}
	src := l.Node(g.NodeID)

	rep, st := src.migratePrepare(MigratePrepareRequest{
		Partition:  g.Partition,
		Epoch:      src.Epoch() + 1,
		TargetID:   1 - g.NodeID,
		TargetAddr: "http://127.0.0.1:1", // nothing listens here
	})
	if rep.OK || st/100 == 2 {
		t.Fatalf("prepare against a dead target succeeded: %+v (status %d)", rep, st)
	}
	if got := src.events.Count(trace.EvMigrationAbort); got != 1 {
		t.Fatalf("aborted migrations = %d, want 1", got)
	}
	if got := src.events.Count(trace.EvMigrationStaged); got != 0 {
		t.Fatalf("staged migrations = %d, want 0", got)
	}
	// The fence is gone: the lease on the partition renews immediately.
	if _, status, err := c.Renew(g.Name, g.Token, 60_000); err != nil || status != http.StatusOK {
		t.Fatalf("renew after abort: status %d err %v", status, err)
	}
}

// TestMigrationSourceKilledMidTransfer kills a draining member while the
// planner is migrating it empty. Whatever instant the kill lands at —
// before the fence, mid-ship, staged-but-not-cut-over — the outcome must be
// clean. A partition that cut over before the kill keeps its leases on the
// target; the dead source's other partitions fail over empty behind the
// quarantine, so their leases are refused rather than renewed. The dead
// member serves none of them, and no name is granted twice.
func TestMigrationSourceKilledMidTransfer(t *testing.T) {
	l := elasticLocal(t, 3, 8, 256, func(cfg *LocalConfig) {
		cfg.DataDir = t.TempDir()
	})
	c, err := NewClient(ClientConfig{Targets: l.Targets()})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	held := map[int]uint64{}
	for i := 0; i < 96; i++ {
		g, status, _, err := c.Acquire(60_000)
		if err != nil || status != http.StatusOK {
			t.Fatalf("acquire %d: status %d err %v", i, status, err)
		}
		held[g.Name] = g.Token
	}
	tb := c.Table()
	sourceParts := map[int]bool{}
	for _, p := range tb.PartitionsOf(2) {
		sourceParts[p] = true
	}

	// Start the drain (the planner begins migrating member 2 empty) and kill
	// the source almost immediately — with a 50ms planner tick the kill lands
	// around the first fence/ship.
	if err := l.Drain(2); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	l.Kill(2)

	waitFor(t, 15*time.Second, "member 2 out of the serving set", func() bool {
		tb := stewardTable(l)
		return !tb.Members[2].Serving() && len(tb.PartitionsOf(2)) == 0
	})

	// Every lease renews on a live member (its partition was never the
	// source's, or cut over before the kill) or is refused (its partition
	// failed over empty).
	renewed, refused := 0, 0
	for name, token := range held {
		g, status, err := c.Renew(name, token, 60_000)
		switch {
		case err != nil:
			t.Fatalf("renew %d after source kill: %v", name, err)
		case status == http.StatusOK:
			if g.NodeID == 2 {
				t.Fatalf("renew %d served by the killed member", name)
			}
			renewed++
		case status == http.StatusConflict && sourceParts[tb.PartitionOf(name)]:
			refused++
		default:
			t.Fatalf("renew %d (partition %d) after source kill: status %d", name, tb.PartitionOf(name), status)
		}
	}
	t.Logf("after the kill: %d leases renewed, %d refused by an empty adopter", renewed, refused)

	// Fresh acquires never collide with a held name, refused ones included:
	// a partition adopted empty grants nothing until its quarantine has
	// outlived every lease the source could have granted. A 503 backs off.
	deadline := time.Now().Add(15 * time.Second)
	for granted := 0; granted < 48; {
		g, status, hint, err := c.Acquire(60_000)
		switch {
		case err != nil:
			t.Fatalf("post-kill acquire %d: %v", granted, err)
		case status == http.StatusOK:
			if _, dup := held[g.Name]; dup {
				t.Fatalf("name %d granted twice while held", g.Name)
			}
			held[g.Name] = g.Token
			granted++
		case status == http.StatusServiceUnavailable && time.Now().Before(deadline):
			time.Sleep(min(hint, 50*time.Millisecond))
		default:
			t.Fatalf("post-kill acquire %d: status %d", granted, status)
		}
	}
}

// TestChaosGrowAndDrain is the elastic-scale acceptance run: the chaos
// verifier grows a 3-node cluster to 5 under load, then drains the
// highest-ID original member — all while the ledger checks every grant.
// Zero violations means no duplicate names, no early reissues, no lost
// releases, and no migrated lease lost across any join_fill or drain
// migration.
func TestChaosGrowAndDrain(t *testing.T) {
	l := elasticLocal(t, 3, 8, 512, nil)
	report, err := RunChaos(ChaosConfig{
		Local:        l,
		Clients:      8,
		Acquires:     8000,
		TTL:          400 * time.Millisecond,
		HoldMean:     time.Millisecond, // stretch the run past the joins and the drain
		CrashPercent: 10,
		RenewPercent: 20,
		Seed:         17,
		GrowTo:       5,
		GrowEvery:    300 * time.Millisecond,
		DrainOne:     true,
		ReclaimSlack: 400 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("chaos violations: %v\nreport: %+v", v, report)
	}
	if report.Joins != 2 {
		t.Fatalf("joins = %d %v, want 2 (grow 3 -> 5)", report.Joins, report.JoinedNodes)
	}
	if report.Drains != 1 || report.DrainStuck != 0 {
		t.Fatalf("drains = %d (stuck %d), want exactly 1 clean retirement", report.Drains, report.DrainStuck)
	}
	if !(report.MigrationsPlanned >= report.MigrationsStaged && report.MigrationsStaged >= report.MigrationsCutover && report.MigrationsCutover > 0) {
		t.Fatalf("migrations planned/staged/cutover %d/%d/%d, want planned >= staged >= cutover > 0",
			report.MigrationsPlanned, report.MigrationsStaged, report.MigrationsCutover)
	}
	// The report counts the journal the watcher captured, joiners' and the
	// drained member's included: it must hold every cutover the members count.
	if live := migrationsCut(l); report.MigrationsCutover < live {
		t.Fatalf("journal captured %d migration cutovers, the live members count %d", report.MigrationsCutover, live)
	}
	// The drained member must be gone from the serving set; the joiners must
	// be serving partitions.
	tb := stewardTable(l)
	if tb.Members[2].EffectiveState() != StateLeft || len(tb.PartitionsOf(2)) != 0 {
		t.Fatalf("drained member 2 not retired: state %q, %d partitions", tb.Members[2].EffectiveState(), len(tb.PartitionsOf(2)))
	}
	filled := 0
	for _, id := range report.JoinedNodes {
		if len(tb.PartitionsOf(id)) > 0 {
			filled++
		}
	}
	if filled == 0 {
		t.Fatalf("no joined member owns a partition: %+v", tb.Assignment)
	}
}

// TestStewardGate sends each HTTP control call to a member that is not the
// steward. Carrying X-La-Forwarded (a call already proxied once), it answers
// 503 not_owner itself and runs nothing; sent plainly, the steward answers
// it: the steward journals the transition (or, for rebalance, reports its
// own round), and the member that took the call journals nothing.
func TestStewardGate(t *testing.T) {
	for _, tc := range []struct {
		path  string
		body  any
		event string // the steward's journal entry; "" for rebalance
	}{
		{"/cluster/join", JoinRequest{Addr: "http://127.0.0.1:1"}, trace.EvMemberJoin},
		{"/cluster/drain", DrainRequest{ID: 2}, trace.EvMemberDrain},
		{"/cluster/rebalance", struct{}{}, ""},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/cluster/"), func(t *testing.T) {
			l := fastLocal(t, 3, 4, 128)
			steward, member := l.Node(0), l.Node(1)
			if st, _ := member.Table().Steward(); st.ID != 0 {
				t.Fatalf("steward is member %d, want 0", st.ID)
			}
			journaled := func(n *Node) bool {
				for _, e := range n.events.Events() {
					if e.Type == tc.event {
						return true
					}
				}
				return false
			}
			hc := &http.Client{Timeout: 5 * time.Second}
			url := l.Targets()[1] + tc.path

			var fail server.ErrorResponse
			status, _, err := server.PostJSON(hc, url, forwarded, tc.body, nil, &fail)
			if err != nil || status != http.StatusServiceUnavailable || fail.Error != ErrCodeNotOwner {
				t.Fatalf("forwarded call: status %d (%q) err %v, want 503 %q", status, fail.Error, err, ErrCodeNotOwner)
			}
			if tc.event != "" && (journaled(steward) || journaled(member)) {
				t.Fatalf("a forwarded call to a non-steward ran %s", tc.event)
			}

			var reply RebalanceResponse
			status, _, err = server.PostJSON(hc, url, nil, tc.body, &reply, &fail)
			if err != nil || status != http.StatusOK {
				t.Fatalf("call: status %d (%q) err %v, want 200", status, fail.Error, err)
			}
			if tc.event == "" {
				if reply.Steward != 0 || reply.Error != "" {
					t.Fatalf("rebalance answered %+v, want the steward's own round", reply)
				}
				return
			}
			if !journaled(steward) || journaled(member) {
				t.Fatalf("%s journaled by the steward: %v, by the member called: %v; want only the steward",
					tc.event, journaled(steward), journaled(member))
			}
		})
	}
}
