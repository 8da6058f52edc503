package server

import (
	"slices"
	"testing"
	"time"
)

// TestLedgerExcusesSessionsOfADyingNode: between a kill and the killer
// observing its failover, a client can already reach the adopter and have a
// dead lease's renew or release rejected. The ledger must blame the kill, not
// the cluster, and still sweep the session whose renew was rejected into
// the orphans whose reissue it verifies.
func TestLedgerExcusesSessionsOfADyingNode(t *testing.T) {
	led := newLedger(time.Second, 0)
	now := time.Now()
	deadline := now.Add(time.Second).UnixMilli()
	led.Grant(GrantResponse{Name: 1, Token: 11, DeadlineUnixMillis: deadline, NodeID: 0, Partition: 2}, now, now)
	led.Grant(GrantResponse{Name: 2, Token: 12, DeadlineUnixMillis: deadline, NodeID: 0, Partition: 2}, now, now)
	led.Dying(0)

	if !led.excuse(session{1, 11}, nil, now, now) || led.killedSessions.Load() != 1 {
		t.Fatalf("renew rejected on a dying node not excused as a killed session (%d counted)", led.killedSessions.Load())
	}
	h, ok := led.beginRelease(session{2, 12})
	if !ok || !led.excuse(session{2, 12}, &h, now, now) || led.killedSessions.Load() != 2 {
		t.Fatalf("release of a dying node's lease: held %v, killed sessions %d", ok, led.killedSessions.Load())
	}
	led.Orphan(0, []int{2}, now)
	if got := led.Orphans(); !slices.Equal(got, []int{1}) || len(led.queue) != 1 || led.queue[0].name != 1 {
		t.Fatalf("sweep after the bump: orphans %v, probes %+v; want name 1 orphaned", got, led.queue)
	}
}

// TestLedgerResumedKillEndsNoLease: a kill the victim's own restart
// resolved, with no epoch bump, ended none of its leases, since it resumed
// them from its journal. A held session stays held, a renew acknowledged
// after the restart moves its bound, and no fencing probe is queued. A
// rejection of an operation sent after the restart counts again, while one
// in flight across the kill (a release the victim applied before it died,
// retried after the restart) is excused. A kill resolved by a bump still
// sweeps the session and queues its probe.
func TestLedgerResumedKillEndsNoLease(t *testing.T) {
	now := time.Now()
	deadline := now.Add(time.Minute).UnixMilli()
	grant := func(led *Ledger, name int, token uint64) {
		led.Grant(GrantResponse{Name: name, Token: token, DeadlineUnixMillis: deadline, NodeID: 0, Partition: 2}, now, now)
	}

	led := newLedger(time.Minute, 0)
	grant(led, 1, 11)
	grant(led, 2, 12)
	inFlight := time.Now()
	led.Dying(0)
	led.Resumed(0)
	if h, ok := led.held[1]; !ok || h.token != 11 {
		t.Fatalf("held session after a resumed kill: %+v, %v", h, ok)
	}
	later := time.Now().Add(time.Second)
	led.renewed(session{1, 11}, later, GrantResponse{Name: 1, Token: 11, DeadlineUnixMillis: later.Add(time.Minute).UnixMilli(), NodeID: 0})
	if h := led.held[1]; !h.bound.After(now.Add(time.Minute)) {
		t.Fatalf("renew after the restart left the bound at %v", h.bound)
	}
	if len(led.queue) != 0 || len(led.Orphans()) != 0 {
		t.Fatalf("a resumed kill queued probes %+v, orphans %v", led.queue, led.Orphans())
	}
	if led.excuse(session{1, 11}, nil, later, later) {
		t.Fatal("a rejection of an operation sent after the restart was excused by the kill")
	}
	h, ok := led.beginRelease(session{2, 12})
	if !ok || !led.excuse(session{2, 12}, &h, inFlight, later) {
		t.Fatal("a release in flight across the resumed kill, rejected on its retry, was not excused")
	}

	led = newLedger(time.Minute, 0)
	grant(led, 1, 11)
	led.Dying(0)
	led.Orphan(0, []int{2}, now)
	if _, ok := led.held[1]; ok || len(led.queue) != 1 || led.queue[0].name != 1 {
		t.Fatalf("sweep after a bump: held %v, probes %+v; want name 1 swept and probed", ok, led.queue)
	}
}

// TestLedgerCountsEachLapseOnce: a lease that expired under its holder is
// seen twice, when its name is granted again at its bound and when the
// holder's renew is fenced. It is one lapsed session, and its expiry is the
// one RunLoad's expiry check must find.
func TestLedgerCountsEachLapseOnce(t *testing.T) {
	led := newLedger(100*time.Millisecond, 0)
	sent := time.Now()
	deadline := sent.Add(100 * time.Millisecond)
	led.Grant(GrantResponse{Name: 3, Token: 1, DeadlineUnixMillis: deadline.UnixMilli()}, sent, sent)
	later := deadline.Add(time.Millisecond)
	led.Grant(GrantResponse{Name: 3, Token: 2, DeadlineUnixMillis: later.Add(100 * time.Millisecond).UnixMilli()}, later, later)
	if !led.excuse(session{3, 1}, nil, later, later) {
		t.Fatal("the lapsed holder's fenced renew was not excused")
	}
	if got := led.holderLapses.Load(); got != 1 {
		t.Fatalf("holder lapses %d, want 1", got)
	}
	if led.duplicates.Load() != 0 || led.earlyReissues.Load() != 0 {
		t.Fatalf("a reissue at the bound counted as a violation: %d duplicates, %d early", led.duplicates.Load(), led.earlyReissues.Load())
	}
}
