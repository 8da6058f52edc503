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

	if !led.excuse(session{1, 11}, nil, now) || led.killedSessions.Load() != 1 {
		t.Fatalf("renew rejected on a dying node not excused as a killed session (%d counted)", led.killedSessions.Load())
	}
	h, ok := led.beginRelease(session{2, 12})
	if !ok || !led.excuse(session{2, 12}, &h, now) || led.killedSessions.Load() != 2 {
		t.Fatalf("release of a dying node's lease: held %v, killed sessions %d", ok, led.killedSessions.Load())
	}
	led.Orphan(0, []int{2}, now)
	if got := led.Orphans(); !slices.Equal(got, []int{1}) || len(led.queue) != 1 || led.queue[0].name != 1 {
		t.Fatalf("sweep after the bump: orphans %v, probes %+v; want name 1 orphaned", got, led.queue)
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
	if !led.excuse(session{3, 1}, nil, later) {
		t.Fatal("the lapsed holder's fenced renew was not excused")
	}
	if got := led.holderLapses.Load(); got != 1 {
		t.Fatalf("holder lapses %d, want 1", got)
	}
	if led.duplicates.Load() != 0 || led.earlyReissues.Load() != 0 {
		t.Fatalf("a reissue at the bound counted as a violation: %d duplicates, %d early", led.duplicates.Load(), led.earlyReissues.Load())
	}
}
