package lease

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/shard"
	"github.com/levelarray/levelarray/internal/tas"
	"github.com/levelarray/levelarray/internal/trace"
)

// fakeClock is a manually advanced time source for driving Tick directly.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

const testTick = 10 * time.Millisecond

// newTestManager builds a manager over a small LevelArray with a fake clock.
func newTestManager(t *testing.T, capacity int) (*Manager, *fakeClock) {
	t.Helper()
	arr := core.MustNew(core.Config{Capacity: capacity})
	clk := newFakeClock()
	m := MustNewManager(arr, Config{TickInterval: testTick, WheelBuckets: 8, Clock: clk.now})
	return m, clk
}

func TestAcquireReleaseBasic(t *testing.T) {
	m, _ := newTestManager(t, 8)
	l, err := m.Acquire(0)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if l.Token == 0 {
		t.Fatal("token must be nonzero")
	}
	if !l.Deadline.IsZero() {
		t.Fatalf("infinite lease must have zero deadline, got %v", l.Deadline)
	}
	if got := m.Active(); got != 1 {
		t.Fatalf("Active = %d, want 1", got)
	}
	if names := m.Collect(nil); len(names) != 1 || names[0] != l.Name {
		t.Fatalf("Collect = %v, want [%d]", names, l.Name)
	}
	if err := m.Release(l.Name, l.Token); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := m.Active(); got != 0 {
		t.Fatalf("Active after release = %d, want 0", got)
	}
	if err := m.Release(l.Name, l.Token); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("double Release = %v, want ErrNotLeased", err)
	}
	s := m.Stats()
	if s.Acquires != 1 || s.Releases != 1 || s.ReleaseRaces != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTokenFencing(t *testing.T) {
	m, _ := newTestManager(t, 8)
	l, err := m.Acquire(time.Second)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if _, err := m.Renew(l.Name, l.Token+1<<TokenHandleBits, time.Second); !errors.Is(err, ErrStaleToken) {
		t.Fatalf("Renew with wrong token = %v, want ErrStaleToken", err)
	}
	if err := m.Release(l.Name, l.Token^1); !errors.Is(err, ErrStaleToken) {
		t.Fatalf("Release with wrong token = %v, want ErrStaleToken", err)
	}
	if err := m.Release(l.Name, l.Token); err != nil {
		t.Fatalf("Release with right token: %v", err)
	}
	s := m.Stats()
	if s.RenewRaces != 1 || s.ReleaseRaces != 1 {
		t.Fatalf("race counters = %+v", s)
	}
}

func TestExpiry(t *testing.T) {
	m, clk := newTestManager(t, 4)
	ttl := 3 * testTick
	l, err := m.Acquire(ttl)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if l.Deadline.IsZero() {
		t.Fatal("finite lease must have a deadline")
	}

	// Ticks strictly before the deadline must not reap the lease.
	clk.advance(2 * testTick)
	m.Tick()
	if got := m.Active(); got != 1 {
		t.Fatalf("Active before deadline = %d, want 1", got)
	}

	// The first tick at/after the deadline reaps it.
	clk.advance(2 * testTick)
	m.Tick()
	if got := m.Active(); got != 0 {
		t.Fatalf("Active after deadline tick = %d, want 0", got)
	}
	if s := m.Stats(); s.Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1", s.Expirations)
	}
	if names := m.Collect(nil); len(names) != 0 {
		t.Fatalf("Collect after expiry = %v, want empty", names)
	}

	// The stale token can neither renew nor release.
	if _, err := m.Renew(l.Name, l.Token, ttl); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("Renew after expiry = %v, want ErrNotLeased", err)
	}
	if err := m.Release(l.Name, l.Token); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("Release after expiry = %v, want ErrNotLeased", err)
	}

	// The slot is reusable, and the new token fences out the old one even on
	// the same name.
	l2, err := m.Acquire(ttl)
	if err != nil {
		t.Fatalf("re-Acquire: %v", err)
	}
	if l2.Token <= l.Token {
		t.Fatalf("token must increase: %d then %d", l.Token, l2.Token)
	}
	if l2.Name == l.Name {
		if err := m.Release(l2.Name, l.Token); !errors.Is(err, ErrStaleToken) {
			t.Fatalf("Release reissued name with old token = %v, want ErrStaleToken", err)
		}
	}
}

func TestRenewExtends(t *testing.T) {
	m, clk := newTestManager(t, 4)
	ttl := 3 * testTick
	l, err := m.Acquire(ttl)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	clk.advance(2 * testTick)
	m.Tick()
	renewed, err := m.Renew(l.Name, l.Token, ttl)
	if err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if !renewed.Deadline.After(l.Deadline) {
		t.Fatalf("renewed deadline %v not after original %v", renewed.Deadline, l.Deadline)
	}

	// Past the original deadline the lease must survive...
	clk.advance(2 * testTick)
	m.Tick()
	if got := m.Active(); got != 1 {
		t.Fatalf("Active past original deadline = %d, want 1 (renewed)", got)
	}
	// ...and past the renewed deadline it must not.
	clk.advance(4 * testTick)
	m.Tick()
	if got := m.Active(); got != 0 {
		t.Fatalf("Active past renewed deadline = %d, want 0", got)
	}
	if s := m.Stats(); s.Renews != 1 || s.Expirations != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInfiniteLeaseNeverExpires(t *testing.T) {
	m, clk := newTestManager(t, 4)
	l, err := m.Acquire(0)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// Many full wheel revolutions.
	for i := 0; i < 50; i++ {
		clk.advance(5 * testTick)
		m.Tick()
	}
	if got := m.Active(); got != 1 {
		t.Fatalf("Active = %d, want 1", got)
	}
	if err := m.Release(l.Name, l.Token); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

func TestExpiryAcrossWheelRevolutions(t *testing.T) {
	m, clk := newTestManager(t, 4)
	// The test wheel has 8 buckets; a 30-tick TTL wraps it almost four times.
	ttl := 30 * testTick
	if _, err := m.Acquire(ttl); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	for i := 0; i < 29; i++ {
		clk.advance(testTick)
		m.Tick()
		if got := m.Active(); got != 1 {
			t.Fatalf("Active at tick %d = %d, want 1", i+1, got)
		}
	}
	clk.advance(2 * testTick)
	m.Tick()
	if got := m.Active(); got != 0 {
		t.Fatalf("Active after TTL = %d, want 0", got)
	}
}

func TestMaxTTL(t *testing.T) {
	arr := core.MustNew(core.Config{Capacity: 4})
	clk := newFakeClock()
	m := MustNewManager(arr, Config{TickInterval: testTick, MaxTTL: time.Second, Clock: clk.now})
	if _, err := m.Acquire(2 * time.Second); !errors.Is(err, ErrTTLTooLong) {
		t.Fatalf("Acquire over MaxTTL = %v, want ErrTTLTooLong", err)
	}
	if _, err := m.Acquire(0); !errors.Is(err, ErrTTLTooLong) {
		t.Fatalf("infinite Acquire under MaxTTL = %v, want ErrTTLTooLong", err)
	}
	if _, err := m.Acquire(time.Second); err != nil {
		t.Fatalf("Acquire at MaxTTL: %v", err)
	}
}

func TestHandlePoolReuse(t *testing.T) {
	m, _ := newTestManager(t, 8)
	l1, err := m.Acquire(0)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	id1 := l1.Token & (1<<TokenHandleBits - 1)
	if id1 == 0 {
		t.Fatal("token must embed the handle identity for Identified handles")
	}
	if err := m.Release(l1.Name, l1.Token); err != nil {
		t.Fatalf("Release: %v", err)
	}
	l2, err := m.Acquire(0)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	id2 := l2.Token & (1<<TokenHandleBits - 1)
	if id1 != id2 {
		t.Fatalf("second acquire used handle %d, want pooled handle %d", id2, id1)
	}
	if l2.Token>>TokenHandleBits <= l1.Token>>TokenHandleBits {
		t.Fatalf("token sequence must increase: %d then %d", l1.Token, l2.Token)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	m, clk := newTestManager(t, 2)
	var leases []Lease
	for {
		l, err := m.Acquire(2 * testTick)
		if err != nil {
			if !errors.Is(err, activity.ErrFull) {
				t.Fatalf("Acquire = %v, want ErrFull at exhaustion", err)
			}
			break
		}
		leases = append(leases, l)
	}
	if len(leases) != m.Size() {
		t.Fatalf("acquired %d leases, want the full namespace %d", len(leases), m.Size())
	}
	if s := m.Stats(); s.FailedAcquires != 1 {
		t.Fatalf("FailedAcquires = %d, want 1", s.FailedAcquires)
	}
	// Expiry makes the whole namespace reusable again.
	clk.advance(4 * testTick)
	m.Tick()
	if got := m.Active(); got != 0 {
		t.Fatalf("Active = %d, want 0", got)
	}
	if _, err := m.Acquire(0); err != nil {
		t.Fatalf("Acquire after expiry: %v", err)
	}
}

func TestOrphanSweepReclaims(t *testing.T) {
	arr := core.MustNew(core.Config{Capacity: 8})
	clk := newFakeClock()
	m := MustNewManager(arr, Config{TickInterval: testTick, Clock: clk.now})

	// A registration that bypassed the manager: a bit set directly on the
	// main bitmap, with no lease record.
	space := arr.MainSpace().(*tas.BitmapSpace)
	if !space.TestAndSet(3) {
		t.Fatal("slot 3 unexpectedly taken")
	}
	orphans, _ := m.Verify()
	if len(orphans) != 1 || orphans[0] != 3 {
		t.Fatalf("Verify orphans = %v, want [3]", orphans)
	}

	// One sweep suspects, the second reclaims.
	clk.advance(testTick)
	m.Tick()
	if space.Read(3) != true {
		t.Fatal("first sweep must only suspect, not reclaim")
	}
	clk.advance(testTick)
	m.Tick()
	if space.Read(3) {
		t.Fatal("second sweep must reclaim the orphan bit")
	}
	if s := m.Stats(); s.OrphansReclaimed != 1 {
		t.Fatalf("OrphansReclaimed = %d, want 1", s.OrphansReclaimed)
	}
	if orphans, missing := m.Verify(); len(orphans) != 0 || len(missing) != 0 {
		t.Fatalf("Verify after reclaim = %v, %v, want clean", orphans, missing)
	}
}

func TestSweepSparesLiveLeases(t *testing.T) {
	m, clk := newTestManager(t, 8)
	l, err := m.Acquire(0)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	for i := 0; i < 5; i++ {
		clk.advance(testTick)
		m.Tick()
	}
	if s := m.Stats(); s.OrphansReclaimed != 0 {
		t.Fatalf("sweep reclaimed a live lease: %+v", s)
	}
	if err := m.Release(l.Name, l.Token); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

func TestShardedManagerWithSteals(t *testing.T) {
	clk := newFakeClock()
	arr := shard.MustNew(shard.Config{Shards: 4, Capacity: 8})
	m := MustNewManager(arr, Config{TickInterval: testTick, Clock: clk.now})

	// Fill well past one shard's capacity so home shards overflow and Gets
	// steal; every lease must still expire and verify cleanly.
	var leases []Lease
	for i := 0; i < arr.Capacity(); i++ {
		l, err := m.Acquire(3 * testTick)
		if err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
		leases = append(leases, l)
	}
	seen := make(map[int]bool)
	for _, l := range leases {
		if seen[l.Name] {
			t.Fatalf("duplicate name %d across concurrent leases", l.Name)
		}
		seen[l.Name] = true
	}
	if orphans, missing := m.Verify(); len(orphans) != 0 || len(missing) != 0 {
		t.Fatalf("Verify = %v, %v, want clean", orphans, missing)
	}
	clk.advance(5 * testTick)
	m.Tick()
	if got := m.Active(); got != 0 {
		t.Fatalf("Active after expiry = %d, want 0", got)
	}
	if s := m.Stats(); s.Expirations != uint64(len(leases)) {
		t.Fatalf("Expirations = %d, want %d", s.Expirations, len(leases))
	}
	if names := m.Collect(nil); len(names) != 0 {
		t.Fatalf("Collect after expiry = %v, want empty", names)
	}
}

func TestCloseRejectsOperations(t *testing.T) {
	m, _ := newTestManager(t, 4)
	l, err := m.Acquire(0)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	m.Start()
	m.Close()
	m.Close() // idempotent
	if _, err := m.Acquire(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close = %v, want ErrClosed", err)
	}
	if _, err := m.Renew(l.Name, l.Token, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("Renew after Close = %v, want ErrClosed", err)
	}
	if err := m.Release(l.Name, l.Token); !errors.Is(err, ErrClosed) {
		t.Fatalf("Release after Close = %v, want ErrClosed", err)
	}
}

func TestProbeStatsFlow(t *testing.T) {
	m, _ := newTestManager(t, 8)
	for i := 0; i < 5; i++ {
		l, err := m.Acquire(0)
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		if err := m.Release(l.Name, l.Token); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
	m.Close()
	ps := m.ProbeStats()
	if ps.Ops != 5 || ps.Frees != 5 {
		t.Fatalf("ProbeStats = %+v, want 5 ops / 5 frees", ps)
	}
	if ps.TotalProbes < 5 {
		t.Fatalf("TotalProbes = %d, want at least one probe per Get", ps.TotalProbes)
	}
}

func TestBackgroundExpirer(t *testing.T) {
	arr := core.MustNew(core.Config{Capacity: 4})
	m := MustNewManager(arr, Config{TickInterval: 5 * time.Millisecond})
	m.Start()
	defer m.Close()
	l, err := m.Acquire(20 * time.Millisecond)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("background expirer did not reap the lease within 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Renew(l.Name, l.Token, time.Second); err == nil {
		t.Fatal("Renew of an expired lease must fail")
	}
}

// wheelItemCount sums the live records across all timer-wheel buckets.
func wheelItemCount(m *Manager) int {
	total := 0
	for i := range m.wheel {
		m.wheel[i].mu.Lock()
		total += len(m.wheel[i].items)
		m.wheel[i].mu.Unlock()
	}
	return total
}

// TestRenewDoesNotGrowWheel pins the heartbeat memory contract: a client
// renewing one lease forever must occupy O(1) wheel records, because Renew
// rides the already-scheduled record (which re-hashes itself forward on
// firing) instead of inserting a new one per renew.
func TestRenewDoesNotGrowWheel(t *testing.T) {
	m, clk := newTestManager(t, 4)
	l, err := m.Acquire(5 * testTick)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	for i := 0; i < 500; i++ {
		if _, err := m.Renew(l.Name, l.Token, 5*testTick); err != nil {
			t.Fatalf("Renew %d: %v", i, err)
		}
		if i%3 == 0 {
			clk.advance(testTick)
			m.Tick()
		}
	}
	if n := wheelItemCount(m); n > 2 {
		t.Fatalf("wheel holds %d records after 500 renews of one lease, want O(1)", n)
	}
	// The surviving record must still expire the lease once renews stop.
	clk.advance(7 * testTick)
	m.Tick()
	if got := m.Active(); got != 0 {
		t.Fatalf("Active after letting the heartbeat lapse = %d, want 0", got)
	}
}

// TestRenewShorterTTLExpiresEarlier covers the one case Renew must insert a
// fresh record: shortening the deadline below the scheduled tick.
func TestRenewShorterTTLExpiresEarlier(t *testing.T) {
	m, clk := newTestManager(t, 4)
	l, err := m.Acquire(20 * testTick)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if _, err := m.Renew(l.Name, l.Token, 2*testTick); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	clk.advance(4 * testTick)
	m.Tick()
	if got := m.Active(); got != 0 {
		t.Fatalf("Active after shortened deadline = %d, want 0 (must not wait for the original 20-tick record)", got)
	}
}

// TestRenewInfiniteThenFiniteStillExpires covers the stale-wheelTick hazard:
// an infinite renew lets the scheduled record die, so a later finite renew
// must schedule a fresh one.
func TestRenewInfiniteThenFiniteStillExpires(t *testing.T) {
	m, clk := newTestManager(t, 4)
	l, err := m.Acquire(2 * testTick)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if _, err := m.Renew(l.Name, l.Token, 0); err != nil {
		t.Fatalf("Renew to infinite: %v", err)
	}
	// Let the original record fire and die against the infinite deadline.
	clk.advance(4 * testTick)
	m.Tick()
	if got := m.Active(); got != 1 {
		t.Fatalf("infinite lease expired: Active = %d", got)
	}
	if _, err := m.Renew(l.Name, l.Token, 2*testTick); err != nil {
		t.Fatalf("Renew back to finite: %v", err)
	}
	clk.advance(4 * testTick)
	m.Tick()
	if got := m.Active(); got != 0 {
		t.Fatalf("finite-again lease never expired: Active = %d", got)
	}
}

// TestStartAfterCloseIsNoop pins the lifecycle contract: Start on a closed
// manager must not launch an expirer (which nothing could ever stop).
func TestStartAfterCloseIsNoop(t *testing.T) {
	m, _ := newTestManager(t, 4)
	m.Close()
	m.Start()
	m.lifeMu.Lock()
	started := m.started
	m.lifeMu.Unlock()
	if started {
		t.Fatal("Start after Close launched an expirer")
	}
	m.Close() // must not hang
}

// TestLockWaitPhase: a traced op charges the time it waited for a held entry
// lock to its lock-wait phase, and one that found the lock free charges
// nothing.
func TestLockWaitPhase(t *testing.T) {
	m, _ := newTestManager(t, 8)
	rec := trace.New(trace.Config{Enabled: true, SlowThreshold: time.Hour})
	sp := rec.Begin("acquire", "free")
	l, err := m.AcquireSpan(0, sp, nil)
	if err != nil {
		t.Fatalf("AcquireSpan: %v", err)
	}
	sp.Finish("")

	const hold = 20 * time.Millisecond
	e := &m.entries[l.Name]
	e.mu.Lock()
	sp = rec.Begin("release", "held")
	calling := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(calling)
		done <- m.ReleaseSpan(l.Name, l.Token, sp, nil)
	}()
	<-calling
	time.Sleep(hold)
	e.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("ReleaseSpan: %v", err)
	}
	sp.Finish("")

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if w := spans[0].PhaseNanos[trace.PhaseLockWait]; w != 0 {
		t.Fatalf("uncontended acquire charged %v to lock-wait, want 0", time.Duration(w))
	}
	if w := time.Duration(spans[1].PhaseNanos[trace.PhaseLockWait]); w < hold/2 {
		t.Fatalf("release behind a lock held %v charged %v to lock-wait", hold, w)
	}
}
