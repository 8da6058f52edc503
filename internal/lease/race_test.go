package lease

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/shard"
)

// acqInterval is one Acquire (or one Collect scan) on the test's shared
// sequence counter: the name it returned (or saw) and the counter values
// taken before and after it.
type acqInterval struct {
	name       int
	start, end uint64
}

// unexplained returns the suspects no Acquire explains: a scan may report a
// name whose Get is still in flight, so a suspect is accepted only when an
// Acquire returning that name overlapped its scan.
func unexplained(acquires map[int][]acqInterval, suspects []acqInterval) []acqInterval {
	var out []acqInterval
	for _, s := range suspects {
		explained := false
		for _, a := range acquires[s.name] {
			if a.start < s.end && a.end > s.start {
				explained = true
				break
			}
		}
		if !explained {
			out = append(out, s)
		}
	}
	return out
}

// TestCollectDuringStealsAndExpiry is the end-to-end collect-validity test
// for the full stack: a sharded array under enough load that home shards
// overflow and Gets steal across shards, a background expirer reaping
// abandoned leases, and concurrent Collect scans. It asserts the paper's
// validity guarantee at the lease level — a Collect may only ever return
// names that some lease held or whose Get was in flight during the scan (no
// invented names, no duplicates within one scan) — and that after quiescing
// and expiring everything, the system drains to exactly empty with the
// lease table and bitmaps in agreement. It is designed to run under -race.
func TestCollectDuringStealsAndExpiry(t *testing.T) {
	const (
		shards  = 4
		workers = 8
		tick    = 2 * time.Millisecond
		runFor  = 300 * time.Millisecond
	)
	// Deliberately unbalanced shards (one big, three tiny, via the NewShard
	// factory): handles homed on the tiny shards overflow almost immediately
	// and steal into the big one, so the cross-shard path runs continuously
	// instead of only at total saturation.
	arr := shard.MustNew(shard.Config{Shards: shards, Capacity: 32,
		NewShard: func(sh, capacity int, seed uint64) (activity.Array, error) {
			if sh == 0 {
				return core.New(core.Config{Capacity: 16, Seed: seed})
			}
			return core.New(core.Config{Capacity: 2, Seed: seed})
		}})
	m := MustNewManager(arr, Config{TickInterval: tick, WheelBuckets: 16})
	m.Start()
	defer m.Close()

	// everIssued[name] is set once an Acquire returning name returns. A
	// scan may see the bit of a Get still in flight, so a name not yet marked
	// is only a suspect: every Acquire logs its interval on seq, every
	// suspect its scan's, and after the run unexplained rejects a suspect no
	// overlapping Acquire returned. The mark is stored before the Acquire's
	// end is taken, so a name still unmarked when a scan checks it belongs to
	// an Acquire that ends after that scan.
	everIssued := make([]atomic.Bool, arr.Size())
	const collectors = 2
	var (
		seq      atomic.Uint64
		acquired = make([][]acqInterval, workers)
		suspects = make([][]acqInterval, collectors)
	)

	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		abandons atomic.Uint64
		steals   atomic.Uint64
	)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rounds := 0
			for !stop.Load() {
				rounds++
				start := seq.Add(1)
				l, err := m.Acquire(4 * tick)
				if err != nil {
					if errors.Is(err, activity.ErrFull) {
						// Abandoned leases hold slots until expiry; yield and
						// let the expirer drain.
						time.Sleep(tick)
						continue
					}
					t.Errorf("worker %d: Acquire: %v", w, err)
					return
				}
				everIssued[l.Name].Store(true)
				acquired[w] = append(acquired[w], acqInterval{name: l.Name, start: start, end: seq.Add(1)})
				if rounds%5 == 0 {
					// Crash: walk away without releasing. The expirer must
					// reclaim the slot; a later stale Release must bounce.
					abandons.Add(1)
					continue
				}
				// A lease is only promised until its deadline: a worker
				// descheduled past it (the race detector slows every step)
				// finds it fenced, which is the expirer working, not a lost
				// lease. A fence before the deadline fails the test.
				deadline := l.Deadline
				lapsed := func(err error) bool {
					return (errors.Is(err, ErrStaleToken) || errors.Is(err, ErrNotLeased)) && time.Now().After(deadline)
				}
				if rounds%3 == 0 {
					r, err := m.Renew(l.Name, l.Token, 4*tick)
					if lapsed(err) {
						continue
					}
					if err != nil {
						t.Errorf("worker %d: live Renew: %v", w, err)
						return
					}
					deadline = r.Deadline
				}
				if err := m.Release(l.Name, l.Token); err != nil && !lapsed(err) {
					t.Errorf("worker %d: live Release: %v", w, err)
					return
				}
			}
		}()
	}

	// Track steal volume so the test actually fails if the scenario stops
	// exercising the cross-shard path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			var total uint64
			for _, s := range arr.ShardStats() {
				total += s.StealsIn
			}
			steals.Store(total)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Concurrent collectors: validity within every single scan.
	for c := 0; c < collectors; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int, 0, arr.Size())
			seen := make(map[int]bool, arr.Size())
			for !stop.Load() {
				start := seq.Add(1)
				buf = m.Collect(buf[:0])
				end := seq.Add(1)
				clear(seen)
				for _, name := range buf {
					if name < 0 || name >= arr.Size() {
						t.Errorf("Collect returned name %d outside namespace [0, %d)", name, arr.Size())
						return
					}
					if seen[name] {
						t.Errorf("Collect returned duplicate name %d in one scan", name)
						return
					}
					seen[name] = true
					if !everIssued[name].Load() {
						suspects[c] = append(suspects[c], acqInterval{name: name, start: start, end: end})
					}
				}
			}
		}()
	}

	time.Sleep(runFor)
	stop.Store(true)
	wg.Wait()

	byName := make(map[int][]acqInterval)
	for _, log := range acquired {
		for _, a := range log {
			byName[a.name] = append(byName[a.name], a)
		}
	}
	var scanned []acqInterval
	for _, s := range suspects {
		scanned = append(scanned, s...)
	}
	if bad := unexplained(byName, scanned); len(bad) > 0 {
		t.Fatalf("Collect returned names no Acquire in flight during the scan returned: %+v", bad)
	}
	// The oracle must still catch an invented name: one no Acquire ever
	// returned, and an issued one seen by a scan after every Acquire ended.
	last, issued := seq.Load(), -1
	for name := range byName {
		issued = name
		break
	}
	planted := []acqInterval{
		{name: arr.Size(), start: 1, end: last},
		{name: issued, start: last + 1, end: last + 2},
	}
	if got := unexplained(byName, planted); len(got) != len(planted) {
		t.Fatalf("oracle explained planted names: flagged %+v of %+v", got, planted)
	}
	t.Logf("%d in-flight names seen by scans, all explained", len(scanned))

	if abandons.Load() == 0 {
		t.Fatal("scenario never abandoned a lease; expiry path not exercised")
	}
	if steals.Load() == 0 {
		t.Fatal("scenario never stole across shards; steal path not exercised")
	}

	// Quiesce: everything left is abandoned; two tick windows past the
	// longest TTL must drain the system to empty.
	deadline := time.Now().Add(2 * time.Second)
	for m.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("expirer failed to drain %d abandoned leases", m.Active())
		}
		time.Sleep(tick)
	}
	if names := m.Collect(nil); len(names) != 0 {
		t.Fatalf("Collect after drain = %v, want empty", names)
	}
	if orphans, missing := m.Verify(); len(orphans) != 0 || len(missing) != 0 {
		t.Fatalf("Verify after drain: orphan bits %v, missing bits %v", orphans, missing)
	}
	s := m.Stats()
	if s.Expirations < abandons.Load() {
		t.Fatalf("Expirations = %d, want at least the %d abandoned leases", s.Expirations, abandons.Load())
	}
	if s.Acquires != s.Releases+s.Expirations {
		t.Fatalf("ledger mismatch: %d acquires vs %d releases + %d expirations", s.Acquires, s.Releases, s.Expirations)
	}
}
