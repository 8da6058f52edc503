// Package lease binds every registration on an activity array to a
// TTL-bounded, token-fenced session: the crash-safety layer that turns the
// in-process Get/Free discipline into something remote clients can hold.
//
// A Manager wraps any activity.Array (a single LevelArray or the sharded
// composition). Acquire performs one Get through a pooled handle and returns
// the name together with a fencing token and a deadline; Renew extends the
// deadline; Release frees the name. Both Renew and Release are rejected when
// the presented token does not match the slot's current lease, so a client
// that crashed, lost its lease to expiry, and comes back with a stale token
// can neither extend nor free a name that has since been reissued — the
// classic fencing-token contract.
//
// Expiry is driven by a hashed timer wheel: each finite-TTL lease is hashed
// into the bucket of its deadline tick (rounded up, so a lease is never
// reaped early), and an expirer pass scans only the buckets whose ticks have
// elapsed. A tick therefore costs O(expired + bucket collisions), not
// O(capacity), and an abandoned lease is reclaimed within one tick of its
// deadline. Expiry frees the slot through the same handle that acquired it,
// so the underlying array observes a perfectly well-formed Get/Free history.
//
// Each expirer pass additionally cross-checks the lease table against the
// array's word-level bitmap state (tas.BitmapSpace.ForEachSet, one atomic
// load per 64 slots): a bit that stays set across two consecutive sweeps
// with no lease record is an orphan — a registration that bypassed or
// outlived its bookkeeping — and is reclaimed directly on the bitmap. The
// sweep runs only on arrays whose slot spaces are uninstrumented bitmap
// spaces; other substrates keep wheel-driven expiry but skip the cross-check.
package lease

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/shard"
	"github.com/levelarray/levelarray/internal/tas"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wal"
)

// Errors returned by the Manager beyond those of the underlying array.
var (
	// ErrStaleToken is returned by Renew and Release when the name exists but
	// the presented fencing token does not match its current lease (the lease
	// expired, was released, or the name was reissued).
	ErrStaleToken = errors.New("lease: fencing token does not match current lease")

	// ErrNotLeased is returned by Renew and Release when the name has no
	// active lease at all.
	ErrNotLeased = errors.New("lease: name not currently leased")

	// ErrClosed is returned by Acquire, Renew and Release after Close.
	ErrClosed = errors.New("lease: manager closed")

	// ErrTTLTooLong is returned by Acquire and Renew when the requested TTL
	// exceeds the configured MaxTTL.
	ErrTTLTooLong = errors.New("lease: requested TTL exceeds MaxTTL")
)

// TokenHandleBits is the number of low token bits that carry the acquiring
// handle's stable identity (activity.Identified). The remaining high bits
// hold a strictly increasing acquisition sequence number, so tokens are
// unique and monotone across every lease the manager ever grants — the
// property fencing tokens need — while still recording which pooled handle
// holds the slot, which Verify and the tests use.
const TokenHandleBits = 16

// Lease describes one granted session.
type Lease struct {
	// Name is the acquired index in [0, Size()) of the underlying array.
	Name int `json:"name"`
	// Token is the fencing token that must accompany Renew and Release.
	Token uint64 `json:"token"`
	// Deadline is the instant the lease expires; the zero time for an
	// infinite (TTL <= 0) lease.
	Deadline time.Time `json:"deadline,omitzero"`
}

// Config parameterizes a Manager. The zero value selects the defaults noted
// on each field.
type Config struct {
	// TickInterval is the expirer granularity: a lease is reclaimed at the
	// first tick boundary at or after its deadline, so expiry lateness is
	// bounded by one tick. Zero selects 100ms.
	TickInterval time.Duration

	// WheelBuckets is the number of timer-wheel buckets deadlines hash into.
	// More buckets mean fewer not-yet-due rescans for TTLs longer than one
	// wheel revolution (TickInterval * WheelBuckets). Zero selects 256.
	WheelBuckets int

	// MaxTTL, when positive, caps the TTL of Acquire and Renew; longer
	// requests fail with ErrTTLTooLong. Zero accepts any TTL, including the
	// infinite (TTL <= 0) lease.
	MaxTTL time.Duration

	// TokenSeqBase offsets the fencing-token sequence space. Managers whose
	// lifetimes can overlap over the same namespace window — successive
	// owners of a failed-over cluster partition — must use distinct bases,
	// or a token minted by one incarnation could exactly equal a token
	// minted by another and slip through the fence. The cluster layer
	// derives the base from the table epoch. Zero starts the sequence at
	// zero (the single-manager case, where uniqueness is per-manager).
	TokenSeqBase uint64

	// Clock overrides the time source, for deterministic tests driving the
	// expirer with Tick. Nil selects time.Now.
	Clock func() time.Time

	// Journal, when non-nil, makes lease transitions durable: every acquire,
	// renew, release and expiry is appended to it before the operation is
	// acknowledged (rollback on append failure keeps the in-memory grant and
	// the log in agreement), and Restore rebuilds the manager from its
	// recovered state after a crash. Nil keeps the manager purely in-memory.
	Journal Journal
}

func (c Config) withDefaults() Config {
	if c.TickInterval <= 0 {
		c.TickInterval = 100 * time.Millisecond
	}
	if c.WheelBuckets <= 0 {
		c.WheelBuckets = 256
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// entry is the per-name lease record. The mutex serializes every state
// transition of one name (acquire, renew, release, expire, orphan reclaim)
// and protects the bound handle, which is not safe for concurrent use.
type entry struct {
	mu       sync.Mutex
	active   bool
	token    uint64
	deadline int64 // UnixNano; 0 = infinite, never expires
	// wheelTick is the tick of the earliest live timer-wheel record covering
	// this lease (0 = none). Renew skips inserting a new record while one is
	// already scheduled at or before the new deadline tick — the record's
	// firing re-hashes to the then-current deadline — so a heartbeating
	// client costs one wheel record, not one per renew.
	wheelTick int64
	handle    activity.Handle
}

// wheelItem is one timer-wheel record. Records are lazily deleted: a release
// or renew leaves the old record in place, and the expirer drops it when the
// token no longer matches the entry (or the deadline moved).
type wheelItem struct {
	name  int
	token uint64
}

// bucket is one timer-wheel bucket.
type bucket struct {
	mu    sync.Mutex
	items []wheelItem
}

// view is one window of the underlying array's namespace backed by a raw
// bitmap space: global name = base + local slot. Views power the orphan
// cross-check sweep.
type view struct {
	space *tas.BitmapSpace
	base  int
}

// Manager grants, renews, releases and expires leases over one activity
// array. All methods are safe for concurrent use.
type Manager struct {
	arr activity.Array
	cfg Config

	entries []entry
	wheel   []bucket
	views   []view

	// suspects holds the names the previous sweep found set-but-unleased;
	// a name suspected on two consecutive sweeps is reclaimed as an orphan.
	// Only the expirer pass (serialized by tickMu) touches it.
	suspects map[int]struct{}
	lastTick int64
	tickMu   sync.Mutex

	poolMu sync.Mutex
	pool   []activity.Handle // free handles, LIFO so hot handles stay hot
	all    []activity.Handle // every handle ever created, for ProbeStats

	// journal mirrors cfg.Journal; journalMu is the checkpoint barrier. Every
	// journaling mutation holds it for read across (entry mutation + append);
	// Checkpoint holds it for write while it records the log cut and captures
	// the session table, so cut and capture form one consistent point.
	journal   Journal
	journalMu sync.RWMutex
	restored  atomic.Uint64

	tokenSeq atomic.Uint64
	// pendingGets counts Acquire calls between their Get and the activation
	// of the entry. The orphan sweep refuses to reclaim while any are in
	// flight, closing the window in which a freshly won bit has no lease
	// record yet (see sweep).
	pendingGets atomic.Int64

	active         atomic.Int64
	acquires       atomic.Uint64
	renews         atomic.Uint64
	releases       atomic.Uint64
	expirations    atomic.Uint64
	failedAcquires atomic.Uint64
	renewRaces     atomic.Uint64
	releaseRaces   atomic.Uint64
	orphans        atomic.Uint64
	ticks          atomic.Uint64

	// lifeMu serializes Start/Close; closed stays an atomic so the operation
	// hot paths can check it without taking the mutex.
	lifeMu     sync.Mutex
	closed     atomic.Bool
	started    bool
	stopClosed bool
	stop       chan struct{}
	done       chan struct{}
}

// NewManager builds a Manager over arr. The expirer does not run until Start
// (or explicit Tick calls); leases granted before that simply do not expire
// yet. The lease table is indexed by name, so memory is O(arr.Size()).
func NewManager(arr activity.Array, cfg Config) (*Manager, error) {
	if arr == nil {
		return nil, errors.New("lease: array must not be nil")
	}
	cfg = cfg.withDefaults()
	m := &Manager{
		arr:      arr,
		cfg:      cfg,
		entries:  make([]entry, arr.Size()),
		wheel:    make([]bucket, cfg.WheelBuckets),
		views:    bitmapViews(arr),
		suspects: make(map[int]struct{}),
		lastTick: cfg.Clock().UnixNano() / int64(cfg.TickInterval),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	m.tokenSeq.Store(cfg.TokenSeqBase)
	m.journal = cfg.Journal
	return m, nil
}

// journalRLock/journalRUnlock bracket a journaling mutation; no-ops when the
// manager runs without a journal, so the in-memory hot path is unchanged.
func (m *Manager) journalRLock() {
	if m.journal != nil {
		m.journalMu.RLock()
	}
}

func (m *Manager) journalRUnlock() {
	if m.journal != nil {
		m.journalMu.RUnlock()
	}
}

// lockEntry takes the checkpoint barrier's read side and e's lock, charging
// the wait to sp's lock-wait phase. A traced op that finds both free reads
// no clock: it waited for nothing.
func (m *Manager) lockEntry(e *entry, sp *trace.Op) {
	if sp != nil && m.tryLockEntry(e) {
		return
	}
	mark := sp.Mark()
	m.journalRLock()
	e.mu.Lock()
	sp.PhaseSince(trace.PhaseLockWait, mark)
}

// tryLockEntry takes the locks lockEntry takes if it can do so at once.
func (m *Manager) tryLockEntry(e *entry) bool {
	if m.journal != nil && !m.journalMu.TryRLock() {
		return false
	}
	if e.mu.TryLock() {
		return true
	}
	m.journalRUnlock()
	return false
}

// MustNewManager is NewManager but panics on error; for tests and examples.
func MustNewManager(arr activity.Array, cfg Config) *Manager {
	m, err := NewManager(arr, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// bitmapViews resolves the raw bitmap windows of arr's namespace: the
// main/backup spaces of a LevelArray (or any array exporting them), each
// shard of a Sharded composition at its global base, or nothing when the
// substrate is not an uninstrumented bitmap, which disables the orphan sweep.
func bitmapViews(arr activity.Array) []view {
	if s, ok := arr.(*shard.Sharded); ok {
		var out []view
		for i := 0; i < s.Shards(); i++ {
			vs := arrayViews(s.Shard(i))
			if vs == nil {
				// A partially scannable namespace would make every slot of
				// the opaque shards look permanently unleased to Verify;
				// all-or-nothing keeps the cross-check honest.
				return nil
			}
			for _, v := range vs {
				v.base += i * s.Stride()
				out = append(out, v)
			}
		}
		return out
	}
	return arrayViews(arr)
}

// arrayViews resolves the bitmap windows of one unsharded array.
func arrayViews(arr activity.Array) []view {
	switch a := arr.(type) {
	case interface {
		MainSpace() tas.Space
		BackupSpace() tas.Space
	}:
		main, mok := a.MainSpace().(*tas.BitmapSpace)
		backup, bok := a.BackupSpace().(*tas.BitmapSpace)
		if mok && bok {
			return []view{{space: main, base: 0}, {space: backup, base: main.Len()}}
		}
	case interface{ Space() tas.Space }:
		if sp, ok := a.Space().(*tas.BitmapSpace); ok {
			return []view{{space: sp, base: 0}}
		}
	}
	return nil
}

// Array returns the wrapped activity array.
func (m *Manager) Array() activity.Array { return m.arr }

// Capacity returns the wrapped array's contention bound.
func (m *Manager) Capacity() int { return m.arr.Capacity() }

// Size returns the wrapped array's namespace size.
func (m *Manager) Size() int { return m.arr.Size() }

// TickInterval returns the expirer granularity.
func (m *Manager) TickInterval() time.Duration { return m.cfg.TickInterval }

// Collect appends the currently registered names to dst, with the underlying
// array's validity guarantee. Names of expired-but-not-yet-reaped leases may
// still appear until the next tick.
func (m *Manager) Collect(dst []int) []int { return m.arr.Collect(dst) }

// Active returns the number of currently active leases.
func (m *Manager) Active() int { return int(m.active.Load()) }

func (m *Manager) now() time.Time { return m.cfg.Clock() }

// clampTTL validates ttl against MaxTTL. Non-positive TTLs select the
// infinite lease (returned as 0).
func (m *Manager) clampTTL(ttl time.Duration) (time.Duration, error) {
	if ttl <= 0 {
		if m.cfg.MaxTTL > 0 {
			return 0, ErrTTLTooLong
		}
		return 0, nil
	}
	if m.cfg.MaxTTL > 0 && ttl > m.cfg.MaxTTL {
		return 0, ErrTTLTooLong
	}
	return ttl, nil
}

// getHandle pops a pooled handle or creates one.
func (m *Manager) getHandle() activity.Handle {
	m.poolMu.Lock()
	if n := len(m.pool); n > 0 {
		h := m.pool[n-1]
		m.pool = m.pool[:n-1]
		m.poolMu.Unlock()
		return h
	}
	m.poolMu.Unlock()
	h := m.arr.Handle()
	m.poolMu.Lock()
	m.all = append(m.all, h)
	m.poolMu.Unlock()
	return h
}

// putHandle returns an idle handle to the pool.
func (m *Manager) putHandle(h activity.Handle) {
	m.poolMu.Lock()
	m.pool = append(m.pool, h)
	m.poolMu.Unlock()
}

// mintToken builds the next fencing token: a strictly increasing sequence
// number in the high bits, the acquiring handle's stable identity (when the
// handle exposes one) in the low TokenHandleBits.
func (m *Manager) mintToken(h activity.Handle) uint64 {
	seq := m.tokenSeq.Add(1)
	var id uint64
	if ident, ok := h.(activity.Identified); ok {
		id = ident.ID()
	}
	return seq<<TokenHandleBits | id&(1<<TokenHandleBits-1)
}

// Acquire registers one participant and grants a lease of the given TTL
// (non-positive = infinite). It returns the underlying array's error
// unchanged when registration fails — activity.ErrFull means every slot is
// leased or awaiting expiry.
func (m *Manager) Acquire(ttl time.Duration) (Lease, error) {
	return m.AcquireSpan(ttl, nil)
}

// AcquireSpan is Acquire with flight-recorder phase attribution: the array
// probe is charged to lease-table, the entry-lock (plus checkpoint-barrier)
// wait to lock-wait, and — through the journal — the WAL write and group
// fsync to wal-append and fsync-wait. A nil span records nothing and costs
// only nil checks.
func (m *Manager) AcquireSpan(ttl time.Duration, sp *trace.Op) (Lease, error) {
	if m.closed.Load() {
		return Lease{}, ErrClosed
	}
	ttl, err := m.clampTTL(ttl)
	if err != nil {
		return Lease{}, err
	}
	h := m.getHandle()
	m.pendingGets.Add(1)
	mark := sp.Mark()
	name, err := h.Get()
	sp.PhaseSince(trace.PhaseLeaseTable, mark)
	if err != nil {
		m.pendingGets.Add(-1)
		m.putHandle(h)
		if errors.Is(err, activity.ErrFull) {
			m.failedAcquires.Add(1)
		}
		return Lease{}, err
	}
	token := m.mintToken(h)
	var deadline int64
	if ttl > 0 {
		deadline = m.now().Add(ttl).UnixNano()
	}
	e := &m.entries[name]
	m.lockEntry(e, sp)
	e.active = true
	e.token = token
	e.deadline = deadline
	e.wheelTick = 0
	if deadline != 0 {
		e.wheelTick = m.tickOf(deadline)
	}
	e.handle = h
	if m.journal != nil {
		// Durable-before-ack: the grant is journaled (and, under SyncAlways,
		// fsynced) before the token leaves this function. A failed append
		// rolls the grant back so memory and log stay in agreement.
		if err := m.journalAppend(sp, wal.OpAcquire, uint32(name), token, deadline); err != nil {
			e.active = false
			e.wheelTick = 0
			e.handle = nil
			e.mu.Unlock()
			m.journalRUnlock()
			m.pendingGets.Add(-1)
			_ = h.Free()
			m.putHandle(h)
			return Lease{}, fmt.Errorf("lease: journal acquire: %w", err)
		}
	}
	e.mu.Unlock()
	m.journalRUnlock()
	m.pendingGets.Add(-1)
	if deadline != 0 {
		m.wheelInsert(deadline, name, token)
	}
	m.acquires.Add(1)
	m.active.Add(1)
	return Lease{Name: name, Token: token, Deadline: fromNanos(deadline)}, nil
}

// Renew extends (or shortens, or makes infinite) the lease on name, fenced
// by token. A stale token is counted as a renew race and rejected.
func (m *Manager) Renew(name int, token uint64, ttl time.Duration) (Lease, error) {
	return m.RenewSpan(name, token, ttl, nil)
}

// RenewSpan is Renew with flight-recorder phase attribution (see AcquireSpan).
func (m *Manager) RenewSpan(name int, token uint64, ttl time.Duration, sp *trace.Op) (Lease, error) {
	if m.closed.Load() {
		return Lease{}, ErrClosed
	}
	if name < 0 || name >= len(m.entries) {
		return Lease{}, fmt.Errorf("lease: name %d outside namespace [0, %d): %w", name, len(m.entries), ErrNotLeased)
	}
	ttl, err := m.clampTTL(ttl)
	if err != nil {
		return Lease{}, err
	}
	var deadline int64
	if ttl > 0 {
		deadline = m.now().Add(ttl).UnixNano()
	}
	e := &m.entries[name]
	m.lockEntry(e, sp)
	if !e.active {
		e.mu.Unlock()
		m.journalRUnlock()
		m.renewRaces.Add(1)
		return Lease{}, ErrNotLeased
	}
	if e.token != token {
		e.mu.Unlock()
		m.journalRUnlock()
		m.renewRaces.Add(1)
		return Lease{}, ErrStaleToken
	}
	oldDeadline, oldWheelTick := e.deadline, e.wheelTick
	e.deadline = deadline
	// A new wheel record is only needed when no live record covers the new
	// deadline: an existing record at an earlier-or-equal tick will fire and
	// re-hash to the deadline current at that moment, so extensions ride the
	// record they already have instead of accumulating one per renew.
	insert := deadline != 0 && (e.wheelTick == 0 || m.tickOf(deadline) < e.wheelTick)
	if insert {
		e.wheelTick = m.tickOf(deadline)
	}
	if m.journal != nil {
		// Durable-before-ack, same as Acquire: an extension the client may
		// act on must survive a crash, or replay would expire the lease
		// earlier than the deadline this call stated.
		if err := m.journalAppend(sp, wal.OpRenew, uint32(name), token, deadline); err != nil {
			e.deadline, e.wheelTick = oldDeadline, oldWheelTick
			e.mu.Unlock()
			m.journalRUnlock()
			return Lease{}, fmt.Errorf("lease: journal renew: %w", err)
		}
	}
	e.mu.Unlock()
	m.journalRUnlock()
	if insert {
		m.wheelInsert(deadline, name, token)
	}
	m.renews.Add(1)
	return Lease{Name: name, Token: token, Deadline: fromNanos(deadline)}, nil
}

// Release frees the name, fenced by token. A stale token is counted as a
// release race and rejected, so a double release (or a release racing a
// reissue) can never free another holder's slot.
func (m *Manager) Release(name int, token uint64) error {
	return m.ReleaseSpan(name, token, nil)
}

// ReleaseSpan is Release with flight-recorder phase attribution (see
// AcquireSpan).
func (m *Manager) ReleaseSpan(name int, token uint64, sp *trace.Op) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if name < 0 || name >= len(m.entries) {
		return fmt.Errorf("lease: name %d outside namespace [0, %d): %w", name, len(m.entries), ErrNotLeased)
	}
	e := &m.entries[name]
	m.lockEntry(e, sp)
	if !e.active {
		e.mu.Unlock()
		m.journalRUnlock()
		m.releaseRaces.Add(1)
		return ErrNotLeased
	}
	if e.token != token {
		e.mu.Unlock()
		m.journalRUnlock()
		m.releaseRaces.Add(1)
		return ErrStaleToken
	}
	if m.journal != nil {
		// Journal before freeing: a failed append leaves the lease held (the
		// client can retry) rather than freed-in-memory but held-on-replay.
		// The reverse loss — record durable, crash before the in-memory free
		// — is invisible: the process died with it.
		if err := m.journalAppend(sp, wal.OpRelease, uint32(name), token, 0); err != nil {
			e.mu.Unlock()
			m.journalRUnlock()
			return fmt.Errorf("lease: journal release: %w", err)
		}
	}
	h := e.handle
	err := h.Free()
	e.active = false
	e.wheelTick = 0
	e.handle = nil
	e.mu.Unlock()
	m.journalRUnlock()
	m.putHandle(h)
	m.active.Add(-1)
	m.releases.Add(1)
	return err
}

// tracedJournal is the optional Journal extension that attributes WAL queue,
// append and group-fsync time into a span. *wal.Store implements it; plain
// Journal implementations (including test doubles) are used untraced.
type tracedJournal interface {
	AppendTraced(sp *trace.Op, op wal.Op, name uint32, token uint64, deadline int64) error
}

// journalAppend routes one record through the traced append when a span is
// live and the journal supports it, and through the plain append otherwise.
func (m *Manager) journalAppend(sp *trace.Op, op wal.Op, name uint32, token uint64, deadline int64) error {
	if sp != nil {
		if tj, ok := m.journal.(tracedJournal); ok {
			return tj.AppendTraced(sp, op, name, token, deadline)
		}
	}
	return m.journal.Append(op, name, token, deadline)
}

// fromNanos converts a deadline in UnixNano (0 = infinite) to a time.Time.
func fromNanos(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}
