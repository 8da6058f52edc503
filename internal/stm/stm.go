// Package stm implements the software-transactional-memory application the
// paper's introduction motivates: an STM needs to "detect conflicts between
// reader and writer threads", which it does by having readers register in an
// activity array (the pessimistic lock-elision / implicit-privatization
// pattern cited as [3, 16]).
//
// The STM itself is a small word-based design in the TL2 family:
//
//   - every transactional variable (Var) carries a versioned lock;
//   - readers validate that the versions they observed did not change and
//     were not locked;
//   - writers lock their write set, re-validate their read set, then publish
//     new versions under an incremented global clock.
//
// The activity array enters in two places. First, every transaction registers
// for its duration, announcing its read version; the namespace index it gets
// back doubles as its transaction identifier. Second, WaitForReaders (the
// privatization / quiescence barrier) Collects the registry and waits until
// no registered transaction is running against a snapshot older than a given
// clock value — the operation whose cost is dominated by registration speed,
// which is what the LevelArray accelerates.
package stm

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/core"
)

// ErrAborted is returned by Atomically when a transaction exceeds its retry
// budget, and by user code that wants to abort explicitly.
var ErrAborted = errors.New("stm: transaction aborted")

// DefaultMaxRetries bounds the number of times Atomically re-runs a
// transaction before giving up.
const DefaultMaxRetries = 1000

// Config parameterizes an STM instance.
type Config struct {
	// MaxThreads is the maximum number of concurrently running transactions.
	MaxThreads int
	// Registry optionally supplies the activity array used as the reader
	// registry. Nil selects a LevelArray of capacity MaxThreads.
	Registry activity.Array
	// MaxRetries bounds transaction re-execution. Zero selects
	// DefaultMaxRetries.
	MaxRetries int
	// Seed seeds the default LevelArray registry.
	Seed uint64
}

// STM is a software transactional memory instance. All Vars participating in
// the same transactions must be created from the same STM.
type STM struct {
	clock      atomic.Uint64
	registry   activity.Array
	maxRetries int

	// announcements[name] holds 1+readVersion of the transaction registered
	// at that registry index, or 0 when unannounced.
	announcements []atomic.Uint64

	stats Stats
}

// Stats counts transaction outcomes.
type Stats struct {
	Commits  atomic.Uint64
	Aborts   atomic.Uint64
	Retries  atomic.Uint64
	Barriers atomic.Uint64
}

// New builds an STM instance.
func New(cfg Config) (*STM, error) {
	if cfg.MaxThreads < 1 {
		return nil, fmt.Errorf("stm: max threads %d must be at least 1", cfg.MaxThreads)
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.MaxRetries < 1 {
		return nil, fmt.Errorf("stm: max retries %d must be at least 1", cfg.MaxRetries)
	}
	reg := cfg.Registry
	if reg == nil {
		la, err := core.New(core.Config{Capacity: cfg.MaxThreads, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("stm: building registry: %w", err)
		}
		reg = la
	}
	return &STM{
		registry:      reg,
		maxRetries:    cfg.MaxRetries,
		announcements: make([]atomic.Uint64, reg.Size()),
	}, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *STM {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Registry returns the reader registry.
func (s *STM) Registry() activity.Array { return s.registry }

// Clock returns the current global version clock.
func (s *STM) Clock() uint64 { return s.clock.Load() }

// Commits returns the number of committed transactions.
func (s *STM) Commits() uint64 { return s.stats.Commits.Load() }

// Aborts returns the number of transactions that exhausted their retries.
func (s *STM) Aborts() uint64 { return s.stats.Aborts.Load() }

// Retries returns the number of transaction re-executions due to conflicts.
func (s *STM) Retries() uint64 { return s.stats.Retries.Load() }

// Var is a transactional variable holding an int64.
type Var struct {
	stm *STM
	// version is even when unlocked (the version number ×2) and odd when a
	// committing writer holds the lock.
	version atomic.Uint64
	value   atomic.Int64
}

// NewVar creates a transactional variable with an initial value.
func (s *STM) NewVar(initial int64) *Var {
	v := &Var{stm: s}
	v.value.Store(initial)
	return v
}

// ReadDirect returns the variable's value outside any transaction. It is
// safe only after a privatization barrier or when no writers are active.
func (v *Var) ReadDirect() int64 { return v.value.Load() }

// Tx is a running transaction. It is not safe for concurrent use.
type Tx struct {
	stm         *STM
	readVersion uint64
	readSet     map[*Var]uint64
	writeSet    map[*Var]int64
	conflict    bool
}

// errConflict is an internal sentinel making a transaction re-execute.
var errConflict = errors.New("stm: conflict")

// Read returns the variable's value as observed by the transaction.
func (t *Tx) Read(v *Var) (int64, error) {
	if val, written := t.writeSet[v]; written {
		return val, nil
	}
	pre := v.version.Load()
	if pre%2 == 1 {
		t.conflict = true
		return 0, errConflict
	}
	val := v.value.Load()
	post := v.version.Load()
	if post != pre || pre/2 > t.readVersion {
		t.conflict = true
		return 0, errConflict
	}
	t.readSet[v] = pre
	return val, nil
}

// Write buffers a new value for the variable; it becomes visible only if the
// transaction commits.
func (t *Tx) Write(v *Var, value int64) {
	t.writeSet[v] = value
}

// Thread is a per-goroutine transaction context. It owns the goroutine's
// registry handle, so repeated transactions from the same goroutine reuse one
// registration endpoint (the paper's workers register and deregister through
// the same handle for their whole lifetime). A Thread is not safe for
// concurrent use.
type Thread struct {
	stm    *STM
	handle activity.Handle
}

// Thread returns a new per-goroutine transaction context.
func (s *STM) Thread() *Thread {
	return &Thread{stm: s, handle: s.registry.Handle()}
}

// RegistrationStats returns the probe statistics of this thread's registry
// handle: how much its transactions paid for registration.
func (t *Thread) RegistrationStats() activity.ProbeStats { return t.handle.Stats() }

// Atomically runs fn as a transaction, retrying on conflicts. fn may be
// executed multiple times and must therefore be free of side effects other
// than Tx reads and writes. Returning a non-nil error from fn aborts the
// transaction and propagates the error without retrying (unless the error is
// the internal conflict marker).
//
// Atomically allocates a fresh per-call registry handle; goroutines running
// many transactions should create a Thread once and use Thread.Atomically.
func (s *STM) Atomically(fn func(tx *Tx) error) error {
	return s.Thread().Atomically(fn)
}

// Atomically runs fn as a transaction using this thread's registration
// handle; see STM.Atomically for the retry semantics.
func (th *Thread) Atomically(fn func(tx *Tx) error) error {
	s := th.stm
	handle := th.handle
	for attempt := 0; attempt < s.maxRetries; attempt++ {
		name, err := handle.Get()
		if err != nil {
			return fmt.Errorf("stm: registering transaction: %w", err)
		}
		readVersion := s.clock.Load()
		s.announcements[name].Store(readVersion + 1)

		tx := &Tx{
			stm:         s,
			readVersion: readVersion,
			readSet:     make(map[*Var]uint64),
			writeSet:    make(map[*Var]int64),
		}
		err = fn(tx)
		var committed bool
		if err == nil && !tx.conflict {
			committed = tx.commit()
		}

		s.announcements[name].Store(0)
		if freeErr := handle.Free(); freeErr != nil {
			return fmt.Errorf("stm: deregistering transaction: %w", freeErr)
		}

		switch {
		case err != nil && !errors.Is(err, errConflict) && !tx.conflict:
			// A user-level error aborts without retrying.
			return err
		case committed:
			s.stats.Commits.Add(1)
			return nil
		default:
			s.stats.Retries.Add(1)
			backoff(attempt)
		}
	}
	s.stats.Aborts.Add(1)
	return ErrAborted
}

// backoff waits before a transaction's next attempt. The first attempts
// only yield, so a conflict with a short commit retries at once; later ones
// sleep, doubling from 1µs to a 1ms cap, so the retry budget outlasts a
// committer descheduled while it holds a Var's lock. Yields alone spend the
// whole budget in under a millisecond, less than one scheduling quantum.
func backoff(attempt int) {
	const yields = 16
	if attempt < yields {
		runtime.Gosched()
		return
	}
	time.Sleep(min(time.Microsecond<<min(attempt-yields, 10), time.Millisecond))
}

// commit attempts to publish the transaction's write set. It returns false on
// conflict, in which case nothing was published.
func (t *Tx) commit() bool {
	if len(t.writeSet) == 0 {
		// Read-only transactions validated each read as it happened.
		return true
	}
	// Lock the write set (in arbitrary order; deadlock is impossible because
	// locking is try-lock only).
	locked := make([]*Var, 0, len(t.writeSet))
	for v := range t.writeSet {
		pre := v.version.Load()
		if pre%2 == 1 || !v.version.CompareAndSwap(pre, pre+1) {
			t.unlock(locked, false, 0)
			return false
		}
		if pre/2 > t.readVersion {
			// The variable changed since the transaction began.
			locked = append(locked, v)
			t.unlock(locked, false, 0)
			return false
		}
		locked = append(locked, v)
	}
	// Validate the read set: nothing read may have been modified or locked by
	// another writer.
	for v, pre := range t.readSet {
		if _, alsoWritten := t.writeSet[v]; alsoWritten {
			continue
		}
		cur := v.version.Load()
		if cur != pre {
			t.unlock(locked, false, 0)
			return false
		}
	}
	// Publish under a new clock value.
	newClock := t.stm.clock.Add(1)
	for v, value := range t.writeSet {
		v.value.Store(value)
	}
	t.unlock(locked, true, newClock)
	return true
}

// unlock releases the locked variables. On success the version advances to
// the new clock; on failure it reverts to the pre-lock value.
func (t *Tx) unlock(locked []*Var, success bool, newClock uint64) {
	for _, v := range locked {
		cur := v.version.Load()
		if success {
			v.version.Store(newClock * 2)
		} else {
			v.version.Store(cur - 1)
		}
	}
}

// WaitForReaders blocks until no registered transaction is running against a
// snapshot taken before clockValue. It is the privatization / quiescence
// barrier: after it returns, data made private by a committed transaction
// with commit version <= clockValue can be accessed non-transactionally.
func (s *STM) WaitForReaders(clockValue uint64) {
	s.stats.Barriers.Add(1)
	buf := make([]int, 0, s.registry.Size())
	for {
		buf = s.registry.Collect(buf[:0])
		blocked := false
		for _, name := range buf {
			ann := s.announcements[name].Load()
			if ann != 0 && ann-1 < clockValue {
				blocked = true
				break
			}
		}
		if !blocked {
			return
		}
		runtime.Gosched()
	}
}
