package stm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/registry"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero MaxThreads accepted")
	}
	if _, err := New(Config{MaxThreads: 4, MaxRetries: -1}); err == nil {
		t.Fatal("negative MaxRetries accepted")
	}
	s, err := New(Config{MaxThreads: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Registry().Capacity() != 4 {
		t.Fatalf("default registry capacity %d, want 4", s.Registry().Capacity())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestCustomRegistry(t *testing.T) {
	reg := registry.MustNew(registry.Random, registry.Options{Capacity: 8})
	s := MustNew(Config{MaxThreads: 8, Registry: reg})
	if s.Registry() != reg {
		t.Fatal("custom registry not used")
	}
	v := s.NewVar(1)
	if err := s.Atomically(func(tx *Tx) error {
		tx.Write(v, 2)
		return nil
	}); err != nil {
		t.Fatalf("Atomically: %v", err)
	}
	if v.ReadDirect() != 2 {
		t.Fatalf("value = %d, want 2", v.ReadDirect())
	}
}

func TestSequentialReadWrite(t *testing.T) {
	s := MustNew(Config{MaxThreads: 2})
	x := s.NewVar(10)
	y := s.NewVar(20)

	var readX, readY int64
	err := s.Atomically(func(tx *Tx) error {
		var err error
		if readX, err = tx.Read(x); err != nil {
			return err
		}
		if readY, err = tx.Read(y); err != nil {
			return err
		}
		tx.Write(x, readX+1)
		tx.Write(y, readY-1)
		return nil
	})
	if err != nil {
		t.Fatalf("Atomically: %v", err)
	}
	if readX != 10 || readY != 20 {
		t.Fatalf("reads = %d, %d", readX, readY)
	}
	if x.ReadDirect() != 11 || y.ReadDirect() != 19 {
		t.Fatalf("values = %d, %d", x.ReadDirect(), y.ReadDirect())
	}
	if s.Commits() != 1 {
		t.Fatalf("commits = %d, want 1", s.Commits())
	}
	if s.Clock() != 1 {
		t.Fatalf("clock = %d, want 1", s.Clock())
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	s := MustNew(Config{MaxThreads: 1})
	x := s.NewVar(5)
	err := s.Atomically(func(tx *Tx) error {
		tx.Write(x, 42)
		v, err := tx.Read(x)
		if err != nil {
			return err
		}
		if v != 42 {
			t.Errorf("read-your-write = %d, want 42", v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Atomically: %v", err)
	}
}

func TestReadOnlyTransaction(t *testing.T) {
	s := MustNew(Config{MaxThreads: 1})
	x := s.NewVar(7)
	var got int64
	if err := s.Atomically(func(tx *Tx) error {
		var err error
		got, err = tx.Read(x)
		return err
	}); err != nil {
		t.Fatalf("Atomically: %v", err)
	}
	if got != 7 {
		t.Fatalf("read = %d, want 7", got)
	}
	// A read-only transaction must not advance the clock.
	if s.Clock() != 0 {
		t.Fatalf("clock = %d, want 0", s.Clock())
	}
}

func TestUserErrorAbortsWithoutRetry(t *testing.T) {
	s := MustNew(Config{MaxThreads: 1})
	x := s.NewVar(1)
	userErr := errors.New("business rule violated")
	calls := 0
	err := s.Atomically(func(tx *Tx) error {
		calls++
		tx.Write(x, 99)
		return userErr
	})
	if !errors.Is(err, userErr) {
		t.Fatalf("err = %v, want the user error", err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if x.ReadDirect() != 1 {
		t.Fatalf("aborted transaction published a write: %d", x.ReadDirect())
	}
	if s.Commits() != 0 {
		t.Fatalf("commits = %d, want 0", s.Commits())
	}
}

func TestBankTransferInvariant(t *testing.T) {
	const (
		accounts     = 16
		workers      = 8
		transfersPer = 400
		initial      = 1000
	)
	s := MustNew(Config{MaxThreads: workers})
	vars := make([]*Var, accounts)
	for i := range vars {
		vars[i] = s.NewVar(initial)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.Thread()
			for i := 0; i < transfersPer; i++ {
				from := vars[(w+i)%accounts]
				to := vars[(w*7+i*3+1)%accounts]
				if from == to {
					continue
				}
				err := th.Atomically(func(tx *Tx) error {
					fv, err := tx.Read(from)
					if err != nil {
						return err
					}
					tv, err := tx.Read(to)
					if err != nil {
						return err
					}
					tx.Write(from, fv-1)
					tx.Write(to, tv+1)
					return nil
				})
				if err != nil {
					t.Errorf("worker %d transfer %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Conservation of money: the sum of all balances is unchanged.
	var total int64
	for _, v := range vars {
		total += v.ReadDirect()
	}
	if total != accounts*initial {
		t.Fatalf("total balance %d, want %d", total, accounts*initial)
	}
	if s.Commits() == 0 {
		t.Fatal("no transactions committed")
	}
}

func TestConcurrentCounter(t *testing.T) {
	const (
		workers = 8
		incs    = 300
	)
	s := MustNew(Config{MaxThreads: workers})
	counter := s.NewVar(0)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.Thread()
			for i := 0; i < incs; i++ {
				err := th.Atomically(func(tx *Tx) error {
					v, err := tx.Read(counter)
					if err != nil {
						return err
					}
					tx.Write(counter, v+1)
					return nil
				})
				if err != nil {
					t.Errorf("increment failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := counter.ReadDirect(); got != workers*incs {
		t.Fatalf("counter = %d, want %d (lost updates)", got, workers*incs)
	}
	// A contended counter must have caused at least some retries; their
	// absence would suggest conflict detection is not working.
	if s.Retries() == 0 {
		t.Log("warning: no retries observed on a contended counter")
	}
}

func TestThreadRegistrationStats(t *testing.T) {
	s := MustNew(Config{MaxThreads: 2})
	th := s.Thread()
	x := s.NewVar(0)
	for i := 0; i < 10; i++ {
		if err := th.Atomically(func(tx *Tx) error {
			tx.Write(x, int64(i))
			return nil
		}); err != nil {
			t.Fatalf("Atomically: %v", err)
		}
	}
	stats := th.RegistrationStats()
	if stats.Ops != 10 || stats.Frees != 10 {
		t.Fatalf("registration stats = %+v, want 10 ops and frees", stats)
	}
}

func TestWaitForReaders(t *testing.T) {
	s := MustNew(Config{MaxThreads: 4})
	x := s.NewVar(0)

	release := make(chan struct{})
	inTx := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := s.Atomically(func(tx *Tx) error {
			if _, err := tx.Read(x); err != nil {
				return err
			}
			close(inTx)
			<-release
			return nil
		})
		if err != nil {
			t.Errorf("reader transaction: %v", err)
		}
	}()

	<-inTx
	// A writer commits, then waits for readers older than its commit.
	if err := s.Atomically(func(tx *Tx) error {
		tx.Write(x, 1)
		return nil
	}); err != nil {
		t.Fatalf("writer: %v", err)
	}
	commitClock := s.Clock()

	waited := make(chan struct{})
	go func() {
		s.WaitForReaders(commitClock)
		close(waited)
	}()
	// Give the barrier a moment to start spinning before checking that it
	// has not (incorrectly) returned.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-waited:
		t.Fatal("WaitForReaders returned while a pre-commit reader was still running")
	default:
	}
	close(release)
	wg.Wait()
	<-waited // must now return
}

func TestAbortAfterRetryBudget(t *testing.T) {
	s := MustNew(Config{MaxThreads: 2, MaxRetries: 3})
	x := s.NewVar(0)
	// Lock the variable's version manually to force every commit to fail.
	x.version.Store(1)
	err := s.Atomically(func(tx *Tx) error {
		tx.Write(x, 5)
		return nil
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if s.Aborts() != 1 {
		t.Fatalf("aborts = %d, want 1", s.Aborts())
	}
	x.version.Store(0)
}

// TestTransactionOutlastsAHeldLock: a committer descheduled while it holds
// a Var's lock stalls every transaction that touches the Var. The retries
// must back off long enough to outlast a stall of a scheduling quantum and
// more, not abort after a burst of yields.
func TestTransactionOutlastsAHeldLock(t *testing.T) {
	s := MustNew(Config{MaxThreads: 4})
	v := s.NewVar(1)
	unlocked := v.version.Load()
	v.version.Store(unlocked + 1) // held, as by a committer
	released := make(chan struct{})
	go func() {
		defer close(released)
		time.Sleep(20 * time.Millisecond)
		v.version.Store(unlocked)
	}()
	err := s.Atomically(func(tx *Tx) error {
		x, err := tx.Read(v)
		if err != nil {
			return err
		}
		tx.Write(v, x+1)
		return nil
	})
	<-released
	if err != nil {
		t.Fatalf("transaction against a lock held for 20ms: %v", err)
	}
	if got := v.ReadDirect(); got != 2 {
		t.Fatalf("value %d after the commit, want 2", got)
	}
}
