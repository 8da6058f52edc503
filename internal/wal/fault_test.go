package wal

import (
	"errors"
	"io"
	"sync"
	"syscall"
	"testing"
	"time"
)

// faultSegment wraps every segment file a store opens while it is injected.
// It fails the failSync-th fsync with EIO and cuts the failWrite-th write
// short (half its bytes reach the file, then an error), counting calls
// across every segment it wraps. It records the names of the records that
// reached the file, in write order, and how many of them the good fsyncs
// before the first failure covered.
type faultSegment struct {
	failSync, failWrite int

	mu      sync.Mutex
	syncs   int
	writes  int
	names   []uint32
	durable int // len(names) when the last good fsync before a failure began
	failed  bool
}

// inject routes the store's segment opener through fs until the test ends.
func (fs *faultSegment) inject(t *testing.T) {
	t.Helper()
	orig := openSegment
	openSegment = func(path string) (segment, error) {
		f, err := orig(path)
		if err != nil {
			return nil, err
		}
		return &faultFile{segment: f, fs: fs}, nil
	}
	t.Cleanup(func() { openSegment = orig })
}

// durableNames is the set of records a good fsync covered before the first
// failure: the only ones the store may acknowledge.
func (fs *faultSegment) durableNames() map[uint32]bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[uint32]bool, fs.durable)
	for _, name := range fs.names[:fs.durable] {
		out[name] = true
	}
	return out
}

type faultFile struct {
	segment
	fs *faultSegment
}

func (f *faultFile) Write(p []byte) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writes++
	if fs.writes == fs.failWrite {
		fs.failed = true
		n, _ := f.segment.Write(p[:len(p)/2])
		return n, io.ErrShortWrite
	}
	n, err := f.segment.Write(p)
	if err == nil {
		for off := 0; off < len(p); off += frameLen {
			r, _, _ := decodeRecord(p[off:])
			fs.names = append(fs.names, r.Name)
		}
	}
	return n, err
}

func (f *faultFile) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	fs.syncs++
	covered, fail := len(fs.names), fs.syncs == fs.failSync
	if fail {
		fs.failed = true
	}
	fs.mu.Unlock()
	if fail {
		return syscall.EIO
	}
	if err := f.segment.Sync(); err != nil {
		return err
	}
	fs.mu.Lock()
	if !fs.failed && covered > fs.durable {
		fs.durable = covered
	}
	fs.mu.Unlock()
	return nil
}

// TestLatchFailedFsync has 16 goroutines make 50 SyncAlways appends each
// while the 5th fsync fails. No append that fsync covered, and none after
// it, may be acknowledged: a later good fsync proves nothing about pages the
// failed one may have dropped.
func TestLatchFailedFsync(t *testing.T) {
	fs := &faultSegment{failSync: 5}
	fs.inject(t)
	s := openT(t, t.TempDir(), SyncAlways)
	const goroutines, each = 16, 50
	errs := make([]error, goroutines*each)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				name := g*each + i
				errs[name] = s.Append(OpAcquire, uint32(name), uint64(name)+1, 0)
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); !errors.Is(err, ErrFailed) {
		t.Errorf("Close after a failed fsync = %v, want ErrFailed", err)
	}

	durable := fs.durableNames()
	acked := 0
	for name, err := range errs {
		switch {
		case err == nil:
			acked++
			if !durable[uint32(name)] {
				t.Errorf("append %d acknowledged, but no good fsync covered it before the failure", name)
			}
		case !errors.Is(err, ErrFailed) || !errors.Is(err, syscall.EIO):
			t.Errorf("append %d: %v, want ErrFailed wrapping EIO", name, err)
		}
	}
	if acked == 0 || acked == len(errs) {
		t.Fatalf("%d of %d appends acknowledged; the 5th fsync must fail mid-run", acked, len(errs))
	}
}

// TestLatchShortWrite cuts the 5th of 20 appends short halfway through its
// frame. The appends after it must not be acknowledged either: their frames
// would sit past a torn record, which replay cuts off with everything after
// it. After a reopen every acknowledged record is replayed.
func TestLatchShortWrite(t *testing.T) {
	fs := &faultSegment{failWrite: 5}
	fs.inject(t)
	dir := t.TempDir()
	s := openT(t, dir, SyncAlways)
	var acked []uint32
	for name := uint32(0); name < 20; name++ {
		err := s.Append(OpAcquire, name, uint64(name)+1, 0)
		switch {
		case err == nil:
			acked = append(acked, name)
		case !errors.Is(err, ErrFailed) || !errors.Is(err, io.ErrShortWrite):
			t.Errorf("append %d: %v, want ErrFailed wrapping the short write", name, err)
		}
	}
	_ = s.Close()
	if len(acked) != 4 {
		t.Errorf("acknowledged %d appends, want the 4 before the short write", len(acked))
	}

	s2 := openT(t, dir, SyncAlways)
	defer s2.Close()
	_, tail := s2.Recovered()
	replayed := make(map[uint32]bool, len(tail))
	for _, r := range tail {
		replayed[r.Name] = true
	}
	for _, name := range acked {
		if !replayed[name] {
			t.Errorf("acknowledged record %d lost across the reopen (replayed %d records)", name, len(tail))
		}
	}
	// The reopened store cut the torn frame and takes appends again.
	if err := s2.Append(OpAcquire, 99, 100, 0); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestLatchIntervalFsync fails the interval loop's first fsync. SyncInterval
// acknowledges before its fsync, so the appends before the failure stand,
// but once the loop has latched the failure every append is refused.
func TestLatchIntervalFsync(t *testing.T) {
	fs := &faultSegment{failSync: 1}
	fs.inject(t)
	s, err := Open(t.TempDir(), SyncInterval, time.Millisecond)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for name := uint32(0); ; name++ {
		err := s.Append(OpAcquire, name, uint64(name)+1, 0)
		if errors.Is(err, ErrFailed) && errors.Is(err, syscall.EIO) {
			break
		}
		if err != nil || time.Now().After(deadline) {
			t.Fatalf("append %d: %v; want success until the interval fsync fails, then ErrFailed", name, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := s.Append(OpAcquire, 1<<20, 1, 0); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after the latch: %v, want ErrFailed", err)
	}
}
