package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray/internal/trace"
)

// SyncPolicy selects when appended records are forced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs before Append returns — group-committed, so
	// concurrent appenders share one fsync. This is the only policy under
	// which an acked grant is guaranteed to survive a crash, and the only
	// one the chaos ledger may assert durability over.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background cadence; a crash loses at most
	// the last interval's records.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache. Fast, and fine for
	// tests and for deployments that only care about clean restarts.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("sync(%d)", int(p))
	}
}

// segPrefix and segSuffix frame segment filenames: wal-<seq>.log.
const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

func segName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the segment sequence numbers present in dir, sorted
// ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// log is the append side of a partition's WAL: one open segment file with a
// group-commit sync protocol. Appends under SyncAlways block until their
// bytes are fsynced, but concurrent appenders coalesce: whoever holds the
// sync baton flushes everything written so far, and the rest just wait for
// a flush covering their write — one fsync absorbs a burst.
type log struct {
	policy SyncPolicy

	mu     sync.Mutex // guards file writes, rotation, and written/synced
	f      *os.File
	seq    uint64 // current segment sequence number
	path   string
	writes uint64 // monotone count of completed file writes
	synced uint64 // writes covered by the last fsync

	syncCond *sync.Cond // signaled after each fsync completes
	syncing  bool       // a group-commit fsync is in flight

	appends atomic.Uint64
	syncs   atomic.Uint64
	bytes   atomic.Uint64

	stop     chan struct{}
	done     chan struct{}
	interval time.Duration
}

func openLog(dir string, seq uint64, policy SyncPolicy, interval time.Duration) (*log, error) {
	path := filepath.Join(dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	l := &log{policy: policy, f: f, seq: seq, path: path, interval: interval}
	l.syncCond = sync.NewCond(&l.mu)
	if policy == SyncInterval {
		if l.interval <= 0 {
			l.interval = 5 * time.Millisecond
		}
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.intervalLoop()
	}
	return l, nil
}

func (l *log) intervalLoop() {
	defer close(l.done)
	t := time.NewTicker(l.interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			f := l.f
			l.mu.Unlock()
			if f != nil {
				if err := f.Sync(); err == nil {
					l.syncs.Add(1)
				}
			}
		}
	}
}

// append writes the encoded frames and, under SyncAlways, blocks until an
// fsync covering them completes. When sp is non-nil the wait for the log
// mutex is attributed to the queue phase, the buffered write to wal-append,
// and the group-commit wait (own fsync or a covering one) to fsync-wait —
// so a slow-op trace separates "stuck behind the log lock" from "paying the
// durability tax".
func (l *log) append(sp *trace.Op, frames []byte) error {
	mark := sp.Mark()
	l.mu.Lock()
	mark = sp.PhaseSince(trace.PhaseQueue, mark)
	if l.f == nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: log closed")
	}
	if _, err := l.f.Write(frames); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.writes++
	ticket := l.writes
	l.appends.Add(1)
	l.bytes.Add(uint64(len(frames)))
	mark = sp.PhaseSince(trace.PhaseWALAppend, mark)

	if l.policy != SyncAlways {
		l.mu.Unlock()
		return nil
	}

	// Group commit: wait until some fsync covers our ticket. If nobody is
	// flushing, become the flusher; otherwise wait for the current flush
	// to land and re-check (it may have started before our write).
	defer sp.PhaseSince(trace.PhaseFsyncWait, mark)
	for l.synced < ticket {
		if !l.syncing {
			l.syncing = true
			covered := l.writes // everything written so far rides this fsync
			f := l.f
			l.mu.Unlock()
			err := f.Sync()
			l.mu.Lock()
			l.syncing = false
			if err != nil {
				l.syncCond.Broadcast()
				l.mu.Unlock()
				return fmt.Errorf("wal: fsync: %w", err)
			}
			l.syncs.Add(1)
			if covered > l.synced {
				l.synced = covered
			}
			l.syncCond.Broadcast()
		} else {
			l.syncCond.Wait()
		}
	}
	l.mu.Unlock()
	return nil
}

// sync forces an fsync regardless of policy (shutdown and checkpoint path).
func (l *log) sync() error {
	l.mu.Lock()
	f := l.f
	covered := l.writes
	l.mu.Unlock()
	if f == nil {
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	l.syncs.Add(1)
	l.mu.Lock()
	if covered > l.synced {
		l.synced = covered
	}
	l.syncCond.Broadcast()
	l.mu.Unlock()
	return nil
}

// rotate closes the current segment and opens a fresh one with the next
// sequence number, returning the sequence of the now-sealed segment.
func (l *log) rotate(dir string) (sealed uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, fmt.Errorf("wal: log closed")
	}
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("wal: rotate sync: %w", err)
	}
	l.syncs.Add(1)
	if err := l.f.Close(); err != nil {
		return 0, fmt.Errorf("wal: rotate close: %w", err)
	}
	sealed = l.seq
	l.seq++
	l.path = filepath.Join(dir, segName(l.seq))
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.f = nil
		return 0, fmt.Errorf("wal: rotate open: %w", err)
	}
	l.f = f
	l.synced = l.writes // fresh segment: everything prior is on the sealed file
	return sealed, nil
}

func (l *log) close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if err == nil {
		l.syncs.Add(1)
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	l.syncCond.Broadcast()
	return err
}
