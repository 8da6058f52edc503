package wal

import (
	"errors"
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

// ErrFailed marks a log that has stopped acknowledging appends: a segment
// write or fsync failed, so nothing written after the last good fsync can be
// proven durable (a failed fsync may drop dirty pages and clear the error, so
// a later successful one proves nothing about them). Every later append
// returns it, wrapping the first cause, until the store is reopened and
// replays what is durable.
var ErrFailed = errors.New("wal: log failed")

// segment is the open segment file as the log uses it; openSegment opens one
// for appending. Tests swap the opener to inject failed writes and fsyncs.
type segment interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

var openSegment = func(path string) (segment, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// log is the append side of a partition's WAL: one open segment file with a
// group-commit sync protocol. Appends under SyncAlways block until their
// bytes are fsynced, but concurrent appenders coalesce: whoever holds the
// sync baton flushes everything written so far, and the rest just wait for
// a flush covering their write — one fsync absorbs a burst. The first failed
// write or fsync latches: from then on no append is acknowledged.
type log struct {
	policy SyncPolicy

	mu     sync.Mutex // guards file writes, rotation, and written/synced
	f      segment
	seq    uint64 // current segment sequence number
	writes uint64 // monotone count of completed file writes
	synced uint64 // writes covered by the last fsync

	syncCond *sync.Cond // signaled after each fsync completes
	syncing  bool       // a group-commit fsync is in flight

	// failed holds the first write or fsync error, wrapped in ErrFailed.
	// It is set under mu; the store reads it without mu to refuse early.
	failed atomic.Value

	appends atomic.Uint64
	syncs   atomic.Uint64
	bytes   atomic.Uint64

	stop     chan struct{}
	done     chan struct{}
	interval time.Duration
}

func openLog(dir string, seq uint64, policy SyncPolicy, interval time.Duration) (*log, error) {
	f, err := openSegment(filepath.Join(dir, segName(seq)))
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	l := &log{policy: policy, f: f, seq: seq, interval: interval}
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

// err returns the latched failure, nil while the log is healthy.
func (l *log) err() error {
	err, _ := l.failed.Load().(error)
	return err
}

// latch records the log's first failure and wakes every waiter, which then
// returns it: an append whose write no good fsync covered is never
// acknowledged. Callers hold mu.
func (l *log) latch(op string, err error) error {
	if l.err() == nil {
		l.failed.Store(fmt.Errorf("%w: %s: %w", ErrFailed, op, err))
	}
	l.syncCond.Broadcast()
	return l.err()
}

// syncedLocked records a good fsync covering the first covered writes.
// Coverage advances only while the log is healthy: a good fsync that lands
// after another one failed proves nothing about the pages the failure may
// have dropped. Callers hold mu.
func (l *log) syncedLocked(covered uint64) {
	l.syncs.Add(1)
	if l.err() == nil && covered > l.synced {
		l.synced = covered
	}
	l.syncCond.Broadcast()
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
			f, covered := l.f, l.writes
			l.mu.Unlock()
			if f == nil || l.err() != nil {
				continue
			}
			err := f.Sync()
			l.mu.Lock()
			switch {
			case err == nil:
				l.syncedLocked(covered)
			case !errors.Is(err, os.ErrClosed):
				// Not a segment rotate sealed meanwhile: rotate fsyncs
				// the segment itself before closing it.
				l.latch("fsync", err)
			}
			l.mu.Unlock()
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
	if err := l.err(); err != nil {
		l.mu.Unlock()
		return err
	}
	if l.f == nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: log closed")
	}
	if _, err := l.f.Write(frames); err != nil {
		// The segment may now end in a partial frame: anything appended
		// after it would be unreachable past replay's torn-tail cut.
		err = l.latch("append", err)
		l.mu.Unlock()
		return err
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
	// to land and re-check (it may have started before our write). A latched
	// failure ends the wait for every ticket still uncovered.
	defer sp.PhaseSince(trace.PhaseFsyncWait, mark)
	for l.synced < ticket {
		if err := l.err(); err != nil {
			l.mu.Unlock()
			return err
		}
		if !l.syncing {
			l.syncing = true
			covered := l.writes // everything written so far rides this fsync
			f := l.f
			l.mu.Unlock()
			err := f.Sync()
			l.mu.Lock()
			l.syncing = false
			if err != nil {
				l.latch("fsync", err)
			} else {
				l.syncedLocked(covered)
			}
		} else {
			l.syncCond.Wait()
		}
	}
	l.mu.Unlock()
	return nil
}

// rotate closes the current segment and opens a fresh one with the next
// sequence number, returning the sequence of the now-sealed segment. Any
// failure latches: the log no longer has a segment it can promise to extend.
func (l *log) rotate(dir string) (sealed uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.err(); err != nil {
		return 0, err
	}
	if l.f == nil {
		return 0, fmt.Errorf("wal: log closed")
	}
	if err := l.f.Sync(); err != nil {
		return 0, l.latch("rotate sync", err)
	}
	l.syncs.Add(1)
	if err := l.f.Close(); err != nil {
		return 0, l.latch("rotate close", err)
	}
	sealed = l.seq
	l.seq++
	f, err := openSegment(filepath.Join(dir, segName(l.seq)))
	if err != nil {
		l.f = nil
		return 0, l.latch("rotate open", err)
	}
	l.f = f
	l.synced = l.writes // fresh segment: everything prior is on the sealed file
	return sealed, nil
}

// close stops the interval loop, fsyncs a healthy log and closes the
// segment; appends still waiting return once the fsync has covered them. A
// failed log skips the fsync, which could prove nothing, and returns its
// latched error.
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
	err := l.err()
	if err == nil {
		if serr := l.f.Sync(); serr != nil {
			err = l.latch("fsync", serr)
		} else {
			l.syncedLocked(l.writes)
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
