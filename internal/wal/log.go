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
// group-commit sync protocol. Under SyncAlways an append copies its records
// into a pending buffer, and whoever holds the flush baton writes everything
// pending with one write and covers it with one fsync; the other appenders
// wait for a flush covering their ticket. One write and one fsync thus absorb
// a burst, whether its appenders wait at once (Append) or later (a Barrier
// over Enqueue). Under the other policies an append writes at once. The first
// failed write or fsync latches: from then on no append is acknowledged.
type log struct {
	policy SyncPolicy

	mu     sync.Mutex // guards the segment, pending, rotation, queued and synced
	f      segment
	seq    uint64 // current segment sequence number
	queued uint64 // monotone ticket count: appends accepted so far
	synced uint64 // tickets covered by the last good fsync

	// pending holds the encoded records of queued appends no flush has
	// taken yet (SyncAlways only); spare is the buffer the in-flight flush
	// hands back, so the two swap without allocating.
	pending, spare []byte

	syncCond *sync.Cond // signaled after each flush or fsync completes
	flushing bool       // a group-commit flush is in flight

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

// errLogClosed is returned by appends after close.
var errLogClosed = errors.New("wal: log closed")

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

// syncedLocked records a good fsync covering the first covered tickets.
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
			f, covered := l.f, l.queued
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

// append adds recs to the log and, under SyncAlways, blocks until an fsync
// covering them completes. When sp is non-nil the wait for the log mutex is
// attributed to the queue phase, encoding the records to wal-append, and the
// group-commit wait (the segment write and fsync, its own or a covering one)
// to fsync-wait — so a slow-op trace separates "stuck behind the log lock"
// from "paying the durability tax".
func (l *log) append(sp *trace.Op, recs []Record) error {
	mark := sp.Mark()
	l.mu.Lock()
	defer l.mu.Unlock()
	mark = sp.PhaseSince(trace.PhaseQueue, mark)
	ticket, err := l.enqueueLocked(recs)
	if err != nil {
		return err
	}
	mark = sp.PhaseSince(trace.PhaseWALAppend, mark)
	defer sp.PhaseSince(trace.PhaseFsyncWait, mark)
	return l.waitLocked(ticket)
}

// enqueue adds recs to the log without waiting for durability and returns
// the ticket wait takes; the span is charged as append charges it.
func (l *log) enqueue(sp *trace.Op, recs []Record) (uint64, error) {
	mark := sp.Mark()
	l.mu.Lock()
	defer l.mu.Unlock()
	mark = sp.PhaseSince(trace.PhaseQueue, mark)
	ticket, err := l.enqueueLocked(recs)
	sp.PhaseSince(trace.PhaseWALAppend, mark)
	return ticket, err
}

// enqueueLocked encodes recs onto the pending buffer and returns their
// ticket. Under SyncAlways the next flush writes them; under the other
// policies they are written at once, which is all those policies promise
// before acknowledging. Callers hold mu.
func (l *log) enqueueLocked(recs []Record) (uint64, error) {
	if err := l.err(); err != nil {
		return 0, err
	}
	if l.f == nil {
		return 0, errLogClosed
	}
	n := len(l.pending)
	for i := range recs {
		l.pending = appendRecord(l.pending, recs[i])
	}
	size := uint64(len(l.pending) - n)
	if l.policy != SyncAlways {
		_, err := l.f.Write(l.pending)
		l.pending = l.pending[:0]
		if err != nil {
			// The segment may now end in a partial frame: anything appended
			// after it would be unreachable past replay's torn-tail cut.
			return 0, l.latch("append", err)
		}
	}
	l.queued++
	l.appends.Add(1)
	l.bytes.Add(size)
	return l.queued, nil
}

// wait blocks until ticket is durable under the log's policy: under
// SyncAlways until a good fsync covers it, otherwise at once (its write is
// already done).
func (l *log) wait(ticket uint64) error {
	if l.policy != SyncAlways {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitLocked(ticket)
}

// waitLocked is wait with mu held. Group commit: if nobody is flushing,
// become the flusher; otherwise wait for the current flush to land and
// re-check (it may have taken the pending bytes before ours). A latched
// failure ends the wait for every ticket still uncovered.
func (l *log) waitLocked(ticket uint64) error {
	if l.policy != SyncAlways {
		return nil
	}
	for l.synced < ticket {
		if err := l.err(); err != nil {
			return err
		}
		switch {
		case l.flushing:
			l.syncCond.Wait()
		case l.f == nil:
			return errLogClosed
		default:
			l.flushLocked()
		}
	}
	return nil
}

// flushLocked writes every pending record with one write and covers every
// ticket queued so far with one fsync. It releases mu for both syscalls, so
// appenders keep queueing meanwhile; the flushing flag keeps rotate and close
// off the segment until it is done. Callers hold mu with no flush in flight.
func (l *log) flushLocked() {
	l.flushing = true
	buf, covered, f := l.pending, l.queued, l.f
	l.pending = l.spare[:0]
	l.mu.Unlock()
	op := "append"
	var err error
	if len(buf) > 0 {
		_, err = f.Write(buf)
	}
	if err == nil {
		op = "fsync"
		err = f.Sync()
	}
	l.mu.Lock()
	l.flushing = false
	l.spare = buf[:0]
	if err != nil {
		l.latch(op, err)
	} else {
		l.syncedLocked(covered)
	}
}

// settleLocked waits out an in-flight flush and writes what is still
// pending to the open segment, so a rotate or close that follows seals
// every queued record into it. Callers hold mu.
func (l *log) settleLocked() error {
	for l.flushing {
		l.syncCond.Wait()
	}
	if err := l.err(); err != nil {
		return err
	}
	if l.f == nil {
		return errLogClosed
	}
	if len(l.pending) > 0 {
		_, err := l.f.Write(l.pending)
		l.pending = l.pending[:0]
		if err != nil {
			return l.latch("append", err)
		}
	}
	return nil
}

// rotate closes the current segment and opens a fresh one with the next
// sequence number, returning the sequence of the now-sealed segment. The
// records still pending are written to the sealed segment first, and its
// fsync covers every ticket queued so far. Any failure latches: the log no
// longer has a segment it can promise to extend.
func (l *log) rotate(dir string) (sealed uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.settleLocked(); err != nil {
		return 0, err
	}
	if err := l.f.Sync(); err != nil {
		return 0, l.latch("rotate sync", err)
	}
	l.syncedLocked(l.queued) // fresh segment: everything prior is on the sealed file
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
	return sealed, nil
}

// close stops the interval loop, writes what is pending, fsyncs a healthy
// log and closes the segment; appends still waiting return once the fsync
// has covered them. A failed log skips the write and the fsync, which could
// prove nothing, and returns its latched error.
func (l *log) close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.syncCond.Wait()
	}
	if l.f == nil {
		return nil
	}
	err := l.settleLocked()
	if err == nil {
		if serr := l.f.Sync(); serr != nil {
			err = l.latch("fsync", serr)
		} else {
			l.syncedLocked(l.queued)
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
