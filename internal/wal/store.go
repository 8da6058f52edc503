package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray/internal/trace"
)

// Counters is a point-in-time copy of a store's activity counters, the
// backing for the la_wal_* metric families.
type Counters struct {
	Appends       uint64
	Syncs         uint64
	Bytes         uint64
	Checkpoints   uint64
	ReplayRecords uint64
	TornTails     uint64
}

// Store is one partition's durable lease journal: an open segment log, the
// latest snapshot, and the recovered state from Open's replay scan.
type Store struct {
	dir string
	log *log

	lsn atomic.Uint64 // last assigned LSN

	checkpoints   atomic.Uint64
	replayRecords atomic.Uint64
	tornTails     atomic.Uint64

	snap *Snapshot
	tail []Record
}

// Open creates or recovers a partition store at dir. It reads the latest
// snapshot, scans the segment tail (truncating any torn final record so
// future appends are reachable), clears a stale clean-shutdown marker, and
// opens a fresh segment for appends. The recovered state is available via
// Recovered until the first checkpoint.
func Open(dir string, policy SyncPolicy, syncInterval time.Duration) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	s := &Store{dir: dir}

	snap, err := readSnapshot(dir)
	if err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}

	var maxLSN, nextSeg uint64
	if len(segs) > 0 {
		nextSeg = segs[len(segs)-1] + 1
	}
	if snap != nil {
		maxLSN = snap.LastLSN
	}

	if snap != nil && snap.Clean {
		// A clean-shutdown snapshot is authoritative: the tail (if any
		// survived the final checkpoint) is already folded in. Skip the
		// scan, drop the segments, and clear the marker — records we
		// append from here on must not be skipped by the next replay.
		for _, seq := range segs {
			_ = os.Remove(filepath.Join(dir, segName(seq)))
		}
		syncDir(dir)
		reopened := *snap
		reopened.Clean = false
		if err := writeSnapshot(dir, &reopened); err != nil {
			return nil, err
		}
		s.snap = &reopened
	} else {
		s.snap = snap
		tail, scannedMax, err := s.scanSegments(segs, maxLSN)
		if err != nil {
			return nil, err
		}
		s.tail = tail
		if scannedMax > maxLSN {
			maxLSN = scannedMax
		}
	}
	s.lsn.Store(maxLSN)

	lg, err := openLog(dir, nextSeg, policy, syncInterval)
	if err != nil {
		return nil, err
	}
	s.log = lg
	return s, nil
}

// scanSegments replays every segment in order, collecting records newer
// than snapLSN. The first torn record ends the scan: the holding segment
// is truncated at that offset and any later segments (possible only after
// external corruption, never from a crash) are dropped, so the log's
// replayable prefix and its byte prefix coincide again.
func (s *Store) scanSegments(segs []uint64, snapLSN uint64) ([]Record, uint64, error) {
	var tail []Record
	var maxLSN uint64
	for i, seq := range segs {
		path := filepath.Join(s.dir, segName(seq))
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: read segment: %w", err)
		}
		off := 0
		torn := false
		for off < len(b) {
			r, n, err := decodeRecord(b[off:])
			if err != nil {
				torn = true
				break
			}
			off += n
			s.replayRecords.Add(1)
			if r.LSN > maxLSN {
				maxLSN = r.LSN
			}
			if r.LSN > snapLSN {
				tail = append(tail, r)
			}
		}
		if torn {
			s.tornTails.Add(1)
			if err := os.Truncate(path, int64(off)); err != nil {
				return nil, 0, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			for _, later := range segs[i+1:] {
				_ = os.Remove(filepath.Join(s.dir, segName(later)))
			}
			syncDir(s.dir)
			break
		}
	}
	return tail, maxLSN, nil
}

// Recovered returns the state Open reconstructed: the snapshot (nil when
// none survived) and the log tail past it, in append order.
func (s *Store) Recovered() (*Snapshot, []Record) { return s.snap, s.tail }

// LastLSN returns the highest LSN assigned so far.
func (s *Store) LastLSN() uint64 { return s.lsn.Load() }

// Append journals one record. Under SyncAlways it returns only after the
// record is fsynced (group-committed with concurrent appenders), so an Append
// that returns nil is a record the next Open replays. Once a segment write or
// fsync has failed, every Append returns an error wrapping ErrFailed.
func (s *Store) Append(op Op, name uint32, token uint64, deadline int64) error {
	return s.AppendTraced(nil, op, name, token, deadline)
}

// AppendTraced is Append with flight-recorder phase attribution: the span
// (when non-nil) is charged queue, wal-append and fsync-wait time. It is the
// lease manager's tracedJournal hook.
func (s *Store) AppendTraced(sp *trace.Op, op Op, name uint32, token uint64, deadline int64) error {
	return s.AppendBatchTraced(sp, []Record{{Op: op, Name: name, Token: token, Deadline: deadline}})
}

// AppendBatch journals several records with a single durability wait —
// the batch-op path (AcquireN, RenewAll) pays one group commit for the
// whole round.
func (s *Store) AppendBatch(recs []Record) error {
	return s.AppendBatchTraced(nil, recs)
}

// AppendBatchTraced is AppendBatch with flight-recorder phase attribution.
// A failed log refuses the batch before assigning it LSNs.
func (s *Store) AppendBatchTraced(sp *trace.Op, recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if err := s.log.err(); err != nil {
		return err
	}
	buf := make([]byte, 0, len(recs)*frameLen)
	for i := range recs {
		recs[i].LSN = s.lsn.Add(1)
		buf = appendRecord(buf, recs[i])
	}
	return s.log.append(sp, buf)
}

// BeginCheckpoint seals the current segment and returns the LSN high-water
// mark the snapshot will cover. The caller MUST invoke it under its write
// barrier (no concurrent appends) and capture its state before releasing
// the barrier, so the returned LSN and the captured state form a
// consistent cut.
func (s *Store) BeginCheckpoint() (uint64, error) {
	if _, err := s.log.rotate(s.dir); err != nil {
		return 0, err
	}
	return s.lsn.Load(), nil
}

// CompleteCheckpoint persists the snapshot (whose LastLSN must be the
// value BeginCheckpoint returned) and deletes the sealed segments it
// covers. Crash-safe at every point: until the snapshot rename lands the
// old snapshot plus the full log reproduce the same state, and leftover
// sealed segments merely replay records the snapshot already folds in.
func (s *Store) CompleteCheckpoint(snap *Snapshot) error {
	if err := writeSnapshot(s.dir, snap); err != nil {
		return err
	}
	segs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	s.log.mu.Lock()
	open := s.log.seq
	s.log.mu.Unlock()
	for _, seq := range segs {
		if seq < open {
			_ = os.Remove(filepath.Join(s.dir, segName(seq)))
		}
	}
	syncDir(s.dir)
	s.checkpoints.Add(1)
	s.snap, s.tail = nil, nil // recovered state superseded; free it
	return nil
}

// Close flushes and closes the segment log. It does not write a snapshot;
// graceful shutdown runs a final checkpoint first.
func (s *Store) Close() error { return s.log.close() }

// Counters snapshots the store's activity counters.
func (s *Store) Counters() Counters {
	return Counters{
		Appends:       s.log.appends.Load(),
		Syncs:         s.log.syncs.Load(),
		Bytes:         s.log.bytes.Load(),
		Checkpoints:   s.checkpoints.Load(),
		ReplayRecords: s.replayRecords.Load(),
		TornTails:     s.tornTails.Load(),
	}
}

// ReadState performs a read-only recovery scan of dir: the latest snapshot
// plus every intact record past it, stopping at the first torn record. It
// never mutates the directory, so a checker can read a live store's state.
func ReadState(dir string) (*Snapshot, []Record, error) {
	snap, err := readSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return snap, nil, nil
		}
		return nil, nil, err
	}
	var snapLSN uint64
	if snap != nil {
		snapLSN = snap.LastLSN
		if snap.Clean {
			return snap, nil, nil
		}
	}
	var tail []Record
scan:
	for _, seq := range segs {
		b, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			return nil, nil, err
		}
		off := 0
		for off < len(b) {
			r, n, derr := decodeRecord(b[off:])
			if derr != nil {
				break scan
			}
			off += n
			if r.LSN > snapLSN {
				tail = append(tail, r)
			}
		}
	}
	return snap, tail, nil
}

// Fold applies a record tail to a snapshot's session table and returns the
// resulting sessions plus the highest token observed anywhere (snapshot
// HWM included). Acquire overwrites unconditionally; renew, release and
// expire apply only when the token matches the current holder — the rule
// that makes replay insensitive to the benign reorderings the append path
// permits.
func Fold(snap *Snapshot, tail []Record) (sessions []Session, maxToken uint64) {
	byName := make(map[uint32]Session)
	if snap != nil {
		for _, sess := range snap.Sessions {
			byName[sess.Name] = sess
			if sess.Token > maxToken {
				maxToken = sess.Token
			}
		}
	}
	for _, r := range tail {
		if r.Token > maxToken {
			maxToken = r.Token
		}
		switch r.Op {
		case OpAcquire:
			byName[r.Name] = Session{Name: r.Name, Token: r.Token, Deadline: r.Deadline}
		case OpRenew:
			if cur, ok := byName[r.Name]; ok && cur.Token == r.Token {
				cur.Deadline = r.Deadline
				byName[r.Name] = cur
			}
		case OpRelease, OpExpire:
			if cur, ok := byName[r.Name]; ok && cur.Token == r.Token {
				delete(byName, r.Name)
			}
		}
	}
	sessions = make([]Session, 0, len(byName))
	for _, sess := range byName {
		sessions = append(sessions, sess)
	}
	return sessions, maxToken
}
