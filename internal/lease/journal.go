package lease

import (
	"errors"
	"fmt"
	"time"

	"github.com/levelarray/levelarray/internal/wal"
)

// Journal is the narrow durability interface a Manager journals through,
// implemented by *wal.Store. It is an interface so tests can inject failing
// or recording journals without touching a filesystem.
type Journal interface {
	// Append journals one lease transition. Under a durable sync policy it
	// returns only once the record is on stable storage; an error means the
	// operation must not be acknowledged.
	Append(op wal.Op, name uint32, token uint64, deadline int64) error
	// AppendBatch journals several transitions with one durability wait.
	AppendBatch(recs []wal.Record) error
	// BeginCheckpoint seals the log and returns the LSN the snapshot covers.
	// The Manager calls it under its checkpoint write barrier.
	BeginCheckpoint() (uint64, error)
	// CompleteCheckpoint persists the snapshot and prunes covered segments.
	CompleteCheckpoint(snap *wal.Snapshot) error
	// Recovered returns the snapshot and log tail Open reconstructed.
	Recovered() (*wal.Snapshot, []wal.Record)
}

// ErrNotAdoptable is returned by Restore when the underlying array's handles
// cannot re-adopt specific names (no Adopt method), which durable recovery
// requires.
var ErrNotAdoptable = errors.New("lease: array handles do not support Adopt; cannot restore from journal")

// adopter is the restore-path primitive: core.Handle and shard.Handle both
// claim one specific name with a single test-and-set.
type adopter interface {
	Adopt(name int) error
}

// tokenRestoreSlack is added to the recovered token-sequence high-water mark
// before restarting the mint sequence. Under relaxed sync policies a crash
// can lose the trailing records of tokens that were already handed out; the
// slack keeps even those unrecorded tokens unique against post-restart mints.
const tokenRestoreSlack = 1 << 20

// RestoreStats reports what Restore rebuilt.
type RestoreStats struct {
	// Sessions is the number of leases rebuilt as live.
	Sessions int
	// Expired is the number of recovered sessions whose deadline had already
	// lapsed; they are rebuilt and handed straight to the expirer so the
	// array observes a well-formed Get/Free history for them too.
	Expired int
	// OrphanWords counts bits set in the snapshot's bitmap words with no
	// matching session — registrations that bypassed their bookkeeping
	// before the crash. They are not restored (the crash collected them).
	OrphanWords int
	// TokenFloor is the restarted token-sequence floor (includes slack).
	TokenFloor uint64
	// Records is the number of journal tail records folded in.
	Records int
}

// Restore rebuilds the manager's state from its journal's recovered snapshot
// and log tail: every surviving session is re-adopted on the underlying
// array (a specific-name test-and-set, excluded from probe statistics), its
// entry and timer-wheel record are rebuilt from the persisted deadline, and
// the token-mint sequence is restarted above the recovered high-water mark.
//
// It must be called once, after NewManager and before Start or any
// operation. A manager without a journal restores nothing.
func (m *Manager) Restore() (RestoreStats, error) {
	if m.journal == nil {
		return RestoreStats{}, nil
	}
	snap, tail := m.journal.Recovered()
	return m.RestoreState(snap, tail)
}

// RestoreState rebuilds the manager from an explicit snapshot and log tail
// rather than the journal's own recovery — the migration path, where a
// target folds the snapshot its source shipped into a fresh manager (whose
// own journal then checkpoints the imported sessions). The same
// preconditions as Restore apply: call once, before Start or any operation.
func (m *Manager) RestoreState(snap *wal.Snapshot, tail []wal.Record) (RestoreStats, error) {
	var st RestoreStats
	st.Records = len(tail)
	sessions, maxToken := wal.Fold(snap, tail)

	if snap != nil {
		st.OrphanWords = countOrphanWords(snap, sessions)
	}

	// Token floor: above everything ever observed on disk, above the
	// snapshot's recorded mint position, with slack for tokens lost to a
	// relaxed sync policy — and never below the configured base (the cluster
	// derives bases from epochs; a restored node keeps its epoch's space).
	floor := maxToken >> TokenHandleBits
	if snap != nil && snap.TokenSeq > floor {
		floor = snap.TokenSeq
	}
	floor += tokenRestoreSlack
	if floor < m.cfg.TokenSeqBase {
		floor = m.cfg.TokenSeqBase
	}
	if floor > m.tokenSeq.Load() {
		m.tokenSeq.Store(floor)
	}
	st.TokenFloor = floor

	nowTick := m.now().UnixNano() / int64(m.cfg.TickInterval)
	for _, sess := range sessions {
		name := int(sess.Name)
		if name < 0 || name >= len(m.entries) {
			return st, fmt.Errorf("lease: recovered session name %d outside namespace [0, %d)", name, len(m.entries))
		}
		h := m.getHandle()
		ad, ok := h.(adopter)
		if !ok {
			m.putHandle(h)
			return st, ErrNotAdoptable
		}
		if err := ad.Adopt(name); err != nil {
			m.putHandle(h)
			return st, fmt.Errorf("lease: re-adopt name %d: %w", name, err)
		}
		e := &m.entries[name]
		e.active = true
		e.token = sess.Token
		e.deadline = sess.Deadline
		e.handle = h
		e.wheelTick = 0
		if sess.Deadline != 0 {
			// Rebuild the timer record. A deadline that lapsed while the
			// process was down hashes to a tick the expirer will never scan
			// again, so park it one tick ahead: the first pass reaps it
			// (expireBucket re-checks due-ness against the entry's deadline).
			tick := m.tickOf(sess.Deadline)
			if tick <= nowTick {
				tick = nowTick + 1
				st.Expired++
			}
			e.wheelTick = tick
			b := &m.wheel[int(tick%int64(len(m.wheel)))]
			b.items = append(b.items, wheelItem{name: name, token: sess.Token})
		}
		st.Sessions++
		m.active.Add(1)
	}
	m.restored.Store(uint64(st.Sessions))
	return st, nil
}

// countOrphanWords counts bits set in the snapshot's concatenated bitmap
// words that no recovered session accounts for. Purely diagnostic: orphan
// bits are simply not re-adopted, so a crash doubles as an orphan collection.
func countOrphanWords(snap *wal.Snapshot, sessions []wal.Session) int {
	var setBits int
	for _, w := range snap.Words {
		for ; w != 0; w &= w - 1 {
			setBits++
		}
	}
	if setBits <= len(sessions) {
		return 0
	}
	return setBits - len(sessions)
}

// Restored returns the number of sessions the last Restore rebuilt.
func (m *Manager) Restored() uint64 { return m.restored.Load() }

// Checkpoint captures a consistent snapshot of the manager's lease state and
// hands it to the journal: it takes the checkpoint write barrier (excluding
// every journaling mutation), seals the log at a cut LSN, captures the
// session table, bitmap words and token high-water mark at that same point,
// then releases the barrier and persists the snapshot in the caller's
// goroutine. After it returns, the journal's replayable state starts at the
// snapshot. Clean marks a graceful-shutdown snapshot (replay skips the tail).
func (m *Manager) Checkpoint(partition uint32, epoch uint64, clean bool) error {
	if m.journal == nil {
		return nil
	}
	m.journalMu.Lock()
	lsn, err := m.journal.BeginCheckpoint()
	if err != nil {
		m.journalMu.Unlock()
		return err
	}
	snap := m.captureLocked(partition, epoch)
	m.journalMu.Unlock()
	snap.LastLSN, snap.Clean = lsn, clean
	return m.journal.CompleteCheckpoint(snap)
}

// ExportState captures a consistent snapshot of the manager's live state and
// returns it — the ship half of a live partition migration. It is
// Checkpoint's capture under the same write barrier (excluding every
// journaling mutation), but it does not touch the journal: no log seal, no
// persisted snapshot, no truncation. The caller must have fenced the
// partition against new grants first (the cluster holds its table write lock
// and marks the partition migrating); expirations may still race the export,
// which is safe — the importer re-expires any lapsed session itself, and an
// expired name is never re-granted by the fenced source. Works on journal-
// less managers too (the barrier is then only against other exports).
func (m *Manager) ExportState(partition uint32, epoch uint64) *wal.Snapshot {
	m.journalMu.Lock()
	defer m.journalMu.Unlock()
	snap := m.captureLocked(partition, epoch)
	snap.Clean = true
	return snap
}

// captureLocked copies the token high-water mark, the session table and the
// bitmap words into a snapshot: the capture Checkpoint and ExportState
// share. Callers hold the checkpoint write barrier (journalMu).
func (m *Manager) captureLocked(partition uint32, epoch uint64) *wal.Snapshot {
	snap := &wal.Snapshot{Partition: partition, Epoch: epoch, TokenSeq: m.tokenSeq.Load()}
	for name := range m.entries {
		e := &m.entries[name]
		e.mu.Lock()
		if e.active {
			snap.Sessions = append(snap.Sessions, wal.Session{
				Name:     uint32(name),
				Token:    e.token,
				Deadline: e.deadline,
			})
		}
		e.mu.Unlock()
	}
	for _, v := range m.views {
		snap.Words = append(snap.Words, v.space.SnapshotWords()...)
	}
	return snap
}

// checkpointLoop drives periodic checkpoints. meta supplies the partition id
// and current epoch stamped into each snapshot.
type checkpointLoop struct {
	stop chan struct{}
	done chan struct{}
}

// StartCheckpoints launches a background loop checkpointing every interval.
// The returned stop function halts the loop and waits for an in-flight
// checkpoint to finish; it does not write a final snapshot (the shutdown
// path calls Checkpoint with clean=true itself). No-op without a journal.
func (m *Manager) StartCheckpoints(every time.Duration, meta func() (partition uint32, epoch uint64), onErr func(error)) (stop func()) {
	if m.journal == nil || every <= 0 {
		return func() {}
	}
	l := &checkpointLoop{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				p, ep := meta()
				if err := m.Checkpoint(p, ep, false); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
	return func() {
		close(l.stop)
		<-l.done
	}
}
