package wal

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, policy SyncPolicy) *Store {
	t.Helper()
	s, err := Open(dir, policy, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func sortSessions(ss []Session) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Name < ss[j].Name })
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, SyncNever)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	must(s.Append(OpAcquire, 3, 100, 5_000))
	must(s.Append(OpAcquire, 7, 200, 6_000))
	must(s.Append(OpRenew, 3, 100, 9_000))
	must(s.Append(OpRelease, 7, 200, 0))
	must(s.Append(OpAcquire, 7, 300, 7_000))
	must(s.Append(OpExpire, 7, 999, 0)) // stale token: must not apply
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2 := openT(t, dir, SyncNever)
	defer s2.Close()
	snap, tail := s2.Recovered()
	if snap != nil {
		t.Fatalf("unexpected snapshot")
	}
	sessions, maxTok := Fold(snap, tail)
	sortSessions(sessions)
	want := []Session{{Name: 3, Token: 100, Deadline: 9_000}, {Name: 7, Token: 300, Deadline: 7_000}}
	if len(sessions) != len(want) {
		t.Fatalf("sessions = %+v, want %+v", sessions, want)
	}
	for i := range want {
		if sessions[i] != want[i] {
			t.Fatalf("session[%d] = %+v, want %+v", i, sessions[i], want[i])
		}
	}
	if maxTok != 999 {
		t.Fatalf("maxToken = %d, want 999", maxTok)
	}
	if s2.LastLSN() != 6 {
		t.Fatalf("LastLSN = %d, want 6", s2.LastLSN())
	}
}

func TestTornTailTruncatedAndDropped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, SyncNever)
	for i := 0; i < 5; i++ {
		if err := s.Append(OpAcquire, uint32(i), uint64(1000+i), int64(i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Tear the final record: chop half of it off.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	info, _ := os.Stat(path)
	if err := os.Truncate(path, info.Size()-frameLen/2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	// ReadState, the read-only scan a checker runs beside a live store, sees
	// the same intact prefix and leaves the torn tail where it is.
	if _, tail, err := ReadState(dir); err != nil || len(tail) != 4 {
		t.Fatalf("ReadState: %d records, err %v; want the 4 intact ones", len(tail), err)
	}
	if after, err := os.Stat(path); err != nil || after.Size() != info.Size()-frameLen/2 {
		t.Fatalf("ReadState modified the torn segment (stat %v)", err)
	}

	s2 := openT(t, dir, SyncNever)
	defer s2.Close()
	_, tail := s2.Recovered()
	if len(tail) != 4 {
		t.Fatalf("replayed %d records, want 4 (torn final dropped)", len(tail))
	}
	if c := s2.Counters(); c.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", c.TornTails)
	}
	// New appends after the truncation must be reachable on the next replay.
	if err := s2.Append(OpAcquire, 9, 9000, 9); err != nil {
		t.Fatalf("append after torn open: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s3 := openT(t, dir, SyncNever)
	defer s3.Close()
	_, tail3 := s3.Recovered()
	if len(tail3) != 5 {
		t.Fatalf("replayed %d records after re-append, want 5", len(tail3))
	}
}

func TestCheckpointTruncatesAndReplays(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, SyncNever)
	for i := 0; i < 8; i++ {
		if err := s.Append(OpAcquire, uint32(i), uint64(100+i), 0); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	last, err := s.BeginCheckpoint()
	if err != nil {
		t.Fatalf("BeginCheckpoint: %v", err)
	}
	snap := &Snapshot{Partition: 2, Epoch: 5, LastLSN: last, TokenSeq: 42,
		Words: []uint64{0xFF}, Sessions: make([]Session, 0, 8)}
	for i := 0; i < 8; i++ {
		snap.Sessions = append(snap.Sessions, Session{Name: uint32(i), Token: uint64(100 + i)})
	}
	if err := s.CompleteCheckpoint(snap); err != nil {
		t.Fatalf("CompleteCheckpoint: %v", err)
	}
	// Post-checkpoint records land in the new segment.
	if err := s.Append(OpRelease, 3, 103, 0); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("segments after checkpoint = %v, want exactly the open one", segs)
	}

	s2 := openT(t, dir, SyncNever)
	defer s2.Close()
	snap2, tail := s2.Recovered()
	if snap2 == nil || snap2.Epoch != 5 || snap2.TokenSeq != 42 || snap2.Partition != 2 {
		t.Fatalf("snapshot = %+v", snap2)
	}
	if len(snap2.Words) != 1 || snap2.Words[0] != 0xFF {
		t.Fatalf("words = %v", snap2.Words)
	}
	sessions, _ := Fold(snap2, tail)
	sortSessions(sessions)
	if len(sessions) != 7 {
		t.Fatalf("sessions = %+v, want 7 (release folded)", sessions)
	}
	for _, sess := range sessions {
		if sess.Name == 3 {
			t.Fatalf("name 3 still held after released record replayed")
		}
	}
}

func TestCleanSnapshotSkipsTailAndClearsMarker(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, SyncNever)
	if err := s.Append(OpAcquire, 1, 11, 0); err != nil {
		t.Fatalf("append: %v", err)
	}
	last, err := s.BeginCheckpoint()
	if err != nil {
		t.Fatalf("BeginCheckpoint: %v", err)
	}
	snap := &Snapshot{LastLSN: last, Clean: true,
		Sessions: []Session{{Name: 1, Token: 11}}}
	if err := s.CompleteCheckpoint(snap); err != nil {
		t.Fatalf("CompleteCheckpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2 := openT(t, dir, SyncNever)
	snap2, tail := s2.Recovered()
	if snap2 == nil || !snap2.Clean == true && snap2.Clean {
		t.Fatalf("snapshot missing")
	}
	if len(tail) != 0 {
		t.Fatalf("clean snapshot must skip the tail, got %d records", len(tail))
	}
	// The marker must be cleared on reopen so post-restart appends are not
	// skipped by the NEXT replay.
	if err := s2.Append(OpAcquire, 2, 22, 0); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s3 := openT(t, dir, SyncNever)
	defer s3.Close()
	snap3, tail3 := s3.Recovered()
	if snap3 == nil || snap3.Clean {
		t.Fatalf("clean marker not cleared on reopen: %+v", snap3)
	}
	if len(tail3) != 1 || tail3[0].Name != 2 {
		t.Fatalf("post-restart append lost: tail = %+v", tail3)
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, SyncAlways)
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Append(OpAcquire, uint32(i), uint64(i+1), 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	c := s.Counters()
	if c.Appends != n {
		t.Fatalf("Appends = %d, want %d", c.Appends, n)
	}
	if c.Syncs >= n {
		t.Logf("no group-commit coalescing observed (syncs=%d); legal but unexpected", c.Syncs)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2 := openT(t, dir, SyncNever)
	defer s2.Close()
	_, tail := s2.Recovered()
	if len(tail) != n {
		t.Fatalf("replayed %d, want %d", len(tail), n)
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SyncInterval, time.Millisecond)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Append(OpAcquire, 1, 11, 0); err != nil {
		t.Fatalf("append: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Counters().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("interval sync never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
