package wal_test

// Durable-before-ack through the wire server's read batches: a batch's lease
// writes are applied and queued without waiting, and the codec answers them
// only after one WAL write and one fsync cover them all. Each test here fails
// if the codec answers before that barrier.

import (
	"bufio"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/metrics"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wal"
	"github.com/levelarray/levelarray/internal/wire"
)

// segWatch wraps every segment file a store opens: it records the records
// each write put in the file and how many of them the good fsyncs covered,
// and it can fail every fsync or hold the next one.
type segWatch struct {
	mu       sync.Mutex
	written  []wal.Record
	durable  int  // len(written) when the last good fsync began
	failSync bool // every fsync from now on fails with EIO
	hold     chan struct{}
	held     chan struct{}
}

func (w *segWatch) inject(t *testing.T) {
	wal.WrapSegments(t, func(s wal.Segment) wal.Segment { return &watchedFile{Segment: s, w: w} })
}

// holdNextSync makes the next fsync block until the returned release is
// called; held is closed once it blocks.
func (w *segWatch) holdNextSync() (held <-chan struct{}, release func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hold, w.held = make(chan struct{}), make(chan struct{})
	hold := w.hold
	return w.held, func() { close(hold) }
}

func (w *segWatch) failSyncs() {
	w.mu.Lock()
	w.failSync = true
	w.mu.Unlock()
}

// durableIndex returns the position of the first durable record matching
// op, name and token, or -1.
func (w *segWatch) durableIndex(op wal.Op, name uint32, token uint64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, r := range w.written[:w.durable] {
		if r.Op == op && r.Name == name && r.Token == token {
			return i
		}
	}
	return -1
}

type watchedFile struct {
	wal.Segment
	w *segWatch
}

func (f *watchedFile) Write(p []byte) (int, error) {
	n, err := f.Segment.Write(p)
	f.w.mu.Lock()
	f.w.written = append(f.w.written, wal.DecodeRecords(p[:n])...)
	f.w.mu.Unlock()
	return n, err
}

func (f *watchedFile) Sync() error {
	w := f.w
	w.mu.Lock()
	covered, fail, hold, held := len(w.written), w.failSync, w.hold, w.held
	w.hold = nil
	w.mu.Unlock()
	if hold != nil {
		close(held)
		<-hold
	}
	if fail {
		return syscall.EIO
	}
	if err := f.Segment.Sync(); err != nil {
		return err
	}
	w.mu.Lock()
	w.durable = max(w.durable, covered)
	w.mu.Unlock()
	return nil
}

// durableService is the standalone wire service over a SyncAlways store:
// server.WireBackend over a manager journaling to a wal.Store in dir, with
// metrics and a flight recorder keeping every span. The manager's expirer
// does not run, so no lease expires under a test.
type durableService struct {
	addr  string
	store *wal.Store
	ms    *server.Metrics
	rec   *trace.Recorder
	stop  func()
}

func startDurableService(t *testing.T, dir string, capacity int) *durableService {
	t.Helper()
	store, err := wal.Open(dir, wal.SyncAlways, 0)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	arr := core.MustNew(core.Config{Capacity: capacity, Seed: 7})
	mgr := lease.MustNewManager(arr, lease.Config{Journal: store})
	if _, err := mgr.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	ms := server.NewMetrics(metrics.NewRegistry())
	rec := trace.New(trace.Config{Enabled: true, SampleEvery: 1})
	srv := wire.NewServer(server.NewWireBackend(mgr, server.Config{Metrics: ms, Tracer: rec}))
	srv.SetTracer(rec)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			_ = srv.Close()
			mgr.Close()
			_ = store.Close() // a latched store reports its failure again
		})
	}
	t.Cleanup(stop)
	return &durableService{addr: ln.Addr().String(), store: store, ms: ms, rec: rec, stop: stop}
}

// rawConn speaks frames over one connection, so a test decides which frames
// share a socket write and therefore one server read batch.
type rawConn struct {
	t      *testing.T
	c      net.Conn
	r      *bufio.Reader
	nextID uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, r: bufio.NewReader(c)}
}

func acquireReq() wire.Request { return wire.Request{Op: wire.OpAcquire, TTLMillis: 600_000} }

func renewReq(g wire.Grant) wire.Request {
	return wire.Request{Op: wire.OpRenew, TTLMillis: 600_000, Items: []wire.Ref{{Name: g.Name, Token: g.Token}}}
}

func releaseReq(g wire.Grant) wire.Request {
	return wire.Request{Op: wire.OpRelease, Items: []wire.Ref{{Name: g.Name, Token: g.Token}}}
}

// send writes reqs with one socket write.
func (rc *rawConn) send(reqs ...wire.Request) {
	rc.t.Helper()
	var buf []byte
	for i := range reqs {
		rc.nextID++
		reqs[i].ID = rc.nextID
		buf = wire.AppendRequest(buf, &reqs[i])
	}
	if _, err := rc.c.Write(buf); err != nil {
		rc.t.Fatalf("write: %v", err)
	}
}

// recv reads one response frame.
func (rc *rawConn) recv() wire.Response {
	rc.t.Helper()
	resp, err := rc.tryRecv(10 * time.Second)
	if err != nil {
		rc.t.Fatalf("read response: %v", err)
	}
	return resp
}

// tryRecv reads one response frame, waiting at most d.
func (rc *rawConn) tryRecv(d time.Duration) (wire.Response, error) {
	var resp wire.Response
	_ = rc.c.SetReadDeadline(time.Now().Add(d))
	var hdr [wire.HeaderLen]byte
	if _, err := readFull(rc.r, hdr[:]); err != nil {
		return resp, err
	}
	h, err := wire.ParseHeader(hdr[:])
	if err != nil {
		return resp, err
	}
	payload := make([]byte, h.Len)
	if _, err := readFull(rc.r, payload); err != nil {
		return resp, err
	}
	return resp, wire.DecodeResponse(h, payload, &resp)
}

func readFull(r *bufio.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := r.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestWireBatchFailedFsyncAcknowledgesNothing: once the segment fsync fails,
// every write of a wire batch answers 503 closed, none answers 200, and no
// later write, batched or alone, is acknowledged. Each write is counted
// once in the op metrics, with the 503 it was finally answered.
func TestWireBatchFailedFsyncAcknowledgesNothing(t *testing.T) {
	w := &segWatch{}
	w.inject(t)
	svc := startDurableService(t, t.TempDir(), 64)
	rc := dialRaw(t, svc.addr)

	var held []wire.Grant
	for i := 0; i < 4; i++ {
		rc.send(acquireReq())
		resp := rc.recv()
		if resp.Status != wire.StatusOK {
			t.Fatalf("healthy acquire %d: status %d (%s)", i, resp.Status, resp.Code)
		}
		held = append(held, resp.Grants[0])
	}

	w.failSyncs()
	closedBefore := svc.ms.Unavailable(server.ErrCodeClosed).Value()
	batches := [][]wire.Request{
		{acquireReq(), acquireReq(), renewReq(held[0]), renewReq(held[1]), releaseReq(held[2]), releaseReq(held[3]), acquireReq(), acquireReq()},
		{acquireReq(), renewReq(held[0]), releaseReq(held[1])},
		{acquireReq()},
		{releaseReq(held[0])},
	}
	writes := 0
	for i, batch := range batches {
		rc.send(batch...)
		for j := range batch {
			resp := rc.recv()
			if resp.Status != wire.StatusUnavailable || resp.Code != wire.CodeClosed {
				t.Errorf("batch %d write %d (%v): status %d (%s), want 503 closed", i, j, batch[j].Op, resp.Status, resp.Code)
			}
		}
		writes += len(batch)
	}

	if got := svc.ms.Unavailable(server.ErrCodeClosed).Value() - closedBefore; got != uint64(writes) {
		t.Errorf("la_unavailable_total{code=closed} moved by %d, want one per write (%d)", got, writes)
	}
	ops := svc.ms.AcquireOps.Value() + svc.ms.RenewOps.Value() + svc.ms.ReleaseOps.Value()
	if ops != uint64(len(held)+writes) {
		t.Errorf("la_ops_total counts %d single-lease ops, want %d", ops, len(held)+writes)
	}
	if err := svc.store.Close(); !errors.Is(err, wal.ErrFailed) {
		t.Errorf("store close after the failed fsync: %v, want ErrFailed", err)
	}
}

// TestWireBatchCopyHoldsAcknowledged runs concurrent pipelined wire writes
// on a SyncAlways store while a copier copies the data directory at
// arbitrary moments. Every transition acknowledged before a copy began must
// be in the copy's log and take effect when the copy is folded in order.
func TestWireBatchCopyHoldsAcknowledged(t *testing.T) {
	dir := t.TempDir()
	svc := startDurableService(t, dir, 256)
	wc := wire.NewClient(svc.addr, &wire.ClientConfig{Conns: 2})
	defer wc.Close()
	client := server.NewWireClient(wc)

	type key struct {
		op    wal.Op
		name  uint32
		token uint64
	}
	var (
		mu    sync.Mutex
		acked []key
	)
	ack := func(k key) {
		mu.Lock()
		acked = append(acked, k)
		mu.Unlock()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var stopOnce sync.Once
	halt := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	defer halt()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l, status, _, err := client.Acquire(600_000)
				if err != nil || status != 200 {
					t.Errorf("acquire: status %d err %v", status, err)
					return
				}
				name, token := uint32(l.Name), l.Token
				ack(key{wal.OpAcquire, name, token})
				if _, status, err := client.Renew(l.Name, token, 600_000); err != nil || status != 200 {
					t.Errorf("renew: status %d err %v", status, err)
					return
				}
				ack(key{wal.OpRenew, name, token})
				if status, err := client.Release(l.Name, token); err != nil || status != 200 {
					t.Errorf("release: status %d err %v", status, err)
					return
				}
				ack(key{wal.OpRelease, name, token})
			}
		}()
	}

	copies := 0
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end) && !t.Failed(); copies++ {
		mu.Lock()
		want := append([]key(nil), acked...)
		mu.Unlock()
		cp := copyDir(t, dir)
		snap, tail, err := wal.ReadState(cp)
		if err != nil {
			t.Fatalf("ReadState of copy %d: %v", copies, err)
		}
		if snap != nil {
			t.Fatalf("copy %d has a snapshot; this test takes none", copies)
		}
		// Fold the copy in order under wal.Fold's rules, counting the
		// records that take effect.
		holder := map[uint32]uint64{}
		applied := map[key]int{}
		for _, r := range tail {
			cur, ok := holder[r.Name]
			switch {
			case r.Op == wal.OpAcquire:
				holder[r.Name] = r.Token
			case !ok || cur != r.Token:
				continue
			case r.Op == wal.OpRelease:
				delete(holder, r.Name)
			}
			applied[key{r.Op, r.Name, r.Token}]++
		}
		sessions, _ := wal.Fold(snap, tail)
		if len(sessions) != len(holder) {
			t.Fatalf("copy %d folds to %d sessions, the in-order replay to %d", copies, len(sessions), len(holder))
		}
		for _, k := range want {
			if applied[k] == 0 {
				t.Fatalf("copy %d: %v of name %d token %d was acknowledged before the copy began but takes no effect in it (%d records)",
					copies, k.op, k.name, k.token, len(tail))
			}
			applied[k]--
		}
		time.Sleep(time.Duration(copies%3) * time.Millisecond)
	}
	halt()
	if copies < 5 {
		t.Fatalf("only %d copies taken", copies)
	}
	if c := svc.store.Counters(); c.Appends <= c.Syncs {
		t.Logf("appends %d, fsyncs %d: the batches never shared an fsync", c.Appends, c.Syncs)
	}
}

// copyDir copies every file of dir into a fresh directory.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("copy %s: %v", e.Name(), err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), b, 0o644); err != nil {
			t.Fatalf("copy %s: %v", e.Name(), err)
		}
	}
	return out
}

// TestWireBatchReleaseBeforeReacquire fills a small namespace, so that a
// re-acquire can only get the name a release just freed, and checks both
// shapes of that pair. Deferred in one batch, and across two connections
// with the release's fsync held, the acquire is never answered before the
// release record is durable, and the log replays the release first.
func TestWireBatchReleaseBeforeReacquire(t *testing.T) {
	w := &segWatch{}
	w.inject(t)
	dir := t.TempDir()
	svc := startDurableService(t, dir, 8)
	a, b := dialRaw(t, svc.addr), dialRaw(t, svc.addr)
	b.nextID = 1 << 32 // b's request IDs, and so its spans' RIDs, differ from a's

	var held []wire.Grant
	for {
		a.send(acquireReq())
		resp := a.recv()
		if resp.Status == wire.StatusUnavailable && resp.Code == wire.CodeFull {
			break
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("fill: status %d (%s)", resp.Status, resp.Code)
		}
		held = append(held, resp.Grants[0])
	}
	if len(held) < 2 {
		t.Fatalf("namespace held %d names, want at least 2", len(held))
	}

	// answeredAfterRelease checks the re-acquire's answer against what was
	// durable when it arrived.
	answeredAfterRelease := func(shape string, old, got wire.Grant) {
		t.Helper()
		if got.Name != old.Name {
			t.Fatalf("%s: re-acquire got name %d, want the released %d (the only free one)", shape, got.Name, old.Name)
		}
		rel := w.durableIndex(wal.OpRelease, uint32(old.Name), old.Token)
		acq := w.durableIndex(wal.OpAcquire, uint32(got.Name), got.Token)
		if rel < 0 || acq < 0 || rel > acq {
			t.Fatalf("%s: re-acquire answered with release at %d and acquire at %d of the durable log (-1: not durable)", shape, rel, acq)
		}
	}

	// One batch: the release and the re-acquire share a socket write.
	x := held[0]
	a.send(releaseReq(x), acquireReq())
	if resp := a.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("batched release: status %d (%s)", resp.Status, resp.Code)
	}
	resp := a.recv()
	if resp.Status != wire.StatusOK {
		t.Fatalf("batched re-acquire: status %d (%s)", resp.Status, resp.Code)
	}
	newX := resp.Grants[0]
	answeredAfterRelease("one batch", x, newX)

	// Two connections: the release's flush is written but its fsync held
	// while the other connection re-acquires the name.
	y := held[1]
	syncHeld, release := w.holdNextSync()
	a.send(releaseReq(y))
	select {
	case <-syncHeld:
	case <-time.After(10 * time.Second):
		t.Fatal("the release's fsync never started")
	}
	_, _, latBefore := svc.ms.AcquireLatency.Snapshot()
	b.send(acquireReq())
	const holdFor = 100 * time.Millisecond
	if resp, err := b.tryRecv(holdFor); err == nil {
		release()
		t.Fatalf("re-acquire answered (status %d) while the release's fsync was held", resp.Status)
	}
	release()
	if resp := a.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("release: status %d (%s)", resp.Status, resp.Code)
	}
	resp = b.recv()
	if resp.Status != wire.StatusOK {
		t.Fatalf("cross-connection re-acquire: status %d (%s)", resp.Status, resp.Code)
	}
	newY := resp.Grants[0]
	answeredAfterRelease("two connections", y, newY)
	if _, _, latAfter := svc.ms.AcquireLatency.Snapshot(); latAfter-latBefore < holdFor {
		t.Errorf("re-acquire latency observed as %v, want its barrier wait (>= %v) included", latAfter-latBefore, holdFor)
	}
	// The server records a span just after flushing its answer, so the
	// span may land a moment after the answer does.
	rid := wire.RIDString(b.nextID)
	var span *trace.Span
	for end := time.Now().Add(5 * time.Second); span == nil && time.Now().Before(end); time.Sleep(time.Millisecond) {
		for _, sp := range svc.rec.Spans() {
			if sp.RID == rid {
				span = &sp
			}
		}
	}
	if span == nil {
		t.Errorf("no span recorded for the re-acquire %s", rid)
	} else if wait := time.Duration(span.PhaseNanos[trace.PhaseFsyncWait]); wait < holdFor {
		t.Errorf("re-acquire span carries %v of fsync-wait, want its barrier wait (>= %v)", wait, holdFor)
	}

	// Replay: each release precedes its re-acquire, and the new tokens hold.
	svc.stop()
	store, err := wal.Open(dir, wal.SyncAlways, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store.Close()
	snap, tail := store.Recovered()
	pos := func(op wal.Op, g wire.Grant) int {
		for i, r := range tail {
			if r.Op == op && r.Name == uint32(g.Name) && r.Token == g.Token {
				return i
			}
		}
		return -1
	}
	for _, p := range [][2]wire.Grant{{x, newX}, {y, newY}} {
		if rel, acq := pos(wal.OpRelease, p[0]), pos(wal.OpAcquire, p[1]); rel < 0 || rel > acq {
			t.Errorf("replay of name %d: release at %d, re-acquire at %d", p[0].Name, rel, acq)
		}
	}
	sessions, _ := wal.Fold(snap, tail)
	holders := map[uint32]uint64{}
	for _, s := range sessions {
		holders[s.Name] = s.Token
	}
	for _, g := range []wire.Grant{newX, newY} {
		if holders[uint32(g.Name)] != g.Token {
			t.Errorf("replayed holder of name %d is token %d, want %d", g.Name, holders[uint32(g.Name)], g.Token)
		}
	}
}
