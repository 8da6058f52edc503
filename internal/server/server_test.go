package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/shard"
	"github.com/levelarray/levelarray/internal/wal"
)

// newTestService starts an httptest service over a fresh manager.
func newTestService(t *testing.T, capacity int, tick time.Duration) (*httptest.Server, *lease.Manager) {
	t.Helper()
	arr := core.MustNew(core.Config{Capacity: capacity})
	mgr := lease.MustNewManager(arr, lease.Config{TickInterval: tick})
	mgr.Start()
	srv := httptest.NewServer(New(mgr, Config{DefaultTTL: time.Second}))
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return srv, mgr
}

func TestAcquireRenewReleaseOverHTTP(t *testing.T) {
	srv, _ := newTestService(t, 8, 10*time.Millisecond)
	c := NewClient(srv.URL, srv.Client())

	l, status, _, err := c.Acquire(5000)
	if err != nil || status != http.StatusOK {
		t.Fatalf("acquire: status %d err %v", status, err)
	}
	if l.DeadlineUnixMillis == 0 {
		t.Fatal("finite lease must report a deadline")
	}

	renewed, status, err := c.Renew(l.Name, l.Token, 5000)
	if err != nil || status != http.StatusOK {
		t.Fatalf("renew: status %d err %v", status, err)
	}
	if renewed.DeadlineUnixMillis < l.DeadlineUnixMillis {
		t.Fatalf("renewed deadline %d before original %d", renewed.DeadlineUnixMillis, l.DeadlineUnixMillis)
	}

	if status, err = c.Release(l.Name, l.Token); err != nil || status != http.StatusOK {
		t.Fatalf("release: status %d err %v", status, err)
	}
	// A released token is stale: both follow-ups must bounce with 409.
	if _, status, _ = c.Renew(l.Name, l.Token, 5000); status != http.StatusConflict {
		t.Fatalf("stale renew status = %d, want 409", status)
	}
	if status, _ = c.Release(l.Name, l.Token); status != http.StatusConflict {
		t.Fatalf("stale release status = %d, want 409", status)
	}
}

func TestInfiniteTTLOverHTTP(t *testing.T) {
	srv, _ := newTestService(t, 8, 10*time.Millisecond)
	c := NewClient(srv.URL, srv.Client())
	l, status, _, err := c.Acquire(-1)
	if err != nil || status != http.StatusOK {
		t.Fatalf("acquire: status %d err %v", status, err)
	}
	if l.DeadlineUnixMillis != 0 {
		t.Fatalf("infinite lease deadline = %d, want 0", l.DeadlineUnixMillis)
	}
	if status, err = c.Release(l.Name, l.Token); err != nil || status != http.StatusOK {
		t.Fatalf("release: status %d err %v", status, err)
	}
}

func TestFullNamespaceReturns503(t *testing.T) {
	srv, mgr := newTestService(t, 1, 10*time.Millisecond)
	c := NewClient(srv.URL, srv.Client())
	for i := 0; i < mgr.Size(); i++ {
		if _, status, _, err := c.Acquire(-1); err != nil || status != http.StatusOK {
			t.Fatalf("acquire %d: status %d err %v", i, status, err)
		}
	}
	if _, status, _, _ := c.Acquire(-1); status != http.StatusServiceUnavailable {
		t.Fatalf("acquire on full namespace status = %d, want 503", status)
	}
}

func TestCollectAndStatsEndpoints(t *testing.T) {
	srv, _ := newTestService(t, 8, 10*time.Millisecond)
	c := NewClient(srv.URL, srv.Client())
	l, _, _, err := c.Acquire(5000)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}

	resp, err := srv.Client().Get(srv.URL + "/collect")
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	var collected CollectResponse
	if err := json.NewDecoder(resp.Body).Decode(&collected); err != nil {
		t.Fatalf("decoding collect: %v", err)
	}
	resp.Body.Close()
	if collected.Count != 1 || len(collected.Names) != 1 || collected.Names[0] != l.Name {
		t.Fatalf("collect = %+v, want just name %d", collected, l.Name)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Lease.Active != 1 || stats.Lease.Acquires != 1 {
		t.Fatalf("stats.Lease = %+v", stats.Lease)
	}
	if stats.TickMillis != 10 {
		t.Fatalf("stats.TickMillis = %d, want 10", stats.TickMillis)
	}
	if stats.Capacity != 8 {
		t.Fatalf("stats.Capacity = %d, want 8", stats.Capacity)
	}
}

func TestStatsReportsShards(t *testing.T) {
	arr := shard.MustNew(shard.Config{Shards: 4, Capacity: 32})
	mgr := lease.MustNewManager(arr, lease.Config{TickInterval: 10 * time.Millisecond})
	srv := httptest.NewServer(New(mgr, Config{}))
	defer srv.Close()
	defer mgr.Close()
	c := NewClient(srv.URL, srv.Client())
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(stats.Shards) != 4 {
		t.Fatalf("stats.Shards has %d entries, want 4", len(stats.Shards))
	}
}

func TestBadRequests(t *testing.T) {
	srv, _ := newTestService(t, 8, 10*time.Millisecond)
	for _, tc := range []struct {
		method, path, body string
		epoch              string // X-Cluster-Epoch header, "" for none
		wantStatus         int
	}{
		{"POST", "/acquire", "{not json", "", http.StatusBadRequest},
		{"POST", "/acquire", `{"surprise": 1}`, "", http.StatusBadRequest},
		{"POST", "/acquire", `{"ttl_ms": 1000}`, "not-a-number", http.StatusBadRequest},
		{"POST", "/renew", `{"name": -5, "token": 1}`, "", http.StatusConflict},
		{"POST", "/release", `{"name": 999999, "token": 1}`, "", http.StatusConflict},
		{"GET", "/acquire", "", "", http.StatusMethodNotAllowed},
		{"POST", "/collect", "", "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		if tc.epoch != "" {
			req.Header.Set(EpochHeader, tc.epoch)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s %q: status %d, want %d", tc.method, tc.path, tc.body, resp.StatusCode, tc.wantStatus)
		}
	}
}

func TestGracefulShutdown(t *testing.T) {
	arr := core.MustNew(core.Config{Capacity: 8})
	mgr := lease.MustNewManager(arr, lease.Config{TickInterval: 10 * time.Millisecond})
	mgr.Start()
	srv := New(mgr, Config{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, addr) }()

	c := NewClient("http://"+addr, nil)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, _, err := c.Acquire(-1); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service did not come up within 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v on graceful shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	if _, err := mgr.Acquire(0); err != lease.ErrClosed {
		t.Fatalf("manager not closed after shutdown: %v", err)
	}
}

// TestLoadgenLoopbackSmoke is the in-process version of the CI service-smoke
// job: a closed-loop run with a 10% crash fraction over HTTP loopback whose
// report must be violation-free — zero duplicate names among concurrently
// held leases, no early reissues, no lost releases, every abandoned lease
// reclaimed (and its token fenced) within two expirer ticks. The full
// >= 100k-op acceptance run lives in CI via cmd/laload; this keeps a scaled
// version in `go test` so regressions fail fast locally.
func TestLoadgenLoopbackSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback load run in -short mode")
	}
	acquires := int64(3000)
	arr := shard.MustNew(shard.Config{Shards: 4, Capacity: 1024})
	mgr := lease.MustNewManager(arr, lease.Config{TickInterval: 20 * time.Millisecond})
	mgr.Start()
	srv := httptest.NewServer(New(mgr, Config{DefaultTTL: time.Second}))
	defer srv.Close()
	defer mgr.Close()

	report, err := RunLoad(LoadConfig{
		API:          NewClient(srv.URL, nil),
		Clients:      8,
		Acquires:     acquires,
		TTL:          300 * time.Millisecond,
		HoldMean:     200 * time.Microsecond,
		CrashPercent: 10,
		RenewPercent: 20,
		Seed:         42,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("load run violated the lease contract: %v\nreport: %+v", v, report)
	}
	if report.Acquires != uint64(acquires) {
		t.Fatalf("completed %d acquires, want %d", report.Acquires, acquires)
	}
	if report.Crashes == 0 || report.Renews == 0 {
		t.Fatalf("scenario did not exercise crashes/renews: %+v", report)
	}
	if report.StaleRejected == 0 {
		t.Fatal("no stale-token probes were verified")
	}
	t.Logf("ops=%d (%.0f ops/s) p50=%v p99=%v crashes=%d stale-rejected=%d",
		report.Ops(), report.Throughput(), report.AcquireP50, report.AcquireP99,
		report.Crashes, report.StaleRejected)
}

// TestLoadThroughputCountsOnlyTheWindow abandons every lease, so every
// stale-token probe waits out its lease's TTL and completes after the last
// client does: the throughput counts the acquires inside the timed window
// and none of the probes.
func TestLoadThroughputCountsOnlyTheWindow(t *testing.T) {
	srv, _ := newTestService(t, 64, 10*time.Millisecond)
	report, err := RunLoad(LoadConfig{
		API:          NewClient(srv.URL, nil),
		Clients:      2,
		Acquires:     20,
		TTL:          time.Second,
		CrashPercent: 100,
		ReclaimSlack: 50 * time.Millisecond,
		Seed:         3,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("violations: %v", v)
	}
	if report.StaleRejected == 0 || report.Elapsed >= time.Second {
		t.Fatalf("want stale-token probes after a window shorter than the TTL: %+v", report)
	}
	if got, want := report.Throughput(), float64(report.Acquires)/report.Elapsed.Seconds(); got != want {
		t.Fatalf("throughput %.0f ops/s, want %.0f: %d acquires in %v, %d probes after it",
			got, want, report.Acquires, report.Elapsed, report.StaleRejected)
	}
}

// brokenService is a minimal in-memory lease service with one planted
// fault: names are the lowest free of eight, tokens count up, and a lease
// expires at its TTL, reaped lazily on every request.
type brokenService struct {
	fault string

	mu          sync.Mutex
	held        map[int]brokenLease
	token       uint64
	expirations uint64
}

type brokenLease struct {
	token   uint64
	expires time.Time
}

func (b *brokenService) reap(now time.Time) {
	for name, l := range b.held {
		if now.After(l.expires) {
			delete(b.held, name)
			b.expirations++
		}
	}
}

func (b *brokenService) handler() http.Handler {
	lock := func(w http.ResponseWriter, r *http.Request, req any) (time.Time, bool) {
		if r.Method == http.MethodPost && !DecodeJSON(w, r, req, maxBodyBytes) {
			return time.Time{}, false
		}
		b.mu.Lock()
		now := time.Now()
		b.reap(now)
		return now, true
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /acquire", func(w http.ResponseWriter, r *http.Request) {
		var req AcquireRequest
		now, ok := lock(w, r, &req)
		if !ok {
			return
		}
		defer b.mu.Unlock()
		ttl := time.Duration(req.TTLMillis) * time.Millisecond
		name := -1
		for n := 0; n < 8 && name < 0; n++ {
			if _, taken := b.held[n]; !taken {
				name = n
			}
		}
		if b.fault == "constant name" {
			name = 7
		}
		if name < 0 {
			WriteUnavailable(w, ErrCodeFull, 10*time.Millisecond)
			return
		}
		b.token++
		l := brokenLease{token: b.token, expires: now.Add(ttl)}
		deadline := now.Add(ttl)
		switch b.fault {
		case "token regression":
			l.token = 1<<32 - b.token
		case "early reissue":
			l.expires = now.Add(ttl / 10)
		case "short deadline":
			deadline = now.Add(ttl / 2)
		}
		b.held[name] = l
		WriteJSON(w, http.StatusOK, LeaseResponse{Name: name, Token: l.token, DeadlineUnixMillis: deadline.UnixMilli()})
	})
	mux.HandleFunc("POST /renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		now, ok := lock(w, r, &req)
		if !ok {
			return
		}
		defer b.mu.Unlock()
		if l, held := b.held[req.Name]; held && l.token == req.Token {
			l.expires = now.Add(time.Duration(req.TTLMillis) * time.Millisecond)
			b.held[req.Name] = l
		} else if b.fault != "stale accepted" {
			WriteError(w, http.StatusConflict, ErrCodeStaleToken)
			return
		}
		WriteJSON(w, http.StatusOK, LeaseResponse{Name: req.Name, Token: req.Token,
			DeadlineUnixMillis: now.Add(time.Duration(req.TTLMillis) * time.Millisecond).UnixMilli()})
	})
	mux.HandleFunc("POST /release", func(w http.ResponseWriter, r *http.Request) {
		var req ReleaseRequest
		if _, ok := lock(w, r, &req); !ok {
			return
		}
		defer b.mu.Unlock()
		l, held := b.held[req.Name]
		live := held && l.token == req.Token
		if live {
			delete(b.held, req.Name)
		}
		if b.fault == "lost release" || (!live && b.fault != "stale accepted") {
			WriteError(w, http.StatusConflict, ErrCodeStaleToken)
			return
		}
		WriteJSON(w, http.StatusOK, ReleaseResponse{Released: true})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		lock(w, r, nil)
		defer b.mu.Unlock()
		WriteJSON(w, http.StatusOK, StatsResponse{TickMillis: 10,
			Lease: lease.Stats{Active: int64(len(b.held)), Expirations: b.expirations}})
	})
	return mux
}

// TestLoadgenDetectsViolations feeds the verifier services that each break
// one clause of the lease contract, and asserts the ledger catches every
// one: the smoke tests are only as good as their ability to fail.
func TestLoadgenDetectsViolations(t *testing.T) {
	for _, tc := range []struct {
		fault   string
		hold    time.Duration // overlapping holds expose a constant name
		crash   int           // abandoned leases expose reissue and fencing faults
		counter func(LoadReport) uint64
		names   string
	}{
		{"constant name", 2 * time.Millisecond, 0, func(r LoadReport) uint64 { return r.DuplicateNames }, "duplicate names"},
		{"early reissue", 0, 50, func(r LoadReport) uint64 { return r.EarlyReissues }, "reissued before"},
		{"short deadline", 0, 0, func(r LoadReport) uint64 { return r.ShortDeadlines }, "deadline short of"},
		{"token regression", 0, 0, func(r LoadReport) uint64 { return r.TokenRegressions }, "fencing token"},
		{"lost release", 0, 0, func(r LoadReport) uint64 { return r.LostReleases }, "lost release"},
		{"stale accepted", 0, 50, func(r LoadReport) uint64 { return r.StaleAccepted }, "stale-token operations accepted"},
	} {
		t.Run(strings.ReplaceAll(tc.fault, " ", "_"), func(t *testing.T) {
			srv := httptest.NewServer((&brokenService{fault: tc.fault, held: make(map[int]brokenLease)}).handler())
			defer srv.Close()
			report, err := RunLoad(LoadConfig{
				API:          NewClient(srv.URL, nil),
				Clients:      4,
				Acquires:     64,
				TTL:          300 * time.Millisecond,
				HoldMean:     tc.hold,
				CrashPercent: tc.crash,
				ReclaimSlack: 50 * time.Millisecond,
				Seed:         5,
			})
			if err != nil {
				t.Fatalf("RunLoad: %v", err)
			}
			if tc.counter(report) == 0 {
				t.Fatalf("verifier missed the %s: %+v", tc.fault, report)
			}
			if v := report.Violations(); !strings.Contains(strings.Join(v, "; "), tc.names) {
				t.Fatalf("Violations() %q does not name the %s", v, tc.fault)
			}
		})
	}
}

// TestClientHelpers exercises the typed client against error statuses.
func TestClientHelpers(t *testing.T) {
	srv, _ := newTestService(t, 2, 10*time.Millisecond)
	c := NewClient(srv.URL, nil)
	l, status, _, err := c.Acquire(0) // 0 selects the server default TTL
	if err != nil || status != http.StatusOK {
		t.Fatalf("acquire: status %d err %v", status, err)
	}
	if status, err = c.Release(l.Name, l.Token); err != nil || status != http.StatusOK {
		t.Fatalf("release: status %d err %v", status, err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats: %v", err)
	}
}

// TestFullResponseCarriesRetryAfter asserts a saturated acquire advertises
// its retry pacing in both the standard and millisecond-precision headers,
// and that the client surfaces it as the hint.
func TestFullResponseCarriesRetryAfter(t *testing.T) {
	tick := 30 * time.Millisecond
	srv, mgr := newTestService(t, 1, tick)
	c := NewClient(srv.URL, srv.Client())
	for i := 0; i < mgr.Size(); i++ {
		if _, status, _, err := c.Acquire(-1); err != nil || status != http.StatusOK {
			t.Fatalf("acquire %d: status %d err %v", i, status, err)
		}
	}

	resp, err := srv.Client().Post(srv.URL+"/acquire", "application/json", bytes.NewReader([]byte(`{"ttl_ms": -1}`)))
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q (tick rounded up to whole seconds)", got, "1")
	}
	if got := resp.Header.Get("X-Retry-After-Ms"); got != "30" {
		t.Fatalf("X-Retry-After-Ms = %q, want %q", got, "30")
	}
	if hint := RetryAfterHint(resp.Header, 0); hint != tick {
		t.Fatalf("RetryAfterHint = %v, want %v", hint, tick)
	}

	if _, status, hint, err := c.Acquire(-1); err != nil || status != http.StatusServiceUnavailable || hint != tick {
		t.Fatalf("client acquire: status %d hint %v err %v, want 503 hint %v", status, hint, err, tick)
	}
}

// failedJournal is a lease.Journal whose log has failed, as a wal.Store's
// has after a failed segment write or fsync: every append is refused.
type failedJournal struct{}

var errJournalFailed = fmt.Errorf("%w: fsync: %w", wal.ErrFailed, syscall.EIO)

func (failedJournal) Append(wal.Op, uint32, uint64, int64) error { return errJournalFailed }
func (failedJournal) AppendBatch([]wal.Record) error             { return errJournalFailed }
func (failedJournal) BeginCheckpoint() (uint64, error)           { return 0, errJournalFailed }
func (failedJournal) CompleteCheckpoint(*wal.Snapshot) error     { return errJournalFailed }
func (failedJournal) Recovered() (*wal.Snapshot, []wal.Record)   { return nil, nil }

// TestFailedJournalAnswersClosed pins the error table's wal.ErrFailed row: a
// manager whose WAL has failed grants nothing and answers 503 closed with
// the one-tick retry hint, exactly like a closed manager.
func TestFailedJournalAnswersClosed(t *testing.T) {
	tick := 30 * time.Millisecond
	arr := core.MustNew(core.Config{Capacity: 8})
	mgr := lease.MustNewManager(arr, lease.Config{TickInterval: tick, Journal: failedJournal{}})
	mgr.Start()
	defer mgr.Close()
	srv := httptest.NewServer(New(mgr, Config{DefaultTTL: time.Second}))
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/acquire", "application/json", strings.NewReader(`{"ttl_ms": 1000}`))
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer resp.Body.Close()
	var body ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding the error body: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || body.Error != "closed" {
		t.Fatalf("acquire on a failed journal: %d %q, want 503 \"closed\"", resp.StatusCode, body.Error)
	}
	if got := resp.Header.Get("X-Retry-After-Ms"); got != "30" {
		t.Fatalf("X-Retry-After-Ms = %q, want %q", got, "30")
	}
	if mgr.Active() != 0 {
		t.Fatalf("%d leases active after refused grants, want 0", mgr.Active())
	}
}

// TestRetryAfterHintFallbacks covers the header-parsing precedence.
func TestRetryAfterHintFallbacks(t *testing.T) {
	h := http.Header{}
	if got := RetryAfterHint(h, 42*time.Millisecond); got != 42*time.Millisecond {
		t.Fatalf("empty headers hint = %v, want fallback", got)
	}
	h.Set("Retry-After", "2")
	if got := RetryAfterHint(h, 0); got != 2*time.Second {
		t.Fatalf("seconds hint = %v, want 2s", got)
	}
	h.Set("X-Retry-After-Ms", "150")
	if got := RetryAfterHint(h, 0); got != 150*time.Millisecond {
		t.Fatalf("ms hint = %v, want 150ms", got)
	}
	h.Set("X-Retry-After-Ms", "garbage")
	if got := RetryAfterHint(h, 0); got != 2*time.Second {
		t.Fatalf("bad ms hint = %v, want 2s from Retry-After", got)
	}
}

// TestLeasesEndpointPaginates drives GET /leases through multiple pages and
// checks it lists exactly the active sessions.
func TestLeasesEndpointPaginates(t *testing.T) {
	srv, _ := newTestService(t, 16, 10*time.Millisecond)
	c := NewClient(srv.URL, srv.Client())

	granted := make(map[int]uint64)
	for i := 0; i < 6; i++ {
		l, status, _, err := c.Acquire(60_000)
		if err != nil || status != http.StatusOK {
			t.Fatalf("acquire: status %d err %v", status, err)
		}
		granted[l.Name] = l.Token
	}

	seen := make(map[int]SessionJSON)
	start := "0"
	for start != "" {
		resp, err := srv.Client().Get(srv.URL + "/leases?limit=2&start=" + start)
		if err != nil {
			t.Fatalf("GET /leases: %v", err)
		}
		var page LeasesResponse
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatalf("decode: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /leases status = %d", resp.StatusCode)
		}
		if page.Active != len(granted) {
			t.Fatalf("active = %d, want %d", page.Active, len(granted))
		}
		if len(page.Sessions) > 2 {
			t.Fatalf("page of %d exceeds limit 2", len(page.Sessions))
		}
		for _, s := range page.Sessions {
			if _, dup := seen[s.Name]; dup {
				t.Fatalf("name %d listed twice", s.Name)
			}
			seen[s.Name] = s
		}
		if page.Next == -1 {
			start = ""
		} else {
			start = fmt.Sprintf("%d", page.Next)
		}
	}

	if len(seen) != len(granted) {
		t.Fatalf("listed %d sessions, want %d", len(seen), len(granted))
	}
	for name, token := range granted {
		s, ok := seen[name]
		if !ok {
			t.Fatalf("granted name %d missing from /leases", name)
		}
		if s.Token != token {
			t.Fatalf("name %d token %d, want %d", name, s.Token, token)
		}
		if s.DeadlineUnixMillis == 0 {
			t.Fatalf("finite lease %d listed without deadline", name)
		}
	}

	// Malformed cursors are 400s, not panics.
	for _, q := range []string{"?start=-1", "?start=x", "?limit=0", "?limit=x"} {
		resp, err := srv.Client().Get(srv.URL + "/leases" + q)
		if err != nil {
			t.Fatalf("GET /leases%s: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /leases%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}
