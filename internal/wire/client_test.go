package wire

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientCallTimeoutBounded: a call that waits out CallTimeout fails no
// later than 2x CallTimeout. Each call lands on a freshly dialed connection
// right after its watchdog started, so it is issued just after one watchdog
// tick, the latest phase the watchdog allows (about 1.25x).
func TestClientCallTimeoutBounded(t *testing.T) {
	addr := silentPeer(t)
	const timeout = 200 * time.Millisecond
	cl := NewClient(addr, &ClientConfig{CallTimeout: timeout})
	defer cl.Close()

	for i := 1; i <= 3; i++ {
		req := Request{Op: OpPing}
		var resp Response
		start := time.Now()
		err := cl.Do(&req, &resp)
		took := time.Since(start)
		if err == nil || !strings.Contains(err.Error(), "call timeout") {
			t.Fatalf("call %d: Do = %v, want a call timeout", i, err)
		}
		if took < timeout || took >= 2*timeout {
			t.Fatalf("call %d timed out after %v, want within [%v, %v)", i, took, timeout, 2*timeout)
		}
	}
}

// answerAllBut accepts connections and answers every request frame 1ms
// after reading it, except the frames skip selects, which it never answers.
func answerAllBut(t *testing.T, skip func(Header) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	var wg sync.WaitGroup
	serve := func(nc net.Conn) {
		defer wg.Done()
		type due struct {
			h  Header
			at time.Time
		}
		// Sized past the frames the test's callers can have in flight, so
		// the reader never waits on the answering goroutine.
		queue := make(chan due, 1024)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []byte
			for d := range queue {
				time.Sleep(time.Until(d.at))
				out = AppendResponse(out[:0], d.h.Op, d.h.ID, &Response{Status: StatusOK})
				if _, err := nc.Write(out); err != nil {
					return
				}
			}
		}()
		defer close(queue)
		var hdr [HeaderLen]byte
		payload := make([]byte, MaxPayload)
		for {
			if _, err := io.ReadFull(nc, hdr[:]); err != nil {
				return
			}
			h, err := ParseHeader(hdr[:])
			if err != nil {
				return
			}
			if _, err := io.ReadFull(nc, payload[:h.Len]); err != nil {
				return
			}
			if !skip(h) {
				queue <- due{h, time.Now().Add(time.Millisecond)}
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			wg.Add(1)
			go serve(nc)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestClientTimeoutIsPerCall: the peer answers every frame but one, so the
// connection never goes quiet. The unanswered call still times out within
// [CallTimeout, 2x CallTimeout) and takes its connection down, failing the
// calls still pending on it with the same error, while the calls answered
// before it returned normally.
func TestClientTimeoutIsPerCall(t *testing.T) {
	addr := answerAllBut(t, func(h Header) bool { return h.Op == OpPing })
	const timeout = 200 * time.Millisecond
	cl := NewClient(addr, &ClientConfig{Conns: 1, CallTimeout: timeout})
	defer cl.Close()

	warm := Request{Op: OpCollect}
	var warmResp Response
	if err := cl.Do(&warm, &warmResp); err != nil {
		t.Fatalf("first call: %v", err)
	}

	stop := make(chan struct{})
	var answered atomic.Int64
	var lastAnswer atomic.Int64 // UnixNano of the latest answered call
	const callers = 4
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var req Request
			var resp Response
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				req = Request{Op: OpCollect}
				if err := cl.Do(&req, &resp); err != nil {
					errs <- err
					return
				}
				answered.Add(1)
				lastAnswer.Store(time.Now().UnixNano())
			}
		}()
	}

	// Stop the callers even if the unanswered call never returns.
	deadline := time.AfterFunc(3*timeout, func() { close(stop) })
	req := Request{Op: OpPing}
	var resp Response
	start := time.Now()
	err := cl.Do(&req, &resp)
	took := time.Since(start)
	if deadline.Stop() {
		close(stop)
	}
	wg.Wait()
	close(errs)

	if err == nil || !strings.Contains(err.Error(), "call timeout") {
		t.Fatalf("unanswered call: Do = %v after %v, want a call timeout", err, took)
	}
	if took < timeout || took >= 2*timeout {
		t.Fatalf("unanswered call timed out after %v, want within [%v, %v)", took, timeout, 2*timeout)
	}
	if busy := time.Duration(lastAnswer.Load() - start.UnixNano()); busy < timeout/2 {
		t.Fatalf("the last answered call returned %v into the unanswered call's wait, want >= %v: the connection went quiet", busy, timeout/2)
	}
	failed := 0
	for err := range errs {
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "call timeout") {
			t.Fatalf("a caller failed with %v, want only the connection's call timeout", err)
		}
		failed++
	}
	if failed == 0 {
		t.Fatalf("no call pending on the timed-out connection failed with it (%d answered)", answered.Load())
	}
	t.Logf("answered %d calls during the wait; %d pending calls failed with the connection", answered.Load(), failed)
}

// wireLoops counts the goroutines running a connection's reader, writer or
// watchdog.
func wireLoops() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, fn := range []string{"(*conn).readLoop(", "(*conn).writeLoop(", "(*conn).watchdog("} {
			if strings.Contains(g, fn) {
				count++
				break
			}
		}
	}
	return count
}

// TestClientCloseWaitsForWatchdog: each pooled connection runs a reader, a
// writer and a watchdog, and Close returns only once all three have exited.
func TestClientCloseWaitsForWatchdog(t *testing.T) {
	_, addr := startTestServer(t, &echoBackend{})
	before := wireLoops()
	cl := NewClient(addr, &ClientConfig{Conns: 2})
	for range 2 {
		req := Request{Op: OpPing}
		var resp Response
		if err := cl.Do(&req, &resp); err != nil {
			t.Fatalf("ping: %v", err)
		}
	}
	if got := wireLoops() - before; got != 6 {
		t.Fatalf("%d connection goroutines with both slots dialed, want 6 (reader, writer and watchdog per connection)", got)
	}
	cl.Close()
	if got := wireLoops() - before; got != 0 {
		t.Fatalf("%d connection goroutines still running after Close returned", got)
	}
}

// TestClientBackoffLendsToLiveSibling: with two pooled connections, one slot
// redials while the server is down and enters a long backoff window; the
// other redials after the server came back on the same port. Every later
// call succeeds: a call on the slot in backoff goes to its live sibling
// instead of failing with ErrDialBackoff.
func TestClientBackoffLendsToLiveSibling(t *testing.T) {
	backend := &echoBackend{}
	srv1, addr := startTestServer(t, backend)
	cl := NewClient(addr, &ClientConfig{Conns: 2, RedialBackoff: 10 * time.Second, RedialBackoffMax: 10 * time.Second})
	defer cl.Close()
	ping := func() error {
		req := Request{Op: OpPing}
		var resp Response
		return cl.Do(&req, &resp)
	}
	for range 2 {
		if err := ping(); err != nil {
			t.Fatalf("ping: %v", err)
		}
	}

	_ = srv1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range cl.slots {
		for cn := s.c.Load(); !cn.dead.Load(); {
			if time.Now().After(deadline) {
				t.Fatal("a connection outlived its server by 5s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := ping(); err == nil || errors.Is(err, ErrDialBackoff) {
		t.Fatalf("redial with the server down: %v, want a dial error", err)
	}

	var ln net.Listener
	var err error
	for range 50 {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := NewServer(backend)
	go func() { _ = srv2.Serve(ln) }()
	defer srv2.Close()

	if err := ping(); err != nil {
		t.Fatalf("the other slot's redial: %v", err)
	}
	for i := range 10 {
		if err := ping(); err != nil {
			t.Fatalf("call %d after the server came back: %v", i, err)
		}
	}
	if c := cl.Counters(); c.Backoffs != 0 || c.Dials != 3 {
		t.Fatalf("Backoffs = %d, Dials = %d; want 0 and 3", c.Backoffs, c.Dials)
	}
}
