package cluster

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startHalfRequest opens a connection to member 0's HTTP listener and sends
// an acquire whose body stops after its first byte. It returns once the
// member has read the request head, so the member's handler stays in flight
// until send is called with the rest.
func startHalfRequest(t *testing.T, l *Local) (nc net.Conn, send func()) {
	t.Helper()
	nc, err := net.Dial("tcp", strings.TrimPrefix(l.Targets()[0], "http://"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	body := `{"ttl_ms": 1000}`
	if _, err := fmt.Fprintf(nc, "POST /acquire HTTP/1.1\r\nHost: member\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:1]); err != nil {
		t.Fatalf("write request head: %v", err)
	}
	member := l.snapshot()[0]
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		member.connMu.Lock()
		active := false
		for c, st := range member.conns {
			active = active || (st == http.StateActive && c.RemoteAddr().String() == nc.LocalAddr().String())
		}
		member.connMu.Unlock()
		if active {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the member never read the request head")
		}
	}
	return nc, func() {
		if _, err := nc.Write([]byte(body[1:])); err != nil {
			t.Fatalf("write request body: %v", err)
		}
	}
}

// returnsWithin runs fn and reports whether it returned within d; the
// returned channel closes when it does.
func returnsWithin(fn func(), d time.Duration) (bool, chan struct{}) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return true, done
	case <-time.After(d):
		return false, done
	}
}

// TestLocalCloseWaitsForHandlers: Close returns only after the member's
// in-flight HTTP handlers have returned, so none can act (or log through a
// finished test) after it; Kill stays abrupt.
func TestLocalCloseWaitsForHandlers(t *testing.T) {
	start := func() *Local {
		l, err := StartLocal(LocalConfig{Nodes: 1, Partitions: 1, Capacity: 64, Node: NodeConfig{Logf: t.Logf}})
		if err != nil {
			t.Fatalf("StartLocal: %v", err)
		}
		t.Cleanup(l.Close)
		return l
	}

	l := start()
	nc, send := startHalfRequest(t, l)
	early, closed := returnsWithin(l.Close, 300*time.Millisecond)
	if early {
		t.Fatal("Close returned while an acquire handler was still reading its body")
	}
	send()
	resp, err := http.ReadResponse(bufio.NewReader(nc), nil)
	if err != nil {
		t.Fatalf("read the in-flight acquire's response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight acquire answered %d during Close, want 200", resp.StatusCode)
	}
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close still waiting after its last handler returned")
	}

	l = start()
	startHalfRequest(t, l)
	if killed, _ := returnsWithin(func() { l.Kill(0) }, 2*time.Second); !killed {
		t.Fatal("Kill waited for an in-flight handler")
	}
}
