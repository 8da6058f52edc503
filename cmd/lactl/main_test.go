package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/cluster"
	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/registry"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/wire"
)

func wireSource(t *testing.T, addr string) *source {
	t.Helper()
	src := &source{proto: registry.ProtoWire, base: addr, hc: &http.Client{Timeout: 5 * time.Second}, wire: map[string]*wire.Client{}}
	t.Cleanup(src.close)
	return src
}

// TestWireReadsOfStandaloneNeedHTTP: a standalone laserve serves no
// membership table, so under -proto wire lactl cannot learn the HTTP
// address its metrics, trace and events reads need; each fails saying to
// use -proto http rather than reading HTTP from the wire port.
func TestWireReadsOfStandaloneNeedHTTP(t *testing.T) {
	mgr := lease.MustNewManager(core.MustNew(core.Config{Capacity: 64}), lease.Config{TickInterval: 10 * time.Millisecond})
	mgr.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := wire.NewServer(server.NewWireBackend(mgr, server.Config{}))
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		mgr.Close()
	})
	src := wireSource(t, ln.Addr().String())

	for name, read := range map[string]func() error{
		"metrics": func() error { return runMetrics(src, true) },
		"trace":   func() error { return runTrace(src, 10) },
		"events":  func() error { return runEvents(src, 10, "") },
	} {
		err := read()
		if err == nil || !strings.Contains(err.Error(), "-proto http") || strings.Contains(err.Error(), "http://"+src.base) {
			t.Errorf("%s over wire against a standalone: %v, want an error that asks for -proto http", name, err)
		}
	}
}

// TestJoinHintNamesStewardHTTPAddr: a join sent over wire prints a boot
// hint whose -join is the steward's HTTP base URL, not the wire host:port
// lactl was pointed at.
func TestJoinHintNamesStewardHTTPAddr(t *testing.T) {
	l, err := cluster.StartLocal(cluster.LocalConfig{Nodes: 1, Partitions: 1, Capacity: 64})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(l.Close)
	src := wireSource(t, l.WireTargets()[0])

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = runJoin(src, "http://127.0.0.1:9", "")
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatalf("join over wire: %v", err)
	}
	want := "laserve -join " + l.Targets()[0] + " -advertise http://127.0.0.1:9"
	if !strings.Contains(string(out), want) {
		t.Fatalf("join printed %q, want a hint containing %q", out, want)
	}
}
