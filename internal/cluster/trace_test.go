package cluster

// Flight-recorder integration tests: the event journal must explain a
// failover end to end, and the span rings must stay readable (and race-free)
// while a chaos run hammers the cluster.

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
)

// fetchEvents reads one node's /debug/events journal.
func fetchEvents(t *testing.T, hc *http.Client, base string) []trace.Event {
	t.Helper()
	var resp trace.EventsResponse
	if status, err := server.GetJSON(hc, base+"/debug/events", &resp); err != nil || status/100 != 2 {
		t.Fatalf("GET %s/debug/events: status %d err %v", base, status, err)
	}
	return resp.Events
}

// TestFailoverEventTimeline kills a member and asserts the merged event
// journals explain the transition causally: a steward failover decision with
// the vote set, then an epoch bump attributed to it, then a quarantine start
// for every adopted partition — all ordered within the merged timeline.
func TestFailoverEventTimeline(t *testing.T) {
	l := fastLocal(t, 3, 8, 256)
	hc := &http.Client{Timeout: 2 * time.Second}

	victim := 2
	l.Kill(victim)
	if !l.WaitForEpoch(2, 5*time.Second) {
		t.Fatal("epoch never bumped after kill")
	}
	// Let the push fan out so every survivor has journaled its adoption.
	deadline := time.Now().Add(2 * time.Second)
	for _, id := range l.AliveIDs() {
		for l.Node(id).Epoch() < 2 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}

	var journals [][]trace.Event
	for _, id := range l.AliveIDs() {
		n := l.Node(id)
		journals = append(journals, fetchEvents(t, hc, n.Table().Members[id].Addr))
	}
	merged := trace.MergeEvents(journals...)

	var (
		decisionIdx   = -1
		stewardBump   = -1
		quarantines   int
		bumpsAtTwo    int
		causelessBump []trace.Event
	)
	for i, e := range merged {
		switch e.Type {
		case trace.EvFailoverDecision:
			if decisionIdx == -1 {
				decisionIdx = i
			}
			if e.Cause != "probe_timeout" {
				t.Fatalf("failover decision with cause %q, want probe_timeout: %+v", e.Cause, e)
			}
		case trace.EvEpochBump:
			if e.Cause == "" {
				causelessBump = append(causelessBump, e)
			}
			if e.Epoch == 2 {
				bumpsAtTwo++
				if e.Cause == "steward_reassign" && stewardBump == -1 {
					stewardBump = i
				}
			}
		case trace.EvQuarantineStart:
			if e.Epoch == 2 {
				quarantines++
			}
		}
	}
	if decisionIdx == -1 {
		t.Fatalf("no failover_decision in merged timeline: %+v", merged)
	}
	if stewardBump == -1 {
		t.Fatalf("no steward_reassign epoch bump to 2 in merged timeline: %+v", merged)
	}
	if decisionIdx > stewardBump {
		t.Fatalf("failover decision at %d after its epoch bump at %d", decisionIdx, stewardBump)
	}
	if len(causelessBump) > 0 {
		t.Fatalf("epoch bumps without a recorded cause: %+v", causelessBump)
	}
	// Both survivors bump (the steward plus the push receiver), and the
	// victim's partitions are adopted under quarantine on the survivors.
	if bumpsAtTwo < 2 {
		t.Fatalf("only %d nodes journaled the bump to epoch 2", bumpsAtTwo)
	}
	if quarantines == 0 {
		t.Fatal("no quarantine_start journaled for the adopted partitions")
	}
}

// TestChaosWithTracingUnderDebugReads runs the kill-chaos acceptance with
// per-node flight recorders enabled while a reader goroutine hammers the
// /debug/trace rings — concurrent span writes and snapshot reads are the
// race-detector assertion, and the report must show the journal explaining
// the run's epoch bump.
func TestChaosWithTracingUnderDebugReads(t *testing.T) {
	l, err := StartLocal(LocalConfig{
		Nodes:      3,
		Partitions: 4,
		Capacity:   128,
		Seed:       7,
		Trace:      true,
		Node: NodeConfig{
			Lease:         lease.Config{TickInterval: 20 * time.Millisecond},
			DefaultTTL:    300 * time.Millisecond,
			MaxTTL:        300 * time.Millisecond,
			ProbeInterval: 25 * time.Millisecond,
			DownAfter:     2,
			Logf:          t.Logf,
		},
	})
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	t.Cleanup(l.Close)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	hc := &http.Client{Timeout: 2 * time.Second}
	for _, target := range l.Targets() {
		readers.Add(1)
		go func(base string) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var tr trace.TraceResponse
					_, _ = server.GetJSON(hc, base+"/debug/trace", &tr)
					_, _ = server.GetJSON(hc, base+"/debug/trace/slow", &tr)
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(target)
	}

	report, err := RunChaos(ChaosConfig{
		Local:        l,
		Clients:      8,
		Acquires:     4000,
		TTL:          300 * time.Millisecond,
		HoldMean:     time.Millisecond,
		CrashPercent: 10,
		RenewPercent: 20,
		Seed:         13,
		KillEvery:    150 * time.Millisecond,
		MinAlive:     2,
		ReclaimSlack: 400 * time.Millisecond,
		Logf:         t.Logf,
	})
	close(stop)
	readers.Wait()
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if v := report.Violations(); v != nil {
		t.Fatalf("chaos violations: %v\nreport: %+v", v, report)
	}
	if report.EventsCaptured == 0 {
		t.Fatalf("events watcher captured nothing: %+v", report)
	}
	if report.EventCounts[trace.EvEpochBump] == 0 {
		t.Fatalf("no epoch bump in the journal despite %d bumps: %+v", report.EpochBumps, report.EventCounts)
	}

	// The survivors' recorders saw the load: spans finished, with per-phase
	// attribution available over /debug/trace.
	sawSpans := false
	for _, id := range l.AliveIDs() {
		var tr trace.TraceResponse
		n := l.Node(id)
		if status, err := server.GetJSON(hc, n.Table().Members[id].Addr+"/debug/trace", &tr); err != nil || status/100 != 2 {
			t.Fatalf("GET /debug/trace on node %d: status %d err %v", id, status, err)
		}
		if !tr.Enabled {
			t.Fatalf("node %d recorder disabled under LocalConfig.Trace", id)
		}
		if tr.SpansFinished > 0 && len(tr.Spans) > 0 {
			sawSpans = true
		}
	}
	if !sawSpans {
		t.Fatal("no node retained any spans after a 4000-acquire run")
	}
}
