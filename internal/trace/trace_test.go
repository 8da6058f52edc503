package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: a nil Recorder, Op, and EventLog must absorb every call —
// the untraced production path threads them unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.SetEnabled(true)
	if s, f, sl := r.Counters(); s != 0 || f != 0 || sl != 0 {
		t.Fatalf("nil recorder counters %d/%d/%d", s, f, sl)
	}
	if r.Spans() != nil || r.SlowSpans() != nil {
		t.Fatal("nil recorder returned spans")
	}
	sp := r.Begin("acquire", "la-1")
	if sp != nil {
		t.Fatal("nil recorder began a span")
	}
	// All Op methods on the nil span.
	sp.Force()
	sp.SetNode(1, 2)
	sp.SetEpoch(3)
	sp.Phase(PhaseFsyncWait, time.Millisecond)
	if sp.RID() != "" {
		t.Fatal("nil op traced")
	}
	if m := sp.PhaseSince(PhaseFlush, sp.Mark()); m != 0 {
		t.Fatalf("nil op marked %v", m)
	}
	sp.Finish("boom")
	sp.FinishAt(time.Second, "boom")

	var l *EventLog
	l.Emit(Event{Type: EvEpochBump})
	l.Eventf(EvReplay, 1, 0, "restart", "x")
	if l.Events() != nil {
		t.Fatal("nil event log returned events")
	}
	l.Close()
}

// TestDisabledRecorderBeginsNothing: a constructed-but-disabled recorder must
// behave like the nil one on the hot path.
func TestDisabledRecorderBeginsNothing(t *testing.T) {
	r := New(Config{Enabled: false})
	if sp := r.Begin("acquire", "la-1"); sp != nil {
		t.Fatal("disabled recorder began a span")
	}
	r.SetEnabled(true)
	if sp := r.Begin("acquire", "la-1"); sp == nil {
		t.Fatal("re-enabled recorder refused a span")
	}
}

// TestSpanPhaseAttribution checks phase accumulation, identity stamping, and
// the JSON shape (zero phases dropped, fsync wait attributed separately from
// lock wait).
func TestSpanPhaseAttribution(t *testing.T) {
	r := New(Config{Enabled: true, SlowThreshold: time.Hour, Node: 3})
	sp := r.Begin("acquire", "la-42")
	sp.SetNode(3, 2)
	sp.SetEpoch(7)
	sp.Phase(PhaseLockWait, 2*time.Millisecond)
	sp.Phase(PhaseFsyncWait, 3*time.Millisecond)
	sp.Phase(PhaseFsyncWait, time.Millisecond) // retry rounds accumulate
	sp.Finish("")

	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.RID != "la-42" || s.Op != "acquire" || s.Node != 3 || s.Partition != 2 || s.Epoch != 7 || s.Err != "" {
		t.Fatalf("span identity %+v", s)
	}
	if s.PhaseNanos[PhaseFsyncWait] != (4 * time.Millisecond).Nanoseconds() {
		t.Fatalf("fsync-wait %dns, want 4ms", s.PhaseNanos[PhaseFsyncWait])
	}
	j := s.JSON()
	if j.Phases["fsync-wait"] != (4*time.Millisecond).Nanoseconds() || j.Phases["lock-wait"] != (2*time.Millisecond).Nanoseconds() {
		t.Fatalf("JSON phases %v", j.Phases)
	}
	if _, ok := j.Phases["wal-append"]; ok {
		t.Fatal("zero phase serialized")
	}
	if s.DurationNanos < 0 {
		t.Fatalf("negative duration %d", s.DurationNanos)
	}
}

// TestMarksChainPhases: PhaseSince charges the time between marks and hands
// back the boundary it read, so back-to-back phases tile the span with no gap
// or overlap, and FinishAt seals the span at the last boundary.
func TestMarksChainPhases(t *testing.T) {
	r := New(Config{Enabled: true, SlowThreshold: time.Hour})
	sp := r.Begin("acquire", "la-7")
	start := sp.Mark()
	time.Sleep(2 * time.Millisecond)
	mid := sp.PhaseSince(PhaseLockWait, start)
	time.Sleep(time.Millisecond)
	end := sp.PhaseSince(PhaseFlush, mid)
	sp.FinishAt(end, "")

	got := r.Spans()[0]
	lock, flush := got.PhaseNanos[PhaseLockWait], got.PhaseNanos[PhaseFlush]
	if lock != int64(mid-start) || flush != int64(end-mid) {
		t.Fatalf("phases lock-wait %d flush %d, want %d and %d", lock, flush, mid-start, end-mid)
	}
	if lock < int64(2*time.Millisecond) || flush < int64(time.Millisecond) {
		t.Fatalf("phases lock-wait %v flush %v shorter than the sleeps", time.Duration(lock), time.Duration(flush))
	}
	if got.DurationNanos != int64(end) {
		t.Fatalf("duration %d, want the last mark %d", got.DurationNanos, end)
	}
}

// TestSlowCaptureIndependentOfSampling: with aggressive sampling, the main
// ring retains almost nothing but the slow ring still sees every span over
// the threshold; Force bypasses sampling for stitched traces.
func TestSlowCaptureIndependentOfSampling(t *testing.T) {
	r := New(Config{Enabled: true, SampleEvery: 1 << 20, SlowThreshold: time.Nanosecond})
	for i := 0; i < 10; i++ {
		sp := r.Begin("acquire", fmt.Sprintf("la-%d", i))
		time.Sleep(10 * time.Microsecond) // guarantees duration >= 1ns
		sp.Finish("")
	}
	if got := len(r.SlowSpans()); got != 10 {
		t.Fatalf("slow ring holds %d spans, want 10", got)
	}
	if got := len(r.Spans()); got != 0 {
		t.Fatalf("main ring holds %d spans under 1-in-2^20 sampling, want 0", got)
	}
	_, _, slow := r.Counters()
	if slow != 10 {
		t.Fatalf("slow counter %d, want 10", slow)
	}

	forced := r.Begin("acquire", "la-forced")
	forced.Force()
	forced.Finish("")
	spans := r.Spans()
	if len(spans) != 1 || spans[0].RID != "la-forced" {
		t.Fatalf("forced span not retained past sampling: %v", spans)
	}
}

// TestRingWrap: the ring keeps only the most recent RingSize spans.
func TestRingWrap(t *testing.T) {
	r := New(Config{Enabled: true, RingSize: 4, SlowThreshold: time.Hour})
	for i := 0; i < 10; i++ {
		r.Begin(fmt.Sprintf("op%d", i), "la-w").Finish("")
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := fmt.Sprintf("op%d", 6+i); s.Op != want {
			t.Fatalf("slot %d holds %s, want %s", i, s.Op, want)
		}
	}
}

// TestConcurrentSpanRecording hammers the ring from writer goroutines while
// readers snapshot — the race detector is the assertion here; the counters
// are the sanity check.
func TestConcurrentSpanRecording(t *testing.T) {
	r := New(Config{Enabled: true, RingSize: 64, SlowThreshold: time.Nanosecond, SlowRingSize: 64})
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, s := range r.Spans() {
						_ = s.JSON()
					}
					_ = r.SlowSpans()
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for g := 0; g < writers; g++ {
		ww.Add(1)
		go func(g int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				sp := r.Begin("acquire", fmt.Sprintf("la-%d-%d", g, i))
				sp.SetNode(g, i%4)
				sp.Phase(PhaseLeaseTable, time.Microsecond)
				sp.Finish("")
			}
		}(g)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	started, finished, _ := r.Counters()
	if started != writers*perWriter || finished != writers*perWriter {
		t.Fatalf("counters started %d finished %d, want %d", started, finished, writers*perWriter)
	}
}

// TestEventLogOrderingAndWrap: sequence numbers are monotonic and the ring
// keeps the most recent RingSize events.
func TestEventLogOrderingAndWrap(t *testing.T) {
	var now int64
	l := NewEventLog(EventConfig{Node: 2, RingSize: 4, Clock: func() time.Time {
		now++
		return time.Unix(0, now)
	}})
	for i := 0; i < 6; i++ {
		l.Eventf(EvEpochBump, uint64(i+1), -1, "test", "bump %d", i)
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(3+i) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, 3+i)
		}
		if e.Node != 2 || e.Level != LevelInfo {
			t.Fatalf("event defaults not applied: %+v", e)
		}
		if i > 0 && evs[i-1].TimeUnixNano > e.TimeUnixNano {
			t.Fatal("events out of time order")
		}
	}
}

// TestEventLogDurableFile: with a Dir, every event lands in events.jsonl and
// survives Close.
func TestEventLogDurableFile(t *testing.T) {
	dir := t.TempDir()
	l := NewEventLog(EventConfig{Node: 1, Dir: dir})
	l.Eventf(EvMigrationPlan, 2, 3, "load_spread", "move to node 1")
	l.Emit(Event{Type: EvQuarantineStart, Level: LevelWarn, Epoch: 2, Partition: 3, Cause: "failover"})
	l.Close()

	f, err := os.Open(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	defer f.Close()
	var got []Event
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		got = append(got, e)
	}
	if len(got) != 2 {
		t.Fatalf("journal has %d lines, want 2", len(got))
	}
	if got[0].Type != EvMigrationPlan || got[0].Seq != 1 || got[1].Type != EvQuarantineStart || got[1].Seq != 2 {
		t.Fatalf("journal contents %+v", got)
	}
}

// TestEventSinkLine: the structured-log mirror renders one greppable line
// per event.
func TestEventSinkLine(t *testing.T) {
	var lines []string
	l := NewEventLog(EventConfig{Node: 4, Sink: func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}})
	l.Emit(Event{Type: EvFailoverDecision, Level: LevelWarn, Epoch: 5, Partition: -1,
		Cause: "probe_timeout", Detail: "suspects [2]", RID: "la-9"})
	if len(lines) != 1 {
		t.Fatalf("sink saw %d lines, want 1", len(lines))
	}
	for _, want := range []string{"level=warn", "node=4", "epoch=5", "type=failover_decision", "cause=probe_timeout", `rid=la-9`, `detail="suspects [2]"`} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("line %q missing %q", lines[0], want)
		}
	}
	if strings.Contains(lines[0], "partition=") {
		t.Fatalf("node-wide event rendered a partition: %q", lines[0])
	}
}

// TestMergeEvents orders by timestamp, then node, then per-node sequence.
func TestMergeEvents(t *testing.T) {
	a := []Event{
		{Seq: 1, TimeUnixNano: 10, Node: 0, Type: EvFailoverDecision},
		{Seq: 2, TimeUnixNano: 30, Node: 0, Type: EvEpochBump},
	}
	b := []Event{
		{Seq: 1, TimeUnixNano: 20, Node: 1, Type: EvEpochBump},
		{Seq: 2, TimeUnixNano: 30, Node: 1, Type: EvQuarantineStart},
	}
	merged := MergeEvents(a, b)
	want := []struct {
		node int
		typ  string
	}{
		{0, EvFailoverDecision}, {1, EvEpochBump}, {0, EvEpochBump}, {1, EvQuarantineStart},
	}
	if len(merged) != len(want) {
		t.Fatalf("merged %d events, want %d", len(merged), len(want))
	}
	for i, w := range want {
		if merged[i].Node != w.node || merged[i].Type != w.typ {
			t.Fatalf("slot %d is node %d %s, want node %d %s", i, merged[i].Node, merged[i].Type, w.node, w.typ)
		}
	}
}

// TestMountEndpoints: the debug endpoints answer even with a nil recorder
// and journal (so probes can tell "tracing off" from "endpoint missing") and
// serve real state when wired.
func TestMountEndpoints(t *testing.T) {
	get := func(srv *httptest.Server, path string, out any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}

	// Nil recorder and journal: endpoints answer with empty state.
	nilMux := http.NewServeMux()
	Mount(nilMux, nil, nil)
	nilSrv := httptest.NewServer(nilMux)
	defer nilSrv.Close()
	var tr TraceResponse
	get(nilSrv, "/debug/trace", &tr)
	if tr.Enabled || len(tr.Spans) != 0 {
		t.Fatalf("nil recorder response %+v", tr)
	}
	var er EventsResponse
	get(nilSrv, "/debug/events", &er)
	if er.Node != -1 || len(er.Events) != 0 {
		t.Fatalf("nil journal response %+v", er)
	}

	// Wired recorder and journal: state round-trips.
	r := New(Config{Enabled: true, SlowThreshold: time.Nanosecond})
	sp := r.Begin("acquire", "la-h")
	time.Sleep(10 * time.Microsecond)
	sp.Finish("")
	l := NewEventLog(EventConfig{Node: 0})
	l.Eventf(EvEpochBump, 2, -1, "steward_reassign", "epoch 1 -> 2")
	mux := http.NewServeMux()
	Mount(mux, r, l)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	get(srv, "/debug/trace/slow", &tr)
	if !tr.Enabled || len(tr.Spans) != 1 || tr.Spans[0].RID != "la-h" {
		t.Fatalf("slow response %+v", tr)
	}
	get(srv, "/debug/events", &er)
	if len(er.Events) != 1 || er.Events[0].Type != EvEpochBump || er.Events[0].Cause != "steward_reassign" {
		t.Fatalf("events response %+v", er)
	}
}
