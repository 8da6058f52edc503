// Package trace is the in-process flight recorder of the name service: a
// zero-dependency span recorder with per-phase latency attribution, a
// slow-op capture ring, and a structured cluster event journal.
//
// Every logical operation (acquire/renew/release, the batch opcodes,
// failover adoption, WAL replay) records one Span keyed by the existing
// request ID, subdivided into named phases — so "the p99 is fsync-dominant"
// is an observation, not a guess. Spans land in fixed-size lock-free ring
// buffers (an atomic cursor plus per-slot atomic pointers to immutable
// spans), so recording never blocks the operation it measures and readers
// never block writers. Spans propagate across the binary wire protocol by
// reusing the frame's request-ID field plus a trace flag in the request
// header's status slot, and the routed cluster client mints one request ID
// for all retry rounds of an operation, so cross-failover retries stitch
// into one trace.
//
// The companion EventLog (events.go) journals control-plane transitions —
// epoch bumps, steward failover decisions with cause and vote set,
// quarantine start/end, migrations, restart/replay summaries — into a
// per-node ring plus an optional durable JSONL file, and
// doubles as the leveled, request-ID-correlated structured logger that
// replaces ad-hoc printf logging on those paths.
package trace

import (
	"sync/atomic"
	"time"
)

// Phase names one attributed slice of an operation's latency. The enum is
// fixed and small so spans accumulate phase time into a flat array with no
// map or allocation on the hot path.
type Phase uint8

const (
	// PhaseQueue is time spent queued behind other work before service —
	// in the WAL it is the wait for the group-commit log mutex.
	PhaseQueue Phase = iota
	// PhaseLockWait is the wait to acquire the per-entry lease lock.
	PhaseLockWait
	// PhaseLeaseTable is the array/table work: probing for a free name
	// (acquire) or validating the handle.
	PhaseLeaseTable
	// PhaseWALAppend is the buffered write of the journal record.
	PhaseWALAppend
	// PhaseFsyncWait is the wait for the group-commit fsync covering the
	// record — the durability tax, attributed separately from lock waits.
	PhaseFsyncWait
	// PhaseWireEncode is response-frame encoding on the wire server.
	PhaseWireEncode
	// PhaseFlush is the response write and its flush (syscall write) on the
	// wire server.
	PhaseFlush
	// PhaseRoute is a routed cluster client's per-hop round-trip time.
	PhaseRoute
	// PhaseBackoff is a routed cluster client's retry backoff sleep.
	PhaseBackoff

	// NumPhases bounds the enum; keep it last.
	NumPhases
)

// phaseNames indexes Phase -> wire name; these strings are the JSON keys of
// SpanJSON.Phases and the column headings of `lactl trace`.
var phaseNames = [NumPhases]string{
	"queue", "lock-wait", "lease-table", "wal-append", "fsync-wait",
	"wire-encode", "flush", "route", "backoff",
}

// String returns the phase's wire name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase?"
}

// PhaseNames lists every phase's wire name in enum order, for renderers that
// want stable column ordering over SpanJSON.Phases maps.
func PhaseNames() []string {
	names := make([]string, NumPhases)
	copy(names, phaseNames[:])
	return names
}

// Span is one completed operation record. Spans are immutable once recorded;
// rings hand out pointers to them.
type Span struct {
	// RID is the operation's request ID — the same identity carried by the
	// HTTP X-Request-ID header and the wire frame's ID field, so one
	// operation keeps one trace across transports and failover retries.
	RID string
	// Op names the operation (acquire, renew, release, acquire_n, replay...).
	Op string
	// Node is the recording node's ID (-1 standalone).
	Node int
	// Partition is the partition served (-1 standalone / not applicable).
	Partition int
	// Epoch is the cluster table epoch at record time (0 standalone).
	Epoch uint64
	// Err is the error code of a failed operation ("" on success).
	Err string
	// StartUnixNano is the operation's start time.
	StartUnixNano int64
	// DurationNanos is the whole-operation latency.
	DurationNanos int64
	// PhaseNanos attributes DurationNanos into named phases; unattributed
	// time is the remainder.
	PhaseNanos [NumPhases]int64
}

// SpanJSON is the wire shape of one span as served by /debug/trace and
// consumed by `lactl trace`.
type SpanJSON struct {
	RID           string           `json:"rid"`
	Op            string           `json:"op"`
	Node          int              `json:"node"`
	Partition     int              `json:"partition"`
	Epoch         uint64           `json:"epoch,omitempty"`
	Err           string           `json:"err,omitempty"`
	StartUnixNano int64            `json:"start_unix_nano"`
	DurationNanos int64            `json:"duration_ns"`
	Phases        map[string]int64 `json:"phases,omitempty"`
}

// JSON converts the span to its wire shape, dropping zero phases.
func (s *Span) JSON() SpanJSON {
	j := SpanJSON{
		RID: s.RID, Op: s.Op, Node: s.Node, Partition: s.Partition,
		Epoch: s.Epoch, Err: s.Err,
		StartUnixNano: s.StartUnixNano, DurationNanos: s.DurationNanos,
	}
	for p, ns := range s.PhaseNanos {
		if ns != 0 {
			if j.Phases == nil {
				j.Phases = make(map[string]int64, 4)
			}
			j.Phases[Phase(p).String()] = ns
		}
	}
	return j
}

// ring is a fixed-size lock-free span buffer: writers claim a slot with one
// atomic add and publish an immutable span with one atomic pointer store;
// readers snapshot with atomic loads. A reader may observe a torn *ordering*
// (a slot overwritten mid-snapshot) but never a torn span.
type ring struct {
	slots  []atomic.Pointer[Span]
	cursor atomic.Uint64
}

func newRing(size int) *ring { return &ring{slots: make([]atomic.Pointer[Span], size)} }

func (r *ring) put(s *Span) {
	idx := r.cursor.Add(1) - 1
	r.slots[idx%uint64(len(r.slots))].Store(s)
}

// snapshot appends every recorded span to dst, oldest-first by best effort.
func (r *ring) snapshot(dst []Span) []Span {
	n := uint64(len(r.slots))
	cur := r.cursor.Load()
	start := uint64(0)
	if cur > n {
		start = cur - n
	}
	for i := start; i < cur; i++ {
		if s := r.slots[i%n].Load(); s != nil {
			dst = append(dst, *s)
		}
	}
	return dst
}

// Defaults for Config zero values.
const (
	DefaultRingSize      = 4096
	DefaultSlowRingSize  = 256
	DefaultSlowThreshold = time.Millisecond
)

// Config parameterizes a Recorder.
type Config struct {
	// Enabled starts the recorder recording; a disabled recorder's Begin
	// returns nil and operations pay only an atomic load.
	Enabled bool
	// SampleEvery retains one in N spans in the main ring (1 = every span).
	// Slow-op capture is independent of sampling: every span is measured,
	// and any span at or above SlowThreshold lands in the slow ring.
	SampleEvery int
	// SlowThreshold is the latency at which a span is retained as a slow op.
	SlowThreshold time.Duration
	// RingSize and SlowRingSize bound the two rings (0 selects defaults).
	RingSize, SlowRingSize int
	// Node and Partition default the identity stamped on spans (-1 unknown).
	Node int
}

// Recorder is one node's flight recorder. All methods are safe for
// concurrent use and safe on a nil receiver (recording disabled).
type Recorder struct {
	enabled     atomic.Bool
	sampleEvery uint64
	slowNanos   atomic.Int64
	node        int

	seq      atomic.Uint64 // sampling counter
	started  atomic.Uint64
	finished atomic.Uint64
	slow     atomic.Uint64

	ring     *ring
	slowRing *ring
}

// New builds a Recorder from cfg, applying defaults for zero values.
func New(cfg Config) *Recorder {
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.SlowRingSize <= 0 {
		cfg.SlowRingSize = DefaultSlowRingSize
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	r := &Recorder{
		sampleEvery: uint64(cfg.SampleEvery),
		node:        cfg.Node,
		ring:        newRing(cfg.RingSize),
		slowRing:    newRing(cfg.SlowRingSize),
	}
	r.slowNanos.Store(cfg.SlowThreshold.Nanoseconds())
	r.enabled.Store(cfg.Enabled)
	return r
}

// Enabled reports whether the recorder is recording.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// SetEnabled flips recording at runtime.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// SlowThreshold returns the slow-op retention threshold.
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.slowNanos.Load())
}

// Counters reports spans started/finished/retained-as-slow, for tests and
// the metrics bridge.
func (r *Recorder) Counters() (started, finished, slow uint64) {
	if r == nil {
		return 0, 0, 0
	}
	return r.started.Load(), r.finished.Load(), r.slow.Load()
}

// Begin opens a span for one operation, or returns nil when the recorder is
// nil or disabled. A nil *Op is valid: every Op method no-ops on it, so call
// sites thread spans unconditionally.
func (r *Recorder) Begin(op, rid string) *Op {
	if r == nil || !r.enabled.Load() {
		return nil
	}
	r.started.Add(1)
	o := &Op{rec: r}
	o.span.Op = op
	o.span.RID = rid
	o.span.Node = r.node
	o.span.Partition = -1
	o.start = time.Now()
	o.span.StartUnixNano = o.start.UnixNano()
	return o
}

// Spans snapshots the main ring.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.ring.snapshot(nil)
}

// SlowSpans snapshots the slow-op ring.
func (r *Recorder) SlowSpans() []Span {
	if r == nil {
		return nil
	}
	return r.slowRing.snapshot(nil)
}

// Op is one in-flight span under construction. The zero of *Op is nil and
// every method tolerates it, so disabled tracing costs only nil checks.
type Op struct {
	rec    *Recorder
	forced bool
	start  time.Time // Begin's reading; marks are monotonic offsets from it
	span   Span
}

// Force marks the span for unconditional retention in the main ring,
// bypassing sampling — used for requests that arrive with the wire trace
// flag set, so a stitched cross-node trace is never sampled away.
func (o *Op) Force() {
	if o != nil {
		o.forced = true
	}
}

// RID returns the span's request ID ("" on a nil Op).
func (o *Op) RID() string {
	if o == nil {
		return ""
	}
	return o.span.RID
}

// SetNode stamps the serving node and partition.
func (o *Op) SetNode(node, partition int) {
	if o != nil {
		o.span.Node, o.span.Partition = node, partition
	}
}

// SetEpoch stamps the cluster epoch the operation served under.
func (o *Op) SetEpoch(epoch uint64) {
	if o != nil {
		o.span.Epoch = epoch
	}
}

// Phase adds d to the span's named phase. Phases may be visited repeatedly
// (retry rounds accumulate).
func (o *Op) Phase(p Phase, d time.Duration) {
	if o != nil && p < NumPhases {
		o.span.PhaseNanos[p] += d.Nanoseconds()
	}
}

// Mark reads the span's clock: the monotonic time since Begin, one clock
// read (a wall-clock time.Now costs two). Phases are timed between marks. A
// nil Op reads no clock and returns 0, so call sites need no nil check.
func (o *Op) Mark() time.Duration {
	if o == nil {
		return 0
	}
	return time.Since(o.start)
}

// PhaseSince charges p with the time since mark, a value Mark or
// PhaseSince returned, and returns the new mark, so back-to-back phases
// share the clock read at their boundary. A nil Op reads no clock.
func (o *Op) PhaseSince(p Phase, mark time.Duration) time.Duration {
	if o == nil {
		return 0
	}
	now := time.Since(o.start)
	o.Phase(p, now-mark)
	return now
}

// Traced reports whether the op carries a live span — the wire client uses
// it to decide whether to set the frame's trace flag.
func (o *Op) Traced() bool { return o != nil }

// Finish seals the span with the operation's outcome and records it: into
// the slow ring when it met the threshold, and into the main ring when the
// sampling counter selects it. errCode is "" for success.
func (o *Op) Finish(errCode string) {
	o.FinishAt(o.Mark(), errCode)
}

// FinishAt is Finish with the span sealed at mark, a reading Mark or
// PhaseSince took as the operation's last phase ended, so the end costs no
// clock read of its own.
func (o *Op) FinishAt(mark time.Duration, errCode string) {
	if o == nil {
		return
	}
	r := o.rec
	o.span.Err = errCode
	o.span.DurationNanos = mark.Nanoseconds()
	r.finished.Add(1)
	if o.span.DurationNanos >= r.slowNanos.Load() {
		r.slow.Add(1)
		r.slowRing.put(&o.span)
	}
	if o.forced || r.sampleEvery == 1 || r.seq.Add(1)%r.sampleEvery == 0 {
		r.ring.put(&o.span)
	}
}
