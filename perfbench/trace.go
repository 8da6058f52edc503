package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/tas"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wal"
	"github.com/levelarray/levelarray/internal/wire"
)

// The traced run wraps each layer's public entry points in the decorators
// below, from this package only: the program is unchanged. Where the wire
// frame header carries an ID the decorators record spans keyed by it, so a
// client call and the server call it caused pair up exactly; elsewhere they
// keep per-operation totals. Everything stays in memory until the run ends.

// Phases a span or timer belongs to. Only the open-loop phase feeds the
// per-layer metrics. Setup and open-loop spans go to the span dump; the
// saturation phase keeps per-operation timers only, because at its rate a
// span per frame would make the traced run's memory and dump grow by
// hundreds of MB.
const (
	phaseSetup int32 = iota
	phaseOpen
	phaseSaturate
	numPhases
)

// span is one timed call at a layer boundary. cause is the wire frame ID.
type span struct {
	layer string
	op    string
	cause uint64
	phase int32
	start int64 // ns since the tracer's epoch
	end   int64
}

type tracer struct {
	epoch time.Time
	phase atomic.Int32

	mu     sync.Mutex
	spans  []span
	timers [numPhases]map[string]*timer
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	for p := range t.timers {
		t.timers[p] = map[string]*timer{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record stores one span with a frame ID, outside the saturation phase.
func (t *tracer) record(layer, op string, cause uint64, start, end int64) {
	p := t.phase.Load()
	if p == phaseSaturate {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: layer, op: op, cause: cause, phase: p, start: start, end: end})
	t.mu.Unlock()
}

// timer returns the current phase's timer for a layer operation.
func (t *tracer) timer(name string) *timer {
	p := t.phase.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	tm := t.timers[p][name]
	if tm == nil {
		tm = &timer{}
		t.timers[p][name] = tm
	}
	return tm
}

// openTimer returns the open-loop phase's timer for name (empty if none ran).
func (t *tracer) openTimer(name string) *timer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tm := t.timers[phaseOpen][name]; tm != nil {
		return tm
	}
	return &timer{}
}

// pairs returns, for the open-loop phase, the spans of two layers that share
// a frame ID: each parent span with the child span its frame caused.
func (t *tracer) pairs(parent, child string) (ps, cs []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64]span{}
	for _, s := range t.spans {
		if s.layer == child && s.phase == phaseOpen {
			children[s.cause] = s
		}
	}
	for _, s := range t.spans {
		if s.layer == parent && s.phase == phaseOpen {
			if c, ok := children[s.cause]; ok {
				ps = append(ps, s)
				cs = append(cs, c)
			}
		}
	}
	return ps, cs
}

// write dumps the spans and timers to path as tab-separated lines.
func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintln(w, "# span\tlayer\top\tframe_id\tphase\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "span\t%s\t%s\t%d\t%d\t%d\t%d\n", s.layer, s.op, s.cause, s.phase, s.start, s.end)
	}
	fmt.Fprintln(w, "# timer\tphase\tname\tcalls\ttotal_us\tmedian_us")
	for p, m := range t.timers {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			tm := m[n]
			fmt.Fprintf(w, "timer\t%d\t%s\t%d\t%.3f\t%.3f\n", p, n, tm.count(), tm.totalUS(), tm.medianUS())
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedJournal times every journal call of the lease manager. It forwards
// the traced-append extension the manager type-asserts, so the manager's
// behaviour with it is the same as with the bare *wal.Store.
type tracedJournal struct {
	inner *wal.Store
	t     *tracer
}

var _ lease.Journal = (*tracedJournal)(nil)

func (j *tracedJournal) timed(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	j.t.timer(name).observe(time.Since(start))
	return err
}

func (j *tracedJournal) Append(op wal.Op, name uint32, token uint64, deadline int64) error {
	return j.timed("wal.append."+op.String(), func() error { return j.inner.Append(op, name, token, deadline) })
}

func (j *tracedJournal) AppendTraced(sp *trace.Op, op wal.Op, name uint32, token uint64, deadline int64) error {
	return j.timed("wal.append."+op.String(), func() error { return j.inner.AppendTraced(sp, op, name, token, deadline) })
}

func (j *tracedJournal) AppendBatch(recs []wal.Record) error {
	return j.timed("wal.append_batch", func() error { return j.inner.AppendBatch(recs) })
}

func (j *tracedJournal) BeginCheckpoint() (uint64, error) { return j.inner.BeginCheckpoint() }

func (j *tracedJournal) CompleteCheckpoint(snap *wal.Snapshot) error {
	return j.inner.CompleteCheckpoint(snap)
}

func (j *tracedJournal) Recovered() (*wal.Snapshot, []wal.Record) { return j.inner.Recovered() }

// tracedBackend times every frame a wire server hands its backend, as a span
// keyed by the frame ID (spans) or as per-op totals (timers only).
type tracedBackend struct {
	inner wire.Backend
	t     *tracer
	layer string
	spans bool
}

func (b *tracedBackend) ServeWire(req *wire.Request, resp *wire.Response) {
	start := b.t.now()
	b.inner.ServeWire(req, resp)
	end := b.t.now()
	op := req.Op.String()
	if b.spans {
		b.t.record(b.layer, op, req.ID, start, end)
	}
	b.t.timer(b.layer + "." + op).observe(time.Duration(end - start))
}

// tracedArray decorates a core LevelArray: its handles time Get and Free and
// count claims. It forwards the optional interfaces the lease manager type-
// asserts (MainSpace/BackupSpace for the orphan sweep and snapshots, and on
// handles activity.Identified for tokens and Adopt for restores), so the
// manager above sees the same array it would see bare.
type tracedArray struct {
	inner *core.LevelArray
	t     *tracer
	// handles lists every handle handed out, for their probe statistics.
	mu      sync.Mutex
	handles []*tracedHandle
}

var _ activity.Array = (*tracedArray)(nil)

func (a *tracedArray) Capacity() int          { return a.inner.Capacity() }
func (a *tracedArray) Size() int              { return a.inner.Size() }
func (a *tracedArray) MainSpace() tas.Space   { return a.inner.MainSpace() }
func (a *tracedArray) BackupSpace() tas.Space { return a.inner.BackupSpace() }

func (a *tracedArray) Collect(dst []int) []int { return a.inner.Collect(dst) }

func (a *tracedArray) Handle() activity.Handle {
	h := &tracedHandle{inner: a.inner.Handle().(*core.Handle), t: a.t}
	a.mu.Lock()
	a.handles = append(a.handles, h)
	a.mu.Unlock()
	return h
}

// tracedHandle times one core handle's calls and counts, for the open-loop
// phase, the claims, backup visits and failures of its Gets. The lease
// manager uses a handle from one goroutine at a time; the counters are
// atomic so they can be summed while the node still runs.
type tracedHandle struct {
	inner                *core.Handle
	t                    *tracer
	gets, fails, backups atomic.Uint64
	claims, claimsMax    atomic.Uint64
}

func (h *tracedHandle) Get() (int, error) {
	start := time.Now()
	name, err := h.inner.Get()
	h.t.timer("core.get").observe(time.Since(start))
	if h.t.phase.Load() != phaseOpen {
		return name, err
	}
	if err != nil {
		h.fails.Add(1)
		return name, err
	}
	c := uint64(h.inner.LastProbes())
	h.gets.Add(1)
	h.claims.Add(c)
	if h.inner.LastUsedBackup() {
		h.backups.Add(1)
	}
	if c > h.claimsMax.Load() {
		h.claimsMax.Store(c)
	}
	return name, err
}

func (h *tracedHandle) Free() error {
	start := time.Now()
	err := h.inner.Free()
	h.t.timer("core.free").observe(time.Since(start))
	return err
}

func (h *tracedHandle) Name() (int, bool)          { return h.inner.Name() }
func (h *tracedHandle) LastProbes() int            { return h.inner.LastProbes() }
func (h *tracedHandle) Stats() activity.ProbeStats { return h.inner.Stats() }
func (h *tracedHandle) ID() uint64                 { return h.inner.ID() }
func (h *tracedHandle) Adopt(name int) error       { return h.inner.Adopt(name) }
