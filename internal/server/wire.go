package server

import (
	"encoding/json"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wire"
)

// WireBackend is the wire codec: the binary protocol over one Service, with
// the HTTP statuses carried in the frame header and the same error table as
// the HTTP codec. Build it with NewWireBackend (standalone) or NewWire and
// hand it to wire.NewServer.
type WireBackend struct {
	opCore
	// control answers the opcodes the lease API does not define (a cluster
	// node's membership plane); nil answers them 400.
	control func(req *wire.Request, resp *wire.Response) bool
}

var _ wire.BatchBackend = (*WireBackend)(nil)

// NewWireBackend builds the wire codec over the manager-backed service, with
// the same defaults as New.
func NewWireBackend(mgr *lease.Manager, cfg Config) *WireBackend {
	return NewWire(newManagerService(mgr, cfg), cfg, nil)
}

// NewWire builds the wire codec over svc, instrumented by cfg.Metrics.
// control, when non-nil, answers opcodes beyond the lease API and reports
// whether it knew the opcode.
func NewWire(svc Service, cfg Config, control func(req *wire.Request, resp *wire.Response) bool) *WireBackend {
	return &WireBackend{opCore: opCore{svc: svc, m: cfg.Metrics}, control: control}
}

// batchScratch is the per-call batch workspace, pooled so the batch opcodes
// stay allocation-free at steady state.
type batchScratch struct {
	grants   []Grant
	refs     []lease.Ref
	outcomes []lease.RenewOutcome
}

var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// put writes an outcome into the frame header: status and code, the retry
// hint of a 503 and the epoch of a 412/421.
func put(resp *wire.Response, o outcome) {
	resp.Status, resp.Code = o.status, o.code
	if o.status == wire.StatusUnavailable {
		resp.RetryAfterMillis = retryMillis(o.wait)
	}
	if o.epoch != 0 {
		resp.Epoch = o.epoch
	}
}

// wireGrant is a grant's frame shape.
func wireGrant(g Grant) wire.Grant {
	return wire.Grant{
		Name: int64(g.Name), Token: g.Token, DeadlineUnixMilli: g.DeadlineUnixMillis,
		NodeID: int32(g.NodeID), Partition: int32(g.Partition), Epoch: g.Epoch,
	}
}

// ServeWire implements wire.Backend. Every response carries the service's
// epoch unless the outcome set one.
func (b *WireBackend) ServeWire(req *wire.Request, resp *wire.Response) {
	c := Call{Epoch: req.Epoch, Span: req.Span, id: req.ID}
	switch req.Op {
	case wire.OpPing:
		// Status OK, empty payload.

	case wire.OpAcquire, wire.OpRenew, wire.OpRelease:
		start := time.Now()
		op, g, err := b.write(c, req)
		answer(resp, op, g, b.finish(op, start, c, err))

	case wire.OpAcquireN, wire.OpReleaseN, wire.OpRenewSession:
		if b.m != nil {
			b.m.BatchOps.Inc()
		}
		sc := batchScratchPool.Get().(*batchScratch)
		b.batch(c, req, resp, sc)
		batchScratchPool.Put(sc)

	case wire.OpCollect:
		WriteBlob(resp, b.svc.Collect())

	case wire.OpStats:
		WriteBlob(resp, b.svc.Stats())

	case wire.OpLeases:
		if req.Start < 0 {
			resp.Status, resp.Code = wire.StatusBadRequest, wire.CodeBadRequest
			break
		}
		WriteBlob(resp, b.svc.Leases(int(req.Start), pageLimit(int(req.Limit))))

	default:
		if b.control == nil || !b.control(req, resp) {
			resp.Status, resp.Code = wire.StatusBadRequest, wire.CodeBadRequest
		}
	}
	if resp.Epoch == 0 {
		resp.Epoch = b.svc.Epoch()
	}
}

// write runs one single-lease write frame under c and names the op it was.
func (b *WireBackend) write(c Call, req *wire.Request) (int, Grant, error) {
	switch req.Op {
	case wire.OpAcquire:
		g, err := b.svc.Acquire(c, req.TTLMillis)
		return opAcquire, g, err
	case wire.OpRenew:
		ref := req.Items[0]
		g, err := b.svc.Renew(c, int(ref.Name), ref.Token, req.TTLMillis)
		return opRenew, g, err
	default:
		ref := req.Items[0]
		return opRelease, Grant{}, b.svc.Release(c, int(ref.Name), ref.Token)
	}
}

// answer fills a single-lease write's response: its outcome and, for an
// acquire or renew that succeeded, the grant.
func answer(resp *wire.Response, op int, g Grant, o outcome) {
	if put(resp, o); o.status == wire.StatusOK && op != opRelease {
		resp.Grants = append(resp.Grants, wireGrant(g))
	}
}

// deferredWrite is one single-lease write of a batch, applied and awaiting
// the batch's durability barrier.
type deferredWrite struct {
	resp  *wire.Response
	c     Call
	op    int
	start time.Time
	g     Grant
	err   error
}

// batchWrites is ServeWireBatch's workspace, pooled so the batch path stays
// allocation-free at steady state.
type batchWrites struct {
	bar    lease.Barrier
	writes []deferredWrite
}

var batchWritesPool = sync.Pool{New: func() any { return &batchWrites{} }}

// ServeWireBatch implements wire.BatchBackend. It serves the frames in
// order; the single-lease writes among them (acquire, renew, release) pass
// one lease.Barrier to the service, so each is applied and its journal
// record queued without waiting, and the batch waits on the barrier once —
// one WAL write and one fsync per journal it touched — before it fills any
// of their responses. A failed wait answers every one of those writes with
// the journal's failure, 503 closed. Each write is observed once, with its
// final status and a latency that includes the wait, and a traced write
// carries the wait in its fsync-wait phase. The other opcodes are served as
// ServeWire serves them.
func (b *WireBackend) ServeWireBatch(reqs []*wire.Request, resps []*wire.Response) {
	bw := batchWritesPool.Get().(*batchWrites)
	// clock is any traced write's span: its clock times the wait for all of
	// them, and with tracing off the wait reads no clock.
	var clock *trace.Op
	for i, req := range reqs {
		if req.Op != wire.OpAcquire && req.Op != wire.OpRenew && req.Op != wire.OpRelease {
			b.ServeWire(req, resps[i])
			continue
		}
		bw.writes = append(bw.writes, deferredWrite{resp: resps[i], c: Call{Epoch: req.Epoch, Span: req.Span, id: req.ID, Barrier: &bw.bar}, start: time.Now()})
		d := &bw.writes[len(bw.writes)-1]
		d.op, d.g, d.err = b.write(d.c, req)
		if clock == nil {
			clock = req.Span
		}
	}
	mark := clock.Mark()
	waitErr := bw.bar.Wait()
	wait := clock.Mark() - mark
	for i := range bw.writes {
		d := &bw.writes[i]
		if d.err == nil {
			d.err = waitErr
		}
		d.c.Span.Phase(trace.PhaseFsyncWait, wait)
		answer(d.resp, d.op, d.g, b.finish(d.op, d.start, d.c, d.err))
		if d.resp.Epoch == 0 {
			d.resp.Epoch = b.svc.Epoch()
		}
	}
	bw.writes = bw.writes[:0]
	batchWritesPool.Put(bw)
}

// batch serves AcquireN, ReleaseN and RenewSession, mapping each item's
// failure through the same error table as a single op.
func (b *WireBackend) batch(c Call, req *wire.Request, resp *wire.Response, sc *batchScratch) {
	if req.Op == wire.OpAcquireN {
		var err error
		sc.grants, err = b.svc.AcquireN(c, int(req.N), req.TTLMillis, sc.grants[:0])
		if put(resp, outcomeOf(b.svc, err)); err == nil {
			for _, g := range sc.grants {
				resp.Grants = append(resp.Grants, wireGrant(g))
			}
		}
		return
	}
	sc.refs = sc.refs[:0]
	for _, ref := range req.Items {
		sc.refs = append(sc.refs, lease.Ref{Name: int(ref.Name), Token: ref.Token})
	}
	var err error
	if req.Op == wire.OpReleaseN {
		sc.outcomes, err = b.svc.ReleaseN(c, sc.refs, sc.outcomes[:0])
	} else {
		sc.outcomes, err = b.svc.RenewN(c, sc.refs, req.TTLMillis, sc.outcomes[:0])
	}
	if put(resp, outcomeOf(b.svc, err)); err != nil {
		return
	}
	for _, out := range sc.outcomes {
		o := outcomeOf(b.svc, out.Err)
		resp.Items = append(resp.Items, wire.ItemResult{Status: o.status, Code: o.code, DeadlineUnixMilli: unixMillis(out.Deadline)})
	}
}

// WriteBlob JSON-encodes body into the response payload. The read-side and
// control opcodes are the one place the binary protocol carries JSON — they
// exist so tooling can ride the same connection, not for speed.
func WriteBlob(resp *wire.Response, body any) {
	buf, err := json.Marshal(body)
	if err != nil {
		resp.Status, resp.Code = wire.StatusInternal, wire.CodeInternal
		return
	}
	resp.Blob = append(resp.Blob[:0], buf...)
}
