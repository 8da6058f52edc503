package server

import (
	"encoding/json"
	"sync"

	"github.com/levelarray/levelarray/internal/lease"
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

	case wire.OpAcquire:
		g, o := b.acquire(c, req.TTLMillis)
		if put(resp, o); o.status == wire.StatusOK {
			resp.Grants = append(resp.Grants, wireGrant(g))
		}

	case wire.OpRenew:
		ref := req.Items[0]
		g, o := b.renew(c, int(ref.Name), ref.Token, req.TTLMillis)
		if put(resp, o); o.status == wire.StatusOK {
			resp.Grants = append(resp.Grants, wireGrant(g))
		}

	case wire.OpRelease:
		ref := req.Items[0]
		put(resp, b.release(c, int(ref.Name), ref.Token))

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
