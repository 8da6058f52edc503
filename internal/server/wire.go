package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

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

// LeaseRef addresses one held lease in a client-side batch call.
type LeaseRef struct {
	Name  int
	Token uint64
}

// RenewResult is the per-lease outcome of a bulk renew (and, without the
// deadline, of a batch release): the HTTP-valued status, the error code
// string on failure, and the renewed deadline on success.
type RenewResult struct {
	Status             int
	Code               string
	DeadlineUnixMillis int64
}

// WireClient adapts a wire.Client to the lease-API surface of the HTTP
// Client — identical signatures, statuses and TTL encoding — plus the batch
// operations only the binary protocol offers. Safe for concurrent use.
type WireClient struct {
	c *wire.Client
}

// NewWireClient wraps c. The caller keeps ownership (and Close duty) of c.
func NewWireClient(c *wire.Client) *WireClient { return &WireClient{c: c} }

// Wire exposes the underlying wire client (for counters and Close).
func (w *WireClient) Wire() *wire.Client { return w.c }

// wireCall is a pooled request/response pair so concurrent callers do not
// allocate per operation.
type wireCall struct {
	req  wire.Request
	resp wire.Response
}

var wireCallPool = sync.Pool{New: func() any { return &wireCall{} }}

// begin readies a pooled call for op.
func begin(op wire.Opcode) *wireCall {
	ca := wireCallPool.Get().(*wireCall)
	ca.req.Op = op
	ca.req.ID = 0 // pooled: a stale nonzero ID would bypass client assignment
	ca.req.Epoch = 0
	ca.req.TTLMillis = 0
	ca.req.N = 0
	ca.req.Start, ca.req.Limit = 0, 0
	ca.req.Items = ca.req.Items[:0]
	ca.req.Trace = false
	ca.req.Span = nil
	return ca
}

// GrantFromWire converts a frame grant to the JSON-shaped grant every client
// returns regardless of transport.
func GrantFromWire(g wire.Grant) GrantResponse {
	return GrantResponse{
		Name: int(g.Name), Token: g.Token, DeadlineUnixMillis: g.DeadlineUnixMilli,
		NodeID: int(g.NodeID), Partition: int(g.Partition), Epoch: g.Epoch,
	}
}

// Acquire requests one lease; same contract as Client.Acquire, with the
// frame's retry-after field standing in for the Retry-After headers.
func (w *WireClient) Acquire(ttlMillis int64) (GrantResponse, int, time.Duration, error) {
	ca := begin(wire.OpAcquire)
	defer wireCallPool.Put(ca)
	ca.req.TTLMillis = ttlMillis
	if err := w.c.Do(&ca.req, &ca.resp); err != nil {
		return GrantResponse{}, 0, 0, err
	}
	status := int(ca.resp.Status)
	if ca.resp.Status == wire.StatusUnavailable {
		return GrantResponse{}, status, time.Duration(ca.resp.RetryAfterMillis) * time.Millisecond, nil
	}
	if ca.resp.Status != wire.StatusOK {
		return GrantResponse{}, status, 0, nil
	}
	return GrantFromWire(ca.resp.Grants[0]), status, 0, nil
}

// Renew extends a lease; same contract as Client.Renew.
func (w *WireClient) Renew(name int, token uint64, ttlMillis int64) (GrantResponse, int, error) {
	ca := begin(wire.OpRenew)
	defer wireCallPool.Put(ca)
	ca.req.TTLMillis = ttlMillis
	ca.req.Items = append(ca.req.Items, wire.Ref{Name: int64(name), Token: token})
	if err := w.c.Do(&ca.req, &ca.resp); err != nil {
		return GrantResponse{}, 0, err
	}
	if ca.resp.Status != wire.StatusOK {
		return GrantResponse{}, int(ca.resp.Status), nil
	}
	return GrantFromWire(ca.resp.Grants[0]), int(ca.resp.Status), nil
}

// Release frees a lease; same contract as Client.Release.
func (w *WireClient) Release(name int, token uint64) (int, error) {
	ca := begin(wire.OpRelease)
	defer wireCallPool.Put(ca)
	ca.req.Items = append(ca.req.Items, wire.Ref{Name: int64(name), Token: token})
	if err := w.c.Do(&ca.req, &ca.resp); err != nil {
		return 0, err
	}
	return int(ca.resp.Status), nil
}

// Stats fetches the service statistics over the wire connection.
func (w *WireClient) Stats() (StatsResponse, error) {
	ca := begin(wire.OpStats)
	defer wireCallPool.Put(ca)
	var s StatsResponse
	if err := w.c.Do(&ca.req, &ca.resp); err != nil {
		return s, err
	}
	if ca.resp.Status != wire.StatusOK {
		return s, fmt.Errorf("server: wire stats returned status %d (%s)", ca.resp.Status, ca.resp.Code)
	}
	return s, json.Unmarshal(ca.resp.Blob, &s)
}

// AcquireBatch grants up to n leases in one frame. A 503 (nothing granted)
// carries the server's retry pacing; a partial grant is a 200 whose length
// says how much namespace was left.
func (w *WireClient) AcquireBatch(n int, ttlMillis int64, dst []GrantResponse) ([]GrantResponse, int, time.Duration, error) {
	ca := begin(wire.OpAcquireN)
	defer wireCallPool.Put(ca)
	ca.req.TTLMillis = ttlMillis
	ca.req.N = uint32(n)
	if err := w.c.Do(&ca.req, &ca.resp); err != nil {
		return dst, 0, 0, err
	}
	status := int(ca.resp.Status)
	if ca.resp.Status == wire.StatusUnavailable {
		return dst, status, time.Duration(ca.resp.RetryAfterMillis) * time.Millisecond, nil
	}
	if ca.resp.Status != wire.StatusOK {
		return dst, status, 0, nil
	}
	for _, g := range ca.resp.Grants {
		dst = append(dst, GrantFromWire(g))
	}
	return dst, status, 0, nil
}

// RenewSession bulk-renews every lease in refs to one shared TTL, one round
// trip for the whole session set. Results are index-aligned with refs.
func (w *WireClient) RenewSession(refs []LeaseRef, ttlMillis int64, dst []RenewResult) ([]RenewResult, int, error) {
	ca := begin(wire.OpRenewSession)
	defer wireCallPool.Put(ca)
	ca.req.TTLMillis = ttlMillis
	for _, ref := range refs {
		ca.req.Items = append(ca.req.Items, wire.Ref{Name: int64(ref.Name), Token: ref.Token})
	}
	if err := w.c.Do(&ca.req, &ca.resp); err != nil {
		return dst, 0, err
	}
	if ca.resp.Status != wire.StatusOK {
		return dst, int(ca.resp.Status), nil
	}
	for _, it := range ca.resp.Items {
		dst = append(dst, RenewResult{Status: int(it.Status), Code: it.Code.String(), DeadlineUnixMillis: it.DeadlineUnixMilli})
	}
	return dst, int(ca.resp.Status), nil
}

// ReleaseBatch frees every lease in refs in one round trip. Results are
// index-aligned with refs; deadlines are always zero.
func (w *WireClient) ReleaseBatch(refs []LeaseRef, dst []RenewResult) ([]RenewResult, int, error) {
	ca := begin(wire.OpReleaseN)
	defer wireCallPool.Put(ca)
	for _, ref := range refs {
		ca.req.Items = append(ca.req.Items, wire.Ref{Name: int64(ref.Name), Token: ref.Token})
	}
	if err := w.c.Do(&ca.req, &ca.resp); err != nil {
		return dst, 0, err
	}
	if ca.resp.Status != wire.StatusOK {
		return dst, int(ca.resp.Status), nil
	}
	for _, it := range ca.resp.Items {
		dst = append(dst, RenewResult{Status: int(it.Status), Code: it.Code.String()})
	}
	return dst, int(ca.resp.Status), nil
}

// WireCounters exposes the underlying connection pool's syscall-efficiency
// telemetry; loadgen reports it when the API it drives offers it.
func (w *WireClient) WireCounters() wire.Counters { return w.c.Counters() }
