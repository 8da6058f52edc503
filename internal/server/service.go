package server

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/shard"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wal"
	"github.com/levelarray/levelarray/internal/wire"
)

// Service is the lease API one backend serves, whatever the protocol: the
// paper's Get/Free/Collect as acquire/renew/release, their batch forms and
// the read-side views. The manager-backed standalone service and the cluster
// node implement it; the HTTP codec (NewMux) and the wire codec
// (WireBackend) are the only code that speaks a protocol over it.
//
// Writes fail with the lease sentinels (activity.ErrFull,
// lease.ErrStaleToken, lease.ErrNotLeased, lease.ErrClosed,
// lease.ErrTTLTooLong), a failed journal (wal.ErrFailed) or an *Error. The
// error table (outcomeOf) is the one place any of them becomes a status and
// a code.
type Service interface {
	Acquire(c Call, ttlMillis int64) (Grant, error)
	Renew(c Call, name int, token uint64, ttlMillis int64) (Grant, error)
	Release(c Call, name int, token uint64) error
	// AcquireN appends up to n grants to dst. It fails only when it granted
	// nothing: a partial batch is a success whose length says how much
	// namespace was left.
	AcquireN(c Call, n int, ttlMillis int64, dst []Grant) ([]Grant, error)
	// RenewN and ReleaseN append one outcome per ref to out, in ref order, so
	// one stale token fails its own item and not the batch. Their error fails
	// the whole batch.
	RenewN(c Call, refs []lease.Ref, ttlMillis int64, out []lease.RenewOutcome) ([]lease.RenewOutcome, error)
	ReleaseN(c Call, refs []lease.Ref, out []lease.RenewOutcome) ([]lease.RenewOutcome, error)

	// The read side. Each returns the JSON body both codecs serve.
	Collect() CollectResponse
	Leases(start, limit int) any
	Stats() any
	Health() any

	// Epoch is the table epoch every wire response carries; 0 standalone.
	Epoch() uint64
	// RetryAfter paces a 503 whose error names no wait: one expirer tick,
	// the granularity at which slots free up.
	RetryAfter() time.Duration
}

// Call is what a codec hands every write: the epoch the request was fenced
// with (0 when it carried none), its flight-recorder span (nil when tracing
// is off) and, for a single-lease write of a wire batch, the batch's
// durability barrier (nil: the write is durable when the call returns).
type Call struct {
	Epoch uint64
	Span  *trace.Op
	// Barrier, when non-nil, defers the write's journal wait: the service
	// applies the write and queues its record on the barrier, and the codec
	// answers only after Barrier.Wait returns nil.
	Barrier *lease.Barrier
	rid     string // the HTTP request's X-Request-ID
	id      uint64 // the wire frame's request id
}

// RID names the request in logs and journal events, in the X-Request-ID
// spelling over either protocol.
func (c Call) RID() string {
	if c.rid == "" && c.id != 0 {
		return wire.RIDString(c.id)
	}
	return c.rid
}

// Grant is one granted or renewed lease. A cluster node's grant also says
// where the lease lives; a standalone grant leaves NodeID, Partition and
// Epoch zero.
type Grant struct {
	Name  int
	Token uint64
	// DeadlineUnixMillis is 0 for an infinite lease.
	DeadlineUnixMillis int64
	NodeID             int
	Partition          int
	Epoch              uint64
}

// GrantOf is the grant of one lease under its own name.
func GrantOf(l lease.Lease) Grant {
	return Grant{Name: l.Name, Token: l.Token, DeadlineUnixMillis: unixMillis(l.Deadline)}
}

// SessionOf is one session's /leases entry under its own name.
func SessionOf(s lease.Session) SessionJSON {
	return SessionJSON{Name: s.Name, Token: s.Token, DeadlineUnixMillis: unixMillis(s.Deadline)}
}

// unixMillis is the wire spelling of a deadline: 0 for an infinite lease.
func unixMillis(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// TTL decodes a request's ttl_ms into the lease layer's TTL (where 0 means
// infinite): 0 selects def, a negative value the longest lease the service
// grants (infinite standalone, MaxTTL on a cluster node).
func TTL(millis int64, def, longest time.Duration) time.Duration {
	switch {
	case millis == 0:
		return def
	case millis < 0:
		return longest
	default:
		return time.Duration(millis) * time.Millisecond
	}
}

// Error is a failure the lease sentinels cannot express: one of the codes
// the cluster adds, with the retry pacing of a 503 or the responder's epoch
// on a 412/421.
type Error struct {
	Code  wire.Code
	Wait  time.Duration
	Epoch uint64
}

func (e *Error) Error() string { return "server: " + e.Code.String() }

// outcome is how both codecs answer one op: the status and code, the retry
// hint of a 503 and the epoch of a 412/421.
type outcome struct {
	status wire.Status
	code   wire.Code
	wait   time.Duration
	epoch  uint64
}

// The error table. Every failure maps to one wire.Code, and the code fixes
// the status (the same number in an HTTP response and a frame header) and
// its JSON spelling (wire.Code.String):
//
//	sentinel / *Error        code           status  carries
//	activity.ErrFull         full           503     retry hint
//	lease.ErrStaleToken      stale_token    409
//	lease.ErrNotLeased       not_leased     409
//	lease.ErrClosed          closed         503     retry hint
//	wal.ErrFailed            closed         503     retry hint
//	lease.ErrTTLTooLong      ttl_too_long   400
//	(malformed request)      bad_request    400
//	*Error                   stale_epoch    412     the responder's epoch
//	*Error                   not_owner      421     the responder's epoch
//	*Error                   warming        503     retry hint
//	*Error                   no_partitions  503     retry hint
//	anything else            internal       500
var leaseCodes = [...]struct {
	err  error
	code wire.Code
}{
	{activity.ErrFull, wire.CodeFull},
	{lease.ErrStaleToken, wire.CodeStaleToken},
	{lease.ErrNotLeased, wire.CodeNotLeased},
	{lease.ErrClosed, wire.CodeClosed},
	{wal.ErrFailed, wire.CodeClosed},
	{lease.ErrTTLTooLong, wire.CodeTTLTooLong},
}

func statusOf(c wire.Code) wire.Status {
	switch c {
	case wire.CodeNone:
		return wire.StatusOK
	case wire.CodeStaleToken, wire.CodeNotLeased:
		return wire.StatusConflict
	case wire.CodeTTLTooLong, wire.CodeBadRequest:
		return wire.StatusBadRequest
	case wire.CodeStaleEpoch:
		return wire.StatusStaleEpoch
	case wire.CodeNotOwner:
		return wire.StatusNotOwner
	case wire.CodeFull, wire.CodeClosed, wire.CodeWarming, wire.CodeNoPartitions:
		return wire.StatusUnavailable
	default:
		return wire.StatusInternal
	}
}

// outcomeOf maps err through the error table. Every 503 carries a retry
// hint: the wait its error names, else the service's RetryAfter.
func outcomeOf(svc Service, err error) outcome {
	o := outcome{}
	if err != nil {
		o.code = wire.CodeInternal
		var e *Error
		if errors.As(err, &e) {
			o.code, o.wait, o.epoch = e.Code, e.Wait, e.Epoch
		} else {
			for _, lc := range leaseCodes {
				if errors.Is(err, lc.err) {
					o.code = lc.code
					break
				}
			}
		}
	}
	o.status = statusOf(o.code)
	if o.status == wire.StatusUnavailable && o.wait <= 0 {
		o.wait = svc.RetryAfter()
	}
	return o
}

// retryMillis is a 503's retry hint in whole milliseconds, at least 1, as
// both the X-Retry-After-Ms header and the frame payload carry it.
func retryMillis(wait time.Duration) int64 {
	return max(wait.Milliseconds(), 1)
}

// opCore runs each single-lease op for both codecs and records its metrics
// there, once.
type opCore struct {
	svc Service
	m   *Metrics
}

func (c opCore) acquire(call Call, ttlMillis int64) (Grant, outcome) {
	start := time.Now()
	g, err := c.svc.Acquire(call, ttlMillis)
	return g, c.finish(opAcquire, start, call, err)
}

func (c opCore) renew(call Call, name int, token uint64, ttlMillis int64) (Grant, outcome) {
	start := time.Now()
	g, err := c.svc.Renew(call, name, token, ttlMillis)
	return g, c.finish(opRenew, start, call, err)
}

func (c opCore) release(call Call, name int, token uint64) outcome {
	start := time.Now()
	return c.finish(opRelease, start, call, c.svc.Release(call, name, token))
}

// finish maps a single-lease op's final error through the error table and
// records the op once, with its latency since start.
func (c opCore) finish(op int, start time.Time, call Call, err error) outcome {
	o := outcomeOf(c.svc, err)
	c.m.observe(op, start, o, call.Span.RID())
	return o
}

// managerService is the standalone Service over one lease.Manager. It has no
// table, so a request's epoch is ignored, and it grants infinite leases.
type managerService struct {
	mgr        *lease.Manager
	defaultTTL time.Duration
	started    time.Time
}

func newManagerService(mgr *lease.Manager, cfg Config) *managerService {
	if cfg.DefaultTTL <= 0 {
		cfg.DefaultTTL = 10 * time.Second
	}
	return &managerService{mgr: mgr, defaultTTL: cfg.DefaultTTL, started: time.Now()}
}

func (s *managerService) Acquire(c Call, ttlMillis int64) (Grant, error) {
	l, err := s.mgr.AcquireSpan(TTL(ttlMillis, s.defaultTTL, 0), c.Span, c.Barrier)
	return GrantOf(l), err
}

func (s *managerService) Renew(c Call, name int, token uint64, ttlMillis int64) (Grant, error) {
	l, err := s.mgr.RenewSpan(name, token, TTL(ttlMillis, s.defaultTTL, 0), c.Span, c.Barrier)
	return GrantOf(l), err
}

func (s *managerService) Release(c Call, name int, token uint64) error {
	return s.mgr.ReleaseSpan(name, token, c.Span, c.Barrier)
}

// leaseScratch pools AcquireN's lease buffer so the batch path stays
// allocation-free at steady state.
var leaseScratch = sync.Pool{New: func() any { return new([]lease.Lease) }}

func (s *managerService) AcquireN(c Call, n int, ttlMillis int64, dst []Grant) ([]Grant, error) {
	buf := leaseScratch.Get().(*[]lease.Lease)
	defer leaseScratch.Put(buf)
	leases, err := s.mgr.AcquireN(n, TTL(ttlMillis, s.defaultTTL, 0), (*buf)[:0])
	*buf = leases
	if len(leases) == 0 {
		if err == nil {
			err = activity.ErrFull
		}
		return dst, err
	}
	for _, l := range leases {
		dst = append(dst, GrantOf(l))
	}
	return dst, nil
}

func (s *managerService) RenewN(c Call, refs []lease.Ref, ttlMillis int64, out []lease.RenewOutcome) ([]lease.RenewOutcome, error) {
	return s.mgr.RenewAll(refs, TTL(ttlMillis, s.defaultTTL, 0), out)
}

func (s *managerService) ReleaseN(c Call, refs []lease.Ref, out []lease.RenewOutcome) ([]lease.RenewOutcome, error) {
	for _, ref := range refs {
		out = append(out, lease.RenewOutcome{Err: s.mgr.Release(ref.Name, ref.Token)})
	}
	return out, nil
}

func (s *managerService) Collect() CollectResponse {
	names := s.mgr.Collect(nil)
	if names == nil {
		names = []int{}
	}
	return CollectResponse{Count: len(names), Names: names}
}

func (s *managerService) Leases(start, limit int) any {
	page, next := s.mgr.Sessions(start, limit)
	resp := LeasesResponse{Sessions: make([]SessionJSON, 0, len(page)), Next: next, Active: s.mgr.Active()}
	for _, sess := range page {
		resp.Sessions = append(resp.Sessions, SessionOf(sess))
	}
	return resp
}

func (s *managerService) Stats() any {
	resp := StatsResponse{
		Lease:        s.mgr.Stats(),
		Capacity:     s.mgr.Capacity(),
		Size:         s.mgr.Size(),
		TickMillis:   s.mgr.TickInterval().Milliseconds(),
		UptimeMillis: time.Since(s.started).Milliseconds(),
	}
	if sharded, ok := s.mgr.Array().(*shard.Sharded); ok {
		resp.Shards = sharded.ShardStats()
	}
	return resp
}

func (s *managerService) Health() any {
	return HealthzResponse{
		OK:           true,
		Version:      BuildVersion(),
		GoVersion:    runtime.Version(),
		UptimeMillis: time.Since(s.started).Milliseconds(),
	}
}

func (s *managerService) Epoch() uint64 { return 0 }

func (s *managerService) RetryAfter() time.Duration { return s.mgr.TickInterval() }
