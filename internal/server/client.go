package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/metrics"
	"github.com/levelarray/levelarray/internal/wire"
)

// Write is one fenced lease write, spelled the same way for both clients:
// an acquire, renew or release.
type Write struct {
	// Op is wire.OpAcquire, wire.OpRenew or wire.OpRelease.
	Op        wire.Opcode
	Name      int
	Token     uint64
	TTLMillis int64
	// Epoch fences the write with the sender's table epoch; 0 sends it
	// unfenced.
	Epoch uint64
	// ID is the request ID, sent as X-Request-ID over HTTP and as the frame
	// ID over wire; 0 lets the responder (HTTP) or the wire client mint one.
	ID uint64
}

// Answer is a member's reply to one Write, whatever the protocol.
type Answer struct {
	Status int
	// Code is the error table's code, "" on success.
	Code string
	// Epoch is the epoch the responder advertised: its current one on a
	// 412/421 and on every wire answer, the grant's on an HTTP grant.
	Epoch uint64
	// Retry is a 503's retry hint (zero when the responder sent none).
	Retry time.Duration
	// Grant is the granted or renewed lease of a 2xx acquire or renew.
	Grant GrantResponse
}

// Conn is one member over one protocol: Client speaks HTTP/JSON, WireClient
// the binary protocol. Both spell every request the way the codec of the
// same protocol (NewMux, WireBackend) reads it, so a caller picks a protocol
// and never an encoding.
type Conn interface {
	// Write sends one lease write. Its error is a transport failure only;
	// every answer the member gave, failures included, is in the Answer.
	Write(w Write) (Answer, error)
	// Read decodes one read-side view into out: wire.OpStats, OpCollect,
	// OpMembers (a cluster member's table), or OpLeases, the page of at
	// most limit sessions from name start.
	Read(op wire.Opcode, start, limit int, out any) error
	// Control runs one membership call on a cluster member, wire.OpJoin,
	// OpDrain or OpRebalance, with in as its JSON body (nil for none), and
	// decodes the reply into out.
	Control(op wire.Opcode, in, out any) error
}

// LeaseAPI is what RunLoad drives against one service: the lease ops plus
// the statistics its drain and expiry checks read. Both clients implement
// it.
type LeaseAPI interface {
	LeaseOps
	Stats() (StatsResponse, error)
}

// leaseCalls is the LeaseAPI both clients share, spelled once over their
// Write and Read.
type leaseCalls struct{ conn Conn }

// Acquire requests a lease; see AcquireRequest.TTLMillis for the encoding.
// On a 503 the returned duration carries the server's retry pacing hint.
func (l leaseCalls) Acquire(ttlMillis int64) (GrantResponse, int, time.Duration, error) {
	a, err := l.conn.Write(Write{Op: wire.OpAcquire, TTLMillis: ttlMillis})
	return a.Grant, a.Status, a.Retry, err
}

// Renew extends a lease.
func (l leaseCalls) Renew(name int, token uint64, ttlMillis int64) (GrantResponse, int, error) {
	a, err := l.conn.Write(Write{Op: wire.OpRenew, Name: name, Token: token, TTLMillis: ttlMillis})
	return a.Grant, a.Status, err
}

// Release frees a lease.
func (l leaseCalls) Release(name int, token uint64) (int, error) {
	a, err := l.conn.Write(Write{Op: wire.OpRelease, Name: name, Token: token})
	return a.Status, err
}

// Stats fetches the service statistics.
func (l leaseCalls) Stats() (StatsResponse, error) {
	var s StatsResponse
	err := l.conn.Read(wire.OpStats, 0, 0, &s)
	return s, err
}

// Client is the HTTP/JSON client of one member or standalone service, safe
// for concurrent use.
type Client struct {
	leaseCalls
	base string
	hc   *http.Client
}

// NewClient builds a client for the service at base (e.g.
// "http://127.0.0.1:8080"). A nil hc selects a transport tuned for many
// concurrent loopback connections.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 0
		tr.MaxIdleConnsPerHost = 1024
		hc = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	c := &Client{base: base, hc: hc}
	c.leaseCalls = leaseCalls{c}
	return c
}

// httpRoutes spells the read and control opcodes as HTTP routes.
var httpRoutes = map[wire.Opcode]string{
	wire.OpStats: "/stats", wire.OpCollect: "/collect", wire.OpLeases: "/leases", wire.OpMembers: "/cluster",
	wire.OpJoin: "/cluster/join", wire.OpDrain: "/cluster/drain", wire.OpRebalance: "/cluster/rebalance",
}

// Write implements Conn: a POST with the epoch and request ID in their
// headers, answered by a grant, an error body and, on a 503, the retry
// headers.
func (c *Client) Write(w Write) (Answer, error) {
	var path string
	var body any
	switch w.Op {
	case wire.OpAcquire:
		path, body = "/acquire", AcquireRequest{TTLMillis: w.TTLMillis}
	case wire.OpRenew:
		path, body = "/renew", RenewRequest{Name: w.Name, Token: w.Token, TTLMillis: w.TTLMillis}
	case wire.OpRelease:
		path, body = "/release", ReleaseRequest{Name: w.Name, Token: w.Token}
	default:
		return Answer{}, fmt.Errorf("server: %v is not a lease write", w.Op)
	}
	hdr := http.Header{}
	if w.ID != 0 {
		hdr.Set(RequestIDHeader, wire.RIDString(w.ID))
	}
	if w.Epoch != 0 {
		hdr.Set(EpochHeader, strconv.FormatUint(w.Epoch, 10))
	}
	// One shape decodes every answer: a grant, or an error body whose epoch
	// (a 412/421's) lands where a grant's would.
	var reply struct {
		GrantResponse
		Error string `json:"error"`
	}
	status, header, err := PostJSON(c.hc, c.base+path, hdr, body, &reply, &reply)
	if err != nil {
		return Answer{}, err
	}
	a := Answer{Status: status, Code: reply.Error, Epoch: reply.Epoch, Retry: RetryAfterHint(header, 0)}
	if status/100 == 2 {
		a.Grant = reply.GrantResponse
	}
	return a, nil
}

// Read implements Conn with one GET.
func (c *Client) Read(op wire.Opcode, start, limit int, out any) error {
	path := httpRoutes[op]
	if op == wire.OpLeases {
		path += fmt.Sprintf("?start=%d&limit=%d", start, limit)
	}
	return c.Get(path, out)
}

// Get decodes the 2xx JSON body of GET path into out: Read's routes, or the
// member's HTTP-only debug routes.
func (c *Client) Get(path string, out any) error {
	status, err := GetJSON(c.hc, c.base+path, out)
	if err == nil && status/100 != 2 {
		err = fmt.Errorf("server: GET %s%s returned %d", c.base, path, status)
	}
	return err
}

// Scrape reads and parses the member's /metrics exposition. A non-2xx
// answer is an error that still returns its status, so a caller can tell
// metrics turned off (404) from a dead member.
func (c *Client) Scrape() ([]metrics.Sample, int, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return nil, resp.StatusCode, fmt.Errorf("GET %s/metrics returned %d (metrics disabled or served elsewhere?)", c.base, resp.StatusCode)
	}
	samples, err := metrics.ParseText(resp.Body)
	return samples, resp.StatusCode, err
}

// Control implements Conn with one POST; a non-steward member proxies it to
// the steward.
func (c *Client) Control(op wire.Opcode, in, out any) error {
	if in == nil {
		in = struct{}{}
	}
	url := c.base + httpRoutes[op]
	var fail ErrorResponse
	status, _, err := PostJSON(c.hc, url, nil, in, out, &fail)
	if err == nil && status/100 != 2 {
		err = fmt.Errorf("server: POST %s returned %d (%s)", url, status, fail.Error)
	}
	return err
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

// WireClient is the binary-protocol client over a wire.Client: the same
// Conn and LeaseAPI as the HTTP Client, with identical statuses and TTL
// encoding, plus the batch operations only the binary protocol offers. Safe
// for concurrent use.
type WireClient struct {
	leaseCalls
	c *wire.Client
}

// NewWireClient wraps c. The caller keeps ownership (and Close duty) of c.
func NewWireClient(c *wire.Client) *WireClient {
	w := &WireClient{c: c}
	w.leaseCalls = leaseCalls{w}
	return w
}

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
	ca.req = wire.Request{Op: op, Items: ca.req.Items[:0], Blob: ca.req.Blob[:0]}
	return ca
}

// grantFromWire converts a frame grant to the JSON-shaped grant every
// client returns regardless of transport.
func grantFromWire(g wire.Grant) GrantResponse {
	return GrantResponse{
		Name: int(g.Name), Token: g.Token, DeadlineUnixMillis: g.DeadlineUnixMilli,
		NodeID: int(g.NodeID), Partition: int(g.Partition), Epoch: g.Epoch,
	}
}

// Write implements Conn: one frame, with the epoch and request ID in its
// header and the answer's status, code, epoch and retry hint in the reply's.
func (w *WireClient) Write(wr Write) (Answer, error) {
	ca := begin(wr.Op)
	defer wireCallPool.Put(ca)
	ca.req.Epoch, ca.req.ID, ca.req.TTLMillis = wr.Epoch, wr.ID, wr.TTLMillis
	if wr.Op != wire.OpAcquire {
		ca.req.Items = append(ca.req.Items, wire.Ref{Name: int64(wr.Name), Token: wr.Token})
	}
	if err := w.c.Do(&ca.req, &ca.resp); err != nil {
		return Answer{}, err
	}
	r := &ca.resp
	a := Answer{Status: int(r.Status), Code: r.Code.String(), Epoch: r.Epoch, Retry: time.Duration(r.RetryAfterMillis) * time.Millisecond}
	if r.Status == wire.StatusOK && len(r.Grants) == 1 {
		a.Grant = grantFromWire(r.Grants[0])
	}
	return a, nil
}

// Read implements Conn with one read opcode, whose JSON rides the reply's
// blob.
func (w *WireClient) Read(op wire.Opcode, start, limit int, out any) error {
	ca := begin(op)
	defer wireCallPool.Put(ca)
	ca.req.Start, ca.req.Limit = int64(start), int64(limit)
	return w.blob(ca, out)
}

// Control implements Conn with one control opcode. The wire control plane
// does not proxy: a member that is not the steward answers 421.
func (w *WireClient) Control(op wire.Opcode, in, out any) error {
	ca := begin(op)
	defer wireCallPool.Put(ca)
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return err
		}
		ca.req.Blob = append(ca.req.Blob, blob...)
	}
	return w.blob(ca, out)
}

// blob sends a read or control frame and decodes its JSON reply into out.
func (w *WireClient) blob(ca *wireCall, out any) error {
	if err := w.c.Do(&ca.req, &ca.resp); err != nil {
		return err
	}
	if ca.resp.Status != wire.StatusOK {
		return fmt.Errorf("server: wire %v returned status %d (%s)", ca.req.Op, ca.resp.Status, ca.resp.Code)
	}
	return json.Unmarshal(ca.resp.Blob, out)
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
		dst = append(dst, grantFromWire(g))
	}
	return dst, status, 0, nil
}

// RenewSession bulk-renews every lease in refs to one shared TTL, one round
// trip for the whole session set. Results are index-aligned with refs.
func (w *WireClient) RenewSession(refs []LeaseRef, ttlMillis int64, dst []RenewResult) ([]RenewResult, int, error) {
	return w.refsBatch(wire.OpRenewSession, refs, ttlMillis, dst)
}

// ReleaseBatch frees every lease in refs in one round trip. Results are
// index-aligned with refs; deadlines are always zero.
func (w *WireClient) ReleaseBatch(refs []LeaseRef, dst []RenewResult) ([]RenewResult, int, error) {
	return w.refsBatch(wire.OpReleaseN, refs, 0, dst)
}

// refsBatch sends one batch frame over refs and appends its per-item
// results to dst.
func (w *WireClient) refsBatch(op wire.Opcode, refs []LeaseRef, ttlMillis int64, dst []RenewResult) ([]RenewResult, int, error) {
	ca := begin(op)
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

// WireCounters exposes the underlying connection pool's syscall-efficiency
// telemetry; loadgen reports it when the API it drives offers it.
func (w *WireClient) WireCounters() wire.Counters { return w.c.Counters() }
