// Package wire is the binary protocol of the name service: persistent
// connections carrying fixed-layout little-endian frames, built to close the
// ~200x gap between the in-process lease hot path (hundreds of nanoseconds)
// and an HTTP/JSON session (tens of microseconds). The HTTP/JSON endpoints
// remain as the compat/debug facade; this protocol is the fast path.
//
// # Frame layout
//
// Every message — request or response — is one frame: a 28-byte fixed header
// followed by an opcode-specific payload. All integers are little-endian.
//
//	offset len field
//	0      2   magic 0x616C ("la")
//	2      1   version (currently 1)
//	3      1   opcode
//	4      2   status (flags in requests — bit 0 is the trace flag;
//	           HTTP-aligned status in responses)
//	6      2   code (0 none; error-code enum mirroring the JSON error strings)
//	8      8   request ID (echoed verbatim in the response)
//	16     8   epoch (cluster table epoch; 0 = unfenced)
//	24     4   payload length (bounded by MaxPayload)
//	28     ..  payload
//
// Requests are matched to responses by request ID, never by order, so a
// client may keep many operations in flight on one connection (pipelining)
// and a server may be extended to answer out of order without breaking
// existing clients.
//
// # Fencing semantics
//
// Statuses reuse the HTTP vocabulary so both protocols express one contract:
// 200 OK, 400 bad request, 409 fencing failure (stale token / not leased,
// distinguished by the code field), 412 stale epoch, 421 not the partition
// owner, 503 unavailable (full/closed/warming, with a retry-after hint in
// the payload). The epoch field fences writes exactly like the
// X-Cluster-Epoch header one protocol over.
//
// # Batching
//
// AcquireN grants up to N names in one frame; ReleaseN and RenewSession
// carry a whole session set, so a heartbeating fleet pays O(connections) —
// not O(leases) — in syscalls. Batch responses report per-item status, so a
// partially stale session set still renews every live lease it names.
//
// Encode/decode is reflection-free and allocation-free on the hot path:
// fixed offsets into reused per-connection buffers, no JSON. The read-side
// debug opcodes (Collect, Stats, Leases, Members) carry their existing JSON
// response bodies as opaque payload bytes — they exist so debug tooling can
// ride the same connection, not for speed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"github.com/levelarray/levelarray/internal/trace"
)

// Frame geometry.
const (
	// Magic is the first two bytes of every frame: "la" little-endian.
	Magic uint16 = 0x616C
	// Version is the protocol version this package speaks.
	Version = 1
	// HeaderLen is the fixed frame-header length in bytes.
	HeaderLen = 28
	// MaxPayload bounds a frame payload; larger length fields are rejected
	// before any allocation, so a hostile peer cannot balloon memory.
	MaxPayload = 1 << 20
	// TraceFlag is the request-header flag (carried in the otherwise-unused
	// status field of a request frame) asking the server to trace this
	// operation under the frame's request ID. Servers that predate the flag
	// ignore request status entirely, so the bit is backward compatible.
	TraceFlag uint16 = 1 << 0
	// MaxBatch bounds the item count of AcquireN/ReleaseN/RenewSession.
	MaxBatch = 4096
	// GrantLen is the encoded size of one Grant.
	GrantLen = 40
	// RefLen is the encoded size of one Ref.
	RefLen = 16
)

// Opcode identifies the operation a frame carries.
type Opcode uint8

// The operation vocabulary. Write ops (Acquire..RenewSession) are fixed
// binary; read ops (Collect..Members) carry JSON payloads for debug tooling.
const (
	OpPing         Opcode = 1  // liveness + epoch probe; empty payloads
	OpAcquire      Opcode = 2  // req: ttl_ms i64           -> resp: Grant
	OpRenew        Opcode = 3  // req: Ref + ttl_ms i64     -> resp: Grant
	OpRelease      Opcode = 4  // req: Ref                  -> resp: empty
	OpAcquireN     Opcode = 5  // req: ttl_ms i64, n u32    -> resp: n u32 + n*Grant
	OpReleaseN     Opcode = 6  // req: n u32 + n*Ref        -> resp: n u32 + n*(status u16, code u16)
	OpRenewSession Opcode = 7  // req: ttl_ms i64, n u32 + n*Ref -> resp: n u32 + n*(status u16, code u16, deadline i64)
	OpCollect      Opcode = 8  // resp payload: CollectResponse JSON
	OpStats        Opcode = 9  // resp payload: stats JSON
	OpLeases       Opcode = 10 // req: start i64, limit i64 -> resp payload: leases JSON
	OpMembers      Opcode = 11 // resp payload: cluster Table JSON (cluster only)
	OpJoin         Opcode = 12 // req payload: JoinRequest JSON -> resp payload: JoinResponse JSON
	OpDrain        Opcode = 13 // req payload: DrainRequest JSON -> resp payload: epoch JSON
	OpRebalance    Opcode = 14 // empty req -> resp payload: RebalanceResponse JSON
)

// String names the opcode for logs and errors.
func (o Opcode) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpAcquire:
		return "acquire"
	case OpRenew:
		return "renew"
	case OpRelease:
		return "release"
	case OpAcquireN:
		return "acquire_n"
	case OpReleaseN:
		return "release_n"
	case OpRenewSession:
		return "renew_session"
	case OpCollect:
		return "collect"
	case OpStats:
		return "stats"
	case OpLeases:
		return "leases"
	case OpMembers:
		return "members"
	case OpJoin:
		return "join"
	case OpDrain:
		return "drain"
	case OpRebalance:
		return "rebalance"
	default:
		return fmt.Sprintf("opcode(%d)", uint8(o))
	}
}

// Status is the response status, aligned with the HTTP vocabulary so both
// protocols express the same contract.
type Status uint16

const (
	StatusOK          Status = 200
	StatusBadRequest  Status = 400
	StatusConflict    Status = 409 // fencing failure: stale token or not leased
	StatusStaleEpoch  Status = 412 // write fenced by the cluster epoch
	StatusNotOwner    Status = 421 // this node does not own the partition
	StatusUnavailable Status = 503 // full, closed, warming, no partitions
	StatusInternal    Status = 500
)

// Code refines a non-2xx status, mirroring the JSON error-code strings so
// both protocols share one error vocabulary.
type Code uint16

const (
	CodeNone         Code = 0
	CodeFull         Code = 1
	CodeStaleToken   Code = 2
	CodeNotLeased    Code = 3
	CodeClosed       Code = 4
	CodeTTLTooLong   Code = 5
	CodeBadRequest   Code = 6
	CodeStaleEpoch   Code = 7
	CodeNotOwner     Code = 8
	CodeWarming      Code = 9
	CodeNoPartitions Code = 10
	CodeInternal     Code = 11
)

// String returns the JSON error-code spelling of the code.
func (c Code) String() string {
	switch c {
	case CodeNone:
		return ""
	case CodeFull:
		return "full"
	case CodeStaleToken:
		return "stale_token"
	case CodeNotLeased:
		return "not_leased"
	case CodeClosed:
		return "closed"
	case CodeTTLTooLong:
		return "ttl_too_long"
	case CodeBadRequest:
		return "bad_request"
	case CodeStaleEpoch:
		return "stale_epoch"
	case CodeNotOwner:
		return "not_owner"
	case CodeWarming:
		return "warming"
	case CodeNoPartitions:
		return "no_partitions"
	case CodeInternal:
		return "internal"
	default:
		return fmt.Sprintf("code(%d)", uint16(c))
	}
}

// ParseCode is the inverse of Code.String: the code a JSON error string
// spells, CodeInternal for one it does not know.
func ParseCode(s string) Code {
	for c := CodeNone; c <= CodeInternal; c++ {
		if c.String() == s {
			return c
		}
	}
	return CodeInternal
}

// Typed decode errors. The fuzz target asserts every malformed input maps to
// one of these (or a wrapped variant) — never a panic.
var (
	// ErrBadMagic means the first two bytes are not the protocol magic; the
	// connection cannot be resynchronized and must be closed.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrBadVersion means the peer speaks an unknown protocol version.
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	// ErrOversizedFrame means the header names a payload above MaxPayload.
	ErrOversizedFrame = errors.New("wire: frame payload exceeds MaxPayload")
	// ErrTruncatedFrame means the buffer ends before the header (or the
	// header-named payload) does.
	ErrTruncatedFrame = errors.New("wire: truncated frame")
	// ErrBadPayload means the payload does not parse under its opcode: a
	// length that disagrees with the fixed layout, or a batch count that
	// disagrees with the item bytes.
	ErrBadPayload = errors.New("wire: malformed payload")
	// ErrBatchTooLarge means a batch op names more than MaxBatch items.
	ErrBatchTooLarge = errors.New("wire: batch exceeds MaxBatch items")
)

// Header is one decoded frame header.
type Header struct {
	Op     Opcode
	Status Status
	Code   Code
	ID     uint64
	Epoch  uint64
	Len    uint32
}

// PutHeader encodes h into buf, which must be at least HeaderLen bytes.
func PutHeader(buf []byte, h Header) {
	binary.LittleEndian.PutUint16(buf[0:2], Magic)
	buf[2] = Version
	buf[3] = uint8(h.Op)
	binary.LittleEndian.PutUint16(buf[4:6], uint16(h.Status))
	binary.LittleEndian.PutUint16(buf[6:8], uint16(h.Code))
	binary.LittleEndian.PutUint64(buf[8:16], h.ID)
	binary.LittleEndian.PutUint64(buf[16:24], h.Epoch)
	binary.LittleEndian.PutUint32(buf[24:28], h.Len)
}

// ParseHeader decodes a frame header, validating magic, version and the
// payload bound. It does not require the payload itself to be present.
func ParseHeader(buf []byte) (Header, error) {
	if len(buf) < HeaderLen {
		return Header{}, ErrTruncatedFrame
	}
	if binary.LittleEndian.Uint16(buf[0:2]) != Magic {
		return Header{}, ErrBadMagic
	}
	if buf[2] != Version {
		return Header{}, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, buf[2], Version)
	}
	h := Header{
		Op:     Opcode(buf[3]),
		Status: Status(binary.LittleEndian.Uint16(buf[4:6])),
		Code:   Code(binary.LittleEndian.Uint16(buf[6:8])),
		ID:     binary.LittleEndian.Uint64(buf[8:16]),
		Epoch:  binary.LittleEndian.Uint64(buf[16:24]),
		Len:    binary.LittleEndian.Uint32(buf[24:28]),
	}
	if h.Len > MaxPayload {
		return Header{}, fmt.Errorf("%w: %d bytes", ErrOversizedFrame, h.Len)
	}
	return h, nil
}

// RIDString renders a frame request ID in the canonical request-ID spelling
// the routed cluster client uses for its HTTP hops ("la-rt-%x"), so one
// operation keeps one trace identity across both protocols. It runs once
// per traced frame, so it formats without fmt.
func RIDString(id uint64) string {
	var buf [len("la-rt-") + 16]byte
	return string(strconv.AppendUint(append(buf[:0], "la-rt-"...), id, 16))
}

// Ref addresses one lease in a request: the fencing pair every Renew and
// Release must present.
type Ref struct {
	Name  int64
	Token uint64
}

// Grant is the binary analogue of the JSON grant/lease response.
type Grant struct {
	Name              int64
	Token             uint64
	DeadlineUnixMilli int64
	NodeID            int32
	Partition         int32
	Epoch             uint64
}

// ItemResult is one entry of a batch response: the per-item outcome of
// ReleaseN (deadline unused) and RenewSession.
type ItemResult struct {
	Status            Status
	Code              Code
	DeadlineUnixMilli int64
}

// putGrant encodes g at buf[off:], returning the next offset.
func putGrant(buf []byte, off int, g Grant) int {
	binary.LittleEndian.PutUint64(buf[off:], uint64(g.Name))
	binary.LittleEndian.PutUint64(buf[off+8:], g.Token)
	binary.LittleEndian.PutUint64(buf[off+16:], uint64(g.DeadlineUnixMilli))
	binary.LittleEndian.PutUint32(buf[off+24:], uint32(g.NodeID))
	binary.LittleEndian.PutUint32(buf[off+28:], uint32(g.Partition))
	binary.LittleEndian.PutUint64(buf[off+32:], g.Epoch)
	return off + GrantLen
}

// getGrant decodes one Grant at buf[off:].
func getGrant(buf []byte, off int) Grant {
	return Grant{
		Name:              int64(binary.LittleEndian.Uint64(buf[off:])),
		Token:             binary.LittleEndian.Uint64(buf[off+8:]),
		DeadlineUnixMilli: int64(binary.LittleEndian.Uint64(buf[off+16:])),
		NodeID:            int32(binary.LittleEndian.Uint32(buf[off+24:])),
		Partition:         int32(binary.LittleEndian.Uint32(buf[off+28:])),
		Epoch:             binary.LittleEndian.Uint64(buf[off+32:]),
	}
}

// Request is one decoded request frame. Decode reuses the Items backing
// array across frames on the same connection, so a Request is only valid
// until the next Decode into it.
type Request struct {
	Op    Opcode
	ID    uint64
	Epoch uint64
	// Trace asks the server to record a span for this operation under the
	// frame's request ID (the TraceFlag bit of the request status field).
	Trace bool
	// Span is the server-side flight-recorder span for this request, opened
	// by the wire server before dispatch so backends can attribute phase
	// time into it. Never encoded; nil when tracing is off.
	Span *trace.Op

	// TTLMillis is the requested TTL for Acquire/Renew/AcquireN/RenewSession
	// (0 = server default, negative = infinite where permitted).
	TTLMillis int64
	// N is the requested grant count of an AcquireN.
	N uint32
	// Start/Limit page an OpLeases request.
	Start, Limit int64
	// Items carries the lease refs of Renew/Release (Items[:1]) and the
	// batch refs of ReleaseN/RenewSession.
	Items []Ref
	// Blob is the JSON payload of the membership control opcodes
	// (Join/Drain); empty for Rebalance. Decode reuses its backing array.
	Blob []byte
}

// DecodeRequest parses a request frame's payload under its header, reusing
// req's Items backing storage. Malformed payloads return ErrBadPayload (or
// ErrBatchTooLarge) without touching the connection state, so a server can
// answer 400 and keep the connection.
func DecodeRequest(h Header, payload []byte, req *Request) error {
	if len(payload) != int(h.Len) {
		return ErrTruncatedFrame
	}
	req.Op = h.Op
	req.ID = h.ID
	req.Epoch = h.Epoch
	req.Trace = uint16(h.Status)&TraceFlag != 0
	req.Span = nil
	req.TTLMillis = 0
	req.N = 0
	req.Start, req.Limit = 0, 0
	req.Items = req.Items[:0]
	req.Blob = req.Blob[:0]

	need := func(n int) bool { return len(payload) == n }
	switch h.Op {
	case OpPing, OpCollect, OpStats, OpMembers, OpRebalance:
		if !need(0) {
			return ErrBadPayload
		}
	case OpJoin, OpDrain:
		req.Blob = append(req.Blob, payload...)
	case OpAcquire:
		if !need(8) {
			return ErrBadPayload
		}
		req.TTLMillis = int64(binary.LittleEndian.Uint64(payload))
	case OpRenew:
		if !need(24) {
			return ErrBadPayload
		}
		req.Items = append(req.Items, Ref{
			Name:  int64(binary.LittleEndian.Uint64(payload)),
			Token: binary.LittleEndian.Uint64(payload[8:]),
		})
		req.TTLMillis = int64(binary.LittleEndian.Uint64(payload[16:]))
	case OpRelease:
		if !need(16) {
			return ErrBadPayload
		}
		req.Items = append(req.Items, Ref{
			Name:  int64(binary.LittleEndian.Uint64(payload)),
			Token: binary.LittleEndian.Uint64(payload[8:]),
		})
	case OpAcquireN:
		if !need(12) {
			return ErrBadPayload
		}
		req.TTLMillis = int64(binary.LittleEndian.Uint64(payload))
		req.N = binary.LittleEndian.Uint32(payload[8:])
		if req.N == 0 || req.N > MaxBatch {
			return ErrBatchTooLarge
		}
	case OpReleaseN:
		return decodeRefBatch(payload, 0, req)
	case OpRenewSession:
		if len(payload) < 8 {
			return ErrBadPayload
		}
		req.TTLMillis = int64(binary.LittleEndian.Uint64(payload))
		return decodeRefBatch(payload, 8, req)
	case OpLeases:
		if !need(16) {
			return ErrBadPayload
		}
		req.Start = int64(binary.LittleEndian.Uint64(payload))
		req.Limit = int64(binary.LittleEndian.Uint64(payload[8:]))
	default:
		return fmt.Errorf("%w: unknown opcode %d", ErrBadPayload, uint8(h.Op))
	}
	return nil
}

// decodeRefBatch parses a `n u32 + n*Ref` run starting at payload[off:].
func decodeRefBatch(payload []byte, off int, req *Request) error {
	if len(payload) < off+4 {
		return ErrBadPayload
	}
	n := binary.LittleEndian.Uint32(payload[off:])
	if n == 0 || n > MaxBatch {
		return ErrBatchTooLarge
	}
	off += 4
	if len(payload) != off+int(n)*RefLen {
		return ErrBadPayload
	}
	for i := 0; i < int(n); i++ {
		req.Items = append(req.Items, Ref{
			Name:  int64(binary.LittleEndian.Uint64(payload[off:])),
			Token: binary.LittleEndian.Uint64(payload[off+8:]),
		})
		off += RefLen
	}
	return nil
}

// AppendRequest encodes one request frame onto dst and returns the extended
// slice; the inverse of DecodeRequest, shared by the client and the fuzz
// round-trip tests.
func AppendRequest(dst []byte, req *Request) []byte {
	var payload int
	switch req.Op {
	case OpPing, OpCollect, OpStats, OpMembers, OpRebalance:
	case OpJoin, OpDrain:
		payload = len(req.Blob)
	case OpAcquire:
		payload = 8
	case OpRenew:
		payload = 24
	case OpRelease:
		payload = 16
	case OpAcquireN:
		payload = 12
	case OpReleaseN:
		payload = 4 + len(req.Items)*RefLen
	case OpRenewSession:
		payload = 8 + 4 + len(req.Items)*RefLen
	case OpLeases:
		payload = 16
	}
	var flags Status
	if req.Trace {
		flags = Status(TraceFlag)
	}
	base := len(dst)
	dst = append(dst, make([]byte, HeaderLen+payload)...)
	PutHeader(dst[base:], Header{Op: req.Op, Status: flags, ID: req.ID, Epoch: req.Epoch, Len: uint32(payload)})
	p := dst[base+HeaderLen:]
	switch req.Op {
	case OpJoin, OpDrain:
		copy(p, req.Blob)
	case OpAcquire:
		binary.LittleEndian.PutUint64(p, uint64(req.TTLMillis))
	case OpRenew:
		binary.LittleEndian.PutUint64(p, uint64(req.Items[0].Name))
		binary.LittleEndian.PutUint64(p[8:], req.Items[0].Token)
		binary.LittleEndian.PutUint64(p[16:], uint64(req.TTLMillis))
	case OpRelease:
		binary.LittleEndian.PutUint64(p, uint64(req.Items[0].Name))
		binary.LittleEndian.PutUint64(p[8:], req.Items[0].Token)
	case OpAcquireN:
		binary.LittleEndian.PutUint64(p, uint64(req.TTLMillis))
		binary.LittleEndian.PutUint32(p[8:], req.N)
	case OpReleaseN:
		binary.LittleEndian.PutUint32(p, uint32(len(req.Items)))
		off := 4
		for _, it := range req.Items {
			binary.LittleEndian.PutUint64(p[off:], uint64(it.Name))
			binary.LittleEndian.PutUint64(p[off+8:], it.Token)
			off += RefLen
		}
	case OpRenewSession:
		binary.LittleEndian.PutUint64(p, uint64(req.TTLMillis))
		binary.LittleEndian.PutUint32(p[8:], uint32(len(req.Items)))
		off := 12
		for _, it := range req.Items {
			binary.LittleEndian.PutUint64(p[off:], uint64(it.Name))
			binary.LittleEndian.PutUint64(p[off+8:], it.Token)
			off += RefLen
		}
	case OpLeases:
		binary.LittleEndian.PutUint64(p, uint64(req.Start))
		binary.LittleEndian.PutUint64(p[8:], uint64(req.Limit))
	}
	return dst
}

// Response is one response's semantic content, filled by a Backend and
// encoded by the server. Slices are reused across requests on a connection.
type Response struct {
	Status Status
	Code   Code
	// Epoch is the responder's current table epoch (0 standalone); it rides
	// in the header so fenced clients learn how far behind they are.
	Epoch uint64
	// RetryAfterMillis paces retries after a 503, as the Retry-After /
	// X-Retry-After-Ms headers do over HTTP.
	RetryAfterMillis int64
	// Grants carries the granted leases of Acquire/Renew (one) and AcquireN.
	Grants []Grant
	// Items carries the per-item outcomes of ReleaseN and RenewSession.
	Items []ItemResult
	// Blob is the JSON payload of the read-side debug opcodes.
	Blob []byte
}

// Reset clears r for reuse without releasing its backing storage.
func (r *Response) Reset() {
	r.Status = StatusOK
	r.Code = CodeNone
	r.Epoch = 0
	r.RetryAfterMillis = 0
	r.Grants = r.Grants[:0]
	r.Items = r.Items[:0]
	r.Blob = r.Blob[:0]
}

// AppendResponse encodes one response frame for op/id onto dst and returns
// the extended slice.
func AppendResponse(dst []byte, op Opcode, id uint64, resp *Response) []byte {
	var payload int
	switch {
	case resp.Status == StatusUnavailable:
		payload = 8 // retry-after hint
	case resp.Status != StatusOK:
		// Errors carry no payload; status, code and epoch live in the header.
	default:
		switch op {
		case OpAcquire, OpRenew:
			payload = GrantLen
		case OpAcquireN:
			payload = 4 + len(resp.Grants)*GrantLen
		case OpReleaseN:
			payload = 4 + len(resp.Items)*4
		case OpRenewSession:
			payload = 4 + len(resp.Items)*12
		case OpCollect, OpStats, OpLeases, OpMembers, OpJoin, OpDrain, OpRebalance:
			payload = len(resp.Blob)
		}
	}
	base := len(dst)
	dst = append(dst, make([]byte, HeaderLen+payload)...)
	PutHeader(dst[base:], Header{
		Op: op, Status: resp.Status, Code: resp.Code,
		ID: id, Epoch: resp.Epoch, Len: uint32(payload),
	})
	p := dst[base+HeaderLen:]
	switch {
	case resp.Status == StatusUnavailable:
		binary.LittleEndian.PutUint64(p, uint64(resp.RetryAfterMillis))
	case resp.Status != StatusOK:
	default:
		switch op {
		case OpAcquire, OpRenew:
			putGrant(p, 0, resp.Grants[0])
		case OpAcquireN:
			binary.LittleEndian.PutUint32(p, uint32(len(resp.Grants)))
			off := 4
			for _, g := range resp.Grants {
				off = putGrant(p, off, g)
			}
		case OpReleaseN:
			binary.LittleEndian.PutUint32(p, uint32(len(resp.Items)))
			off := 4
			for _, it := range resp.Items {
				binary.LittleEndian.PutUint16(p[off:], uint16(it.Status))
				binary.LittleEndian.PutUint16(p[off+2:], uint16(it.Code))
				off += 4
			}
		case OpRenewSession:
			binary.LittleEndian.PutUint32(p, uint32(len(resp.Items)))
			off := 4
			for _, it := range resp.Items {
				binary.LittleEndian.PutUint16(p[off:], uint16(it.Status))
				binary.LittleEndian.PutUint16(p[off+2:], uint16(it.Code))
				binary.LittleEndian.PutUint64(p[off+4:], uint64(it.DeadlineUnixMilli))
				off += 12
			}
		case OpCollect, OpStats, OpLeases, OpMembers, OpJoin, OpDrain, OpRebalance:
			copy(p, resp.Blob)
		}
	}
	return dst
}

// DecodeResponse parses a response frame's payload under its header into
// resp, reusing resp's backing storage. The Blob (when present) aliases
// payload and must be consumed or copied before the buffer is reused.
func DecodeResponse(h Header, payload []byte, resp *Response) error {
	if len(payload) != int(h.Len) {
		return ErrTruncatedFrame
	}
	resp.Reset()
	resp.Status = h.Status
	resp.Code = h.Code
	resp.Epoch = h.Epoch
	switch {
	case h.Status == StatusUnavailable:
		if len(payload) != 8 {
			return ErrBadPayload
		}
		resp.RetryAfterMillis = int64(binary.LittleEndian.Uint64(payload))
		return nil
	case h.Status != StatusOK:
		return nil
	}
	switch h.Op {
	case OpPing, OpRelease:
		if len(payload) != 0 {
			return ErrBadPayload
		}
	case OpAcquire, OpRenew:
		if len(payload) != GrantLen {
			return ErrBadPayload
		}
		resp.Grants = append(resp.Grants, getGrant(payload, 0))
	case OpAcquireN:
		if len(payload) < 4 {
			return ErrBadPayload
		}
		n := binary.LittleEndian.Uint32(payload)
		if n > MaxBatch || len(payload) != 4+int(n)*GrantLen {
			return ErrBadPayload
		}
		for i := 0; i < int(n); i++ {
			resp.Grants = append(resp.Grants, getGrant(payload, 4+i*GrantLen))
		}
	case OpReleaseN:
		if len(payload) < 4 {
			return ErrBadPayload
		}
		n := binary.LittleEndian.Uint32(payload)
		if n > MaxBatch || len(payload) != 4+int(n)*4 {
			return ErrBadPayload
		}
		for i := 0; i < int(n); i++ {
			off := 4 + i*4
			resp.Items = append(resp.Items, ItemResult{
				Status: Status(binary.LittleEndian.Uint16(payload[off:])),
				Code:   Code(binary.LittleEndian.Uint16(payload[off+2:])),
			})
		}
	case OpRenewSession:
		if len(payload) < 4 {
			return ErrBadPayload
		}
		n := binary.LittleEndian.Uint32(payload)
		if n > MaxBatch || len(payload) != 4+int(n)*12 {
			return ErrBadPayload
		}
		for i := 0; i < int(n); i++ {
			off := 4 + i*12
			resp.Items = append(resp.Items, ItemResult{
				Status:            Status(binary.LittleEndian.Uint16(payload[off:])),
				Code:              Code(binary.LittleEndian.Uint16(payload[off+2:])),
				DeadlineUnixMilli: int64(binary.LittleEndian.Uint64(payload[off+4:])),
			})
		}
	case OpCollect, OpStats, OpLeases, OpMembers, OpJoin, OpDrain, OpRebalance:
		resp.Blob = append(resp.Blob, payload...)
	default:
		return fmt.Errorf("%w: unknown opcode %d", ErrBadPayload, uint8(h.Op))
	}
	return nil
}
