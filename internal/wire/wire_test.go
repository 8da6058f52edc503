package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Op:     OpRenewSession,
		Status: StatusStaleEpoch,
		Code:   CodeStaleEpoch,
		ID:     0xDEADBEEFCAFE,
		Epoch:  42,
		Len:    1234,
	}
	var buf [HeaderLen]byte
	PutHeader(buf[:], h)
	got, err := ParseHeader(buf[:])
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	valid := make([]byte, HeaderLen)
	PutHeader(valid, Header{Op: OpPing})

	short := valid[:HeaderLen-1]
	if _, err := ParseHeader(short); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("short header: %v, want ErrTruncatedFrame", err)
	}

	badMagic := bytes.Clone(valid)
	badMagic[0] = 'x'
	if _, err := ParseHeader(badMagic); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v, want ErrBadMagic", err)
	}

	badVersion := bytes.Clone(valid)
	badVersion[2] = 99
	if _, err := ParseHeader(badVersion); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v, want ErrBadVersion", err)
	}

	oversized := bytes.Clone(valid)
	PutHeader(oversized, Header{Op: OpPing, Len: MaxPayload + 1})
	if _, err := ParseHeader(oversized); !errors.Is(err, ErrOversizedFrame) {
		t.Fatalf("oversized: %v, want ErrOversizedFrame", err)
	}
}

// reqEqual compares requests field by field, treating nil and empty Items as
// equal (decode reuses backing storage, so the slice header may differ).
func reqEqual(a, b Request) bool {
	if a.Op != b.Op || a.ID != b.ID || a.Epoch != b.Epoch ||
		a.TTLMillis != b.TTLMillis || a.N != b.N || a.Start != b.Start || a.Limit != b.Limit {
		return false
	}
	if len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	return bytes.Equal(a.Blob, b.Blob)
}

func requestCases() []Request {
	return []Request{
		{Op: OpPing, ID: 1},
		{Op: OpAcquire, ID: 2, Epoch: 7, TTLMillis: 1500},
		{Op: OpAcquire, ID: 3, TTLMillis: -1},
		{Op: OpRenew, ID: 4, Epoch: 9, TTLMillis: 250, Items: []Ref{{Name: 17, Token: 0xABCD}}},
		{Op: OpRelease, ID: 5, Items: []Ref{{Name: 3, Token: 99}}},
		{Op: OpAcquireN, ID: 6, TTLMillis: 100, N: 64},
		{Op: OpReleaseN, ID: 7, Items: []Ref{{Name: 1, Token: 2}, {Name: 3, Token: 4}}},
		{Op: OpRenewSession, ID: 8, TTLMillis: 500, Items: []Ref{{Name: 10, Token: 11}, {Name: 12, Token: 13}, {Name: 14, Token: 15}}},
		{Op: OpCollect, ID: 9},
		{Op: OpStats, ID: 10},
		{Op: OpLeases, ID: 11, Start: 100, Limit: 50},
		{Op: OpMembers, ID: 12},
		{Op: OpJoin, ID: 13, Blob: []byte(`{"addr":"http://127.0.0.1:7001"}`)},
		{Op: OpDrain, ID: 14, Blob: []byte(`{"id":2}`)},
		{Op: OpRebalance, ID: 15},
	}
}

func TestRIDStringSpelling(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xDEADBEEFCAFE, 1<<63 | 5, ^uint64(0)} {
		if got, want := RIDString(id), fmt.Sprintf("la-rt-%x", id); got != want {
			t.Fatalf("RIDString(%#x) = %q, want %q", id, got, want)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	var dec Request // reused across cases, as a server connection would
	for _, req := range requestCases() {
		frame := AppendRequest(nil, &req)
		h, err := ParseHeader(frame)
		if err != nil {
			t.Fatalf("%v: ParseHeader: %v", req.Op, err)
		}
		if int(h.Len) != len(frame)-HeaderLen {
			t.Fatalf("%v: header len %d, frame payload %d", req.Op, h.Len, len(frame)-HeaderLen)
		}
		if err := DecodeRequest(h, frame[HeaderLen:], &dec); err != nil {
			t.Fatalf("%v: DecodeRequest: %v", req.Op, err)
		}
		if !reqEqual(dec, req) {
			t.Fatalf("%v: round trip: got %+v, want %+v", req.Op, dec, req)
		}
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	mk := func(op Opcode, payload []byte) (Header, []byte) {
		return Header{Op: op, Len: uint32(len(payload))}, payload
	}
	var req Request

	// Payload shorter than the header claims.
	h, _ := mk(OpAcquire, make([]byte, 8))
	if err := DecodeRequest(h, nil, &req); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("truncated payload: %v, want ErrTruncatedFrame", err)
	}

	// Wrong fixed lengths.
	for _, tc := range []struct {
		op  Opcode
		len int
	}{
		{OpPing, 1}, {OpAcquire, 7}, {OpRenew, 23}, {OpRelease, 15},
		{OpAcquireN, 11}, {OpLeases, 8}, {OpReleaseN, 3},
	} {
		h, p := mk(tc.op, make([]byte, tc.len))
		if err := DecodeRequest(h, p, &req); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("%v with %d bytes: %v, want ErrBadPayload", tc.op, tc.len, err)
		}
	}

	// Unknown opcode.
	h, p := mk(Opcode(200), nil)
	if err := DecodeRequest(h, p, &req); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("unknown opcode: %v, want ErrBadPayload", err)
	}

	// Batch bounds: zero and oversized counts.
	zero := AppendRequest(nil, &Request{Op: OpAcquireN, TTLMillis: 1, N: 0})
	h, err := ParseHeader(zero)
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if err := DecodeRequest(h, zero[HeaderLen:], &req); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("AcquireN n=0: %v, want ErrBatchTooLarge", err)
	}
	big := AppendRequest(nil, &Request{Op: OpAcquireN, TTLMillis: 1, N: MaxBatch + 1})
	h, _ = ParseHeader(big)
	if err := DecodeRequest(h, big[HeaderLen:], &req); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("AcquireN n>max: %v, want ErrBatchTooLarge", err)
	}

	// A ref batch whose count disagrees with its item bytes.
	bad := AppendRequest(nil, &Request{Op: OpReleaseN, Items: []Ref{{Name: 1, Token: 2}}})
	bad = bad[:len(bad)-1] // drop one byte of the last ref
	h = Header{Op: OpReleaseN, Len: uint32(len(bad) - HeaderLen)}
	if err := DecodeRequest(h, bad[HeaderLen:], &req); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short ref batch: %v, want ErrBadPayload", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	grant := Grant{Name: 12, Token: 34, DeadlineUnixMilli: 56, NodeID: 1, Partition: 2, Epoch: 3}
	cases := []struct {
		op   Opcode
		resp Response
	}{
		{OpPing, Response{Status: StatusOK, Epoch: 5}},
		{OpAcquire, Response{Status: StatusOK, Epoch: 5, Grants: []Grant{grant}}},
		{OpRenew, Response{Status: StatusOK, Grants: []Grant{grant}}},
		{OpRelease, Response{Status: StatusOK}},
		{OpAcquireN, Response{Status: StatusOK, Grants: []Grant{grant, {Name: 77, Token: 88}}}},
		{OpReleaseN, Response{Status: StatusOK, Items: []ItemResult{{Status: StatusOK}, {Status: StatusConflict, Code: CodeStaleToken}}}},
		{OpRenewSession, Response{Status: StatusOK, Items: []ItemResult{{Status: StatusOK, DeadlineUnixMilli: 123456}, {Status: StatusConflict, Code: CodeNotLeased}}}},
		{OpStats, Response{Status: StatusOK, Blob: []byte(`{"active":3}`)}},
		{OpJoin, Response{Status: StatusOK, Blob: []byte(`{"id":3}`)}},
		{OpDrain, Response{Status: StatusOK, Blob: []byte(`{"adopted":true,"epoch":8}`)}},
		{OpRebalance, Response{Status: StatusOK, Blob: []byte(`{"moved":true}`)}},
		{OpJoin, Response{Status: StatusNotOwner, Code: CodeNotOwner, Epoch: 4}},
		{OpAcquire, Response{Status: StatusUnavailable, Code: CodeFull, Epoch: 2, RetryAfterMillis: 150}},
		{OpRenew, Response{Status: StatusConflict, Code: CodeStaleToken}},
		{OpAcquire, Response{Status: StatusStaleEpoch, Code: CodeStaleEpoch, Epoch: 9}},
	}
	var dec Response
	for _, tc := range cases {
		frame := AppendResponse(nil, tc.op, 42, &tc.resp)
		h, err := ParseHeader(frame)
		if err != nil {
			t.Fatalf("%v: ParseHeader: %v", tc.op, err)
		}
		if h.ID != 42 {
			t.Fatalf("%v: ID %d, want 42", tc.op, h.ID)
		}
		if err := DecodeResponse(h, frame[HeaderLen:], &dec); err != nil {
			t.Fatalf("%v: DecodeResponse: %v", tc.op, err)
		}
		if dec.Status != tc.resp.Status || dec.Code != tc.resp.Code || dec.Epoch != tc.resp.Epoch {
			t.Fatalf("%v: status/code/epoch: got %+v, want %+v", tc.op, dec, tc.resp)
		}
		if tc.resp.Status == StatusUnavailable && dec.RetryAfterMillis != tc.resp.RetryAfterMillis {
			t.Fatalf("%v: retry hint %d, want %d", tc.op, dec.RetryAfterMillis, tc.resp.RetryAfterMillis)
		}
		if tc.resp.Status != StatusOK {
			continue // error responses carry no body
		}
		if !reflect.DeepEqual(append([]Grant{}, dec.Grants...), append([]Grant{}, tc.resp.Grants...)) {
			t.Fatalf("%v: grants: got %+v, want %+v", tc.op, dec.Grants, tc.resp.Grants)
		}
		if !reflect.DeepEqual(append([]ItemResult{}, dec.Items...), append([]ItemResult{}, tc.resp.Items...)) {
			t.Fatalf("%v: items: got %+v, want %+v", tc.op, dec.Items, tc.resp.Items)
		}
		if !bytes.Equal(dec.Blob, tc.resp.Blob) {
			t.Fatalf("%v: blob: got %q, want %q", tc.op, dec.Blob, tc.resp.Blob)
		}
	}
}

// echoBackend answers Acquire with a grant echoing the request's TTL and ID,
// so concurrent clients can verify responses land on the right callers.
type echoBackend struct{ calls sync.Map }

func (b *echoBackend) ServeWire(req *Request, resp *Response) {
	switch req.Op {
	case OpPing:
		resp.Status = StatusOK
		resp.Epoch = 77
	case OpAcquire:
		resp.Status = StatusOK
		resp.Grants = append(resp.Grants, Grant{Name: req.TTLMillis, Token: req.ID})
		b.calls.Store(req.ID, struct{}{})
	case OpRenewSession:
		resp.Status = StatusOK
		for _, it := range req.Items {
			resp.Items = append(resp.Items, ItemResult{Status: StatusOK, DeadlineUnixMilli: it.Name + int64(it.Token)})
		}
	default:
		resp.Status = StatusUnavailable
		resp.Code = CodeFull
		resp.RetryAfterMillis = 31
	}
}

func startTestServer(t *testing.T, backend Backend) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(backend)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, ln.Addr().String()
}

func TestClientServerPipelined(t *testing.T) {
	backend := &echoBackend{}
	_, addr := startTestServer(t, backend)
	cl := NewClient(addr, &ClientConfig{Conns: 2})
	defer cl.Close()

	const goroutines, perG = 16, 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var req Request
			var resp Response
			for i := 0; i < perG; i++ {
				req = Request{Op: OpAcquire, TTLMillis: int64(g*perG + i)}
				if err := cl.Do(&req, &resp); err != nil {
					errs <- err
					return
				}
				if resp.Status != StatusOK || len(resp.Grants) != 1 {
					errs <- errors.New("unexpected response shape")
					return
				}
				// The grant echoes the TTL: a cross-wired response (wrong
				// request ID) would echo someone else's.
				if resp.Grants[0].Name != int64(g*perG+i) {
					errs <- errors.New("response delivered to the wrong caller")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	c := cl.Counters()
	if c.Ops != goroutines*perG {
		t.Fatalf("Ops = %d, want %d", c.Ops, goroutines*perG)
	}
	if c.Dials > 2 {
		t.Fatalf("Dials = %d, want <= 2 (pooled conns)", c.Dials)
	}
	t.Logf("ops=%d dials=%d frames=%d flushes=%d", c.Ops, c.Dials, c.FramesSent, c.Flushes)
	// With 16 goroutines on 2 conns, each connection's writer must hand the
	// kernel the frames of several callers per write.
	if c.FramesSent < 2*c.Flushes {
		t.Fatalf("FramesSent %d < 2*Flushes %d: concurrent callers' frames were not coalesced", c.FramesSent, c.Flushes)
	}
}

// silentPeer accepts connections and reads every frame sent to it without
// ever answering.
func silentPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(io.Discard, nc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

func TestClientCallTimeout(t *testing.T) {
	addr := silentPeer(t)
	const timeout = 50 * time.Millisecond
	cl := NewClient(addr, &ClientConfig{CallTimeout: timeout})

	var req Request
	var resp Response
	// Time out twice on one client: the second call redials, and usually
	// gets the first call back from callPool, fired timer included.
	for i := 1; i <= 2; i++ {
		req = Request{Op: OpPing}
		start := time.Now()
		err := cl.Do(&req, &resp)
		if err == nil || !strings.Contains(err.Error(), "call timeout") {
			t.Fatalf("call %d: Do = %v, want a call timeout", i, err)
		}
		if took := time.Since(start); took < timeout {
			t.Fatalf("call %d failed after %v, before the %v timeout", i, took, timeout)
		}
		if cn := cl.slots[0].c.Load(); cn == nil || !cn.dead.Load() {
			t.Fatalf("call %d: connection not marked dead after a timeout", i)
		}
		if got := cl.Counters().Dials; got != uint64(i) {
			t.Fatalf("after call %d: Dials = %d, want %d", i, got, i)
		}
	}
	if got := cl.Counters().Ops; got != 0 {
		t.Fatalf("Ops = %d, want 0: no call was answered", got)
	}
	cl.Close()
}

// TestClientPeerClosesMidFlight has the peer close a connection shared by 16
// callers while their frames are queued: every call must return, with a
// response or an error, and Close must return once the connection's reader
// and writer have exited.
func TestClientPeerClosesMidFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	const answered = 100
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		// Refuse redials, so callers stop once the connection dies.
		ln.Close()
		defer nc.Close()
		var hdr [HeaderLen]byte
		payload := make([]byte, MaxPayload)
		var out []byte
		for i := 0; i < answered; i++ {
			if _, err := io.ReadFull(nc, hdr[:]); err != nil {
				return
			}
			h, err := ParseHeader(hdr[:])
			if err != nil {
				return
			}
			if _, err := io.ReadFull(nc, payload[:h.Len]); err != nil {
				return
			}
			out = AppendResponse(out[:0], h.Op, h.ID, &Response{Status: StatusOK})
			if _, err := nc.Write(out); err != nil {
				return
			}
		}
	}()

	cl := NewClient(ln.Addr().String(), &ClientConfig{Conns: 1})
	const callers = 16
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var req Request
			var resp Response
			for {
				req = Request{Op: OpPing}
				if err := cl.Do(&req, &resp); err != nil {
					failed.Add(1)
					return
				}
				ok.Add(1)
			}
		}()
	}
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("callers still blocked 10s after the peer closed the connection")
	}
	<-peerDone

	closed := make(chan struct{})
	go func() { cl.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if ok.Load() > answered || failed.Load() != callers {
		t.Fatalf("%d responses and %d errors, want at most %d responses and one error per caller", ok.Load(), failed.Load(), answered)
	}
}

func TestClientStatusAndRetryHint(t *testing.T) {
	_, addr := startTestServer(t, &echoBackend{})
	cl := NewClient(addr, nil)
	defer cl.Close()

	var req Request
	var resp Response
	req = Request{Op: OpCollect} // echoBackend answers 503 to anything but ping/acquire/renewsession
	if err := cl.Do(&req, &resp); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Status != StatusUnavailable || resp.Code != CodeFull || resp.RetryAfterMillis != 31 {
		t.Fatalf("503 passthrough: %+v", resp)
	}

	req = Request{Op: OpPing}
	if err := cl.Do(&req, &resp); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if resp.Epoch != 77 {
		t.Fatalf("epoch passthrough: %d, want 77", resp.Epoch)
	}
}

func TestClientReconnect(t *testing.T) {
	backend := &echoBackend{}
	srv1, addr := startTestServer(t, backend)
	cl := NewClient(addr, nil)
	defer cl.Close()

	var req Request
	var resp Response
	req = Request{Op: OpPing}
	if err := cl.Do(&req, &resp); err != nil {
		t.Fatalf("first ping: %v", err)
	}

	// Kill the server; the in-flight connection dies with it.
	_ = srv1.Close()

	// Rebind the same address (retry briefly: the port lingers on some
	// platforms) and serve again.
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := NewServer(backend)
	go func() { _ = srv2.Serve(ln) }()
	defer srv2.Close()

	// The client must redial transparently; the first call may observe the
	// dead connection, later ones must succeed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		req = Request{Op: OpPing}
		if err := cl.Do(&req, &resp); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cl.Counters().Dials < 2 {
		t.Fatalf("Dials = %d, want >= 2 after reconnect", cl.Counters().Dials)
	}
}

func TestServerRejectsGarbageConn(t *testing.T) {
	_, addr := startTestServer(t, &echoBackend{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	// Garbage that cannot parse as a header: the server must close the
	// connection rather than answer.
	if _, err := nc.Write(bytes.Repeat([]byte{0xFF}, HeaderLen)); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("server answered a garbage frame; want connection close")
	}
}

func TestServerAnswers400OnBadPayload(t *testing.T) {
	_, addr := startTestServer(t, &echoBackend{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()

	// A well-framed request whose payload disagrees with its opcode: header
	// says OpAcquire with 3 payload bytes (needs 8).
	frame := make([]byte, HeaderLen+3)
	PutHeader(frame, Header{Op: OpAcquire, ID: 9, Len: 3})
	if _, err := nc.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	hdr := make([]byte, HeaderLen)
	if _, err := readFull(nc, hdr); err != nil {
		t.Fatalf("read response header: %v", err)
	}
	h, err := ParseHeader(hdr)
	if err != nil {
		t.Fatalf("parse response: %v", err)
	}
	if h.Status != StatusBadRequest || h.ID != 9 {
		t.Fatalf("bad payload answer: %+v, want 400 id=9", h)
	}

	// The connection must survive: a valid ping still works.
	ping := AppendRequest(nil, &Request{Op: OpPing, ID: 10})
	if _, err := nc.Write(ping); err != nil {
		t.Fatalf("write ping: %v", err)
	}
	if _, err := readFull(nc, hdr); err != nil {
		t.Fatalf("read ping response: %v", err)
	}
	if h, _ := ParseHeader(hdr); h.ID != 10 || h.Status != StatusOK {
		t.Fatalf("ping after 400: %+v", h)
	}
}

// batchBackend is echoBackend as a BatchBackend, recording the request IDs
// of every batch the server hands it.
type batchBackend struct {
	echoBackend
	mu      sync.Mutex
	batches [][]uint64
}

func (b *batchBackend) ServeWireBatch(reqs []*Request, resps []*Response) {
	ids := make([]uint64, len(reqs))
	for i, req := range reqs {
		ids[i] = req.ID
		b.ServeWire(req, resps[i])
	}
	b.mu.Lock()
	b.batches = append(b.batches, ids)
	b.mu.Unlock()
}

// TestServerBatchesBufferedFrames sends 40 frames in one write, one of them
// malformed. A BatchBackend gets the decodable frames in order, in batches
// of at most maxServeBatch frames, the malformed one is answered 400 without
// it, and every response comes back in frame order.
func TestServerBatchesBufferedFrames(t *testing.T) {
	backend := &batchBackend{}
	_, addr := startTestServer(t, backend)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()

	const frames, bad = 40, 5
	var buf []byte
	var want []uint64
	for id := uint64(1); id <= frames; id++ {
		if id == bad {
			var frame [HeaderLen + 3]byte
			PutHeader(frame[:], Header{Op: OpAcquire, ID: id, Len: 3})
			buf = append(buf, frame[:]...)
			continue
		}
		buf = AppendRequest(buf, &Request{Op: OpAcquire, ID: id, TTLMillis: int64(id)})
		want = append(want, id)
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	hdr := make([]byte, HeaderLen)
	for id := uint64(1); id <= frames; id++ {
		if _, err := readFull(nc, hdr); err != nil {
			t.Fatalf("read response %d: %v", id, err)
		}
		h, err := ParseHeader(hdr)
		if err != nil {
			t.Fatalf("parse response %d: %v", id, err)
		}
		if _, err := readFull(nc, make([]byte, h.Len)); err != nil {
			t.Fatalf("read payload %d: %v", id, err)
		}
		wantStatus := StatusOK
		if id == bad {
			wantStatus = StatusBadRequest
		}
		if h.ID != id || h.Status != wantStatus {
			t.Fatalf("response %d: id %d status %d, want id %d status %d", id, h.ID, h.Status, id, wantStatus)
		}
	}

	backend.mu.Lock()
	defer backend.mu.Unlock()
	var got []uint64
	multi := false
	for _, ids := range backend.batches {
		if len(ids) > maxServeBatch {
			t.Errorf("a batch of %d frames exceeds the bound %d", len(ids), maxServeBatch)
		}
		multi = multi || len(ids) > 1
		got = append(got, ids...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("backend served %v, want %v in order", got, want)
	}
	if !multi {
		t.Fatalf("every batch held one frame (%d batches); buffered frames were not batched", len(backend.batches))
	}
}

func readFull(nc net.Conn, buf []byte) (int, error) {
	read := 0
	for read < len(buf) {
		n, err := nc.Read(buf[read:])
		read += n
		if err != nil {
			return read, err
		}
	}
	return read, nil
}
