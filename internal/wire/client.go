package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClientClosed is returned by calls issued after Close.
var ErrClientClosed = errors.New("wire: client closed")

// ErrDialBackoff is returned (wrapped) by calls that land on a slot whose
// redial is suppressed by the exponential backoff window (the previous dial
// failed recently enough that retrying now would only hammer a dead or
// drowning endpoint) while no other slot holds a live connection: a call on
// a slot in backoff goes to a live sibling when there is one. Callers with
// an alternative transport (the routed cluster client's HTTP fallback)
// should fail over immediately.
var ErrDialBackoff = errors.New("wire: dial suppressed by backoff")

// ClientConfig tunes a Client. The zero value is usable: 1 connection,
// 5s dial timeout, 10s call timeout.
type ClientConfig struct {
	// Conns is the number of pooled connections (calls are distributed
	// round-robin; many callers pipelining on few conns is the sweet spot).
	Conns int
	// CallTimeout bounds one request/response exchange. A timeout marks the
	// connection dead (responses could no longer be matched reliably) and
	// fails every call still pending on it. A call reads no clock and arms
	// no timer: each connection's watchdog checks its pending calls every
	// CallTimeout/4, so a call that waits it out fails between 1x and 1.25x
	// CallTimeout.
	CallTimeout time.Duration
	// RedialBackoff is the base pause before redialing a slot whose dial just
	// failed, doubled per consecutive failure (with jitter) up to
	// RedialBackoffMax; calls landing on the slot inside the window go to
	// another slot's live connection, or fail fast with ErrDialBackoff when
	// there is none, instead of paying another dial timeout. The first redial
	// after a live connection dies is always immediate. Zero selects 25ms.
	RedialBackoff time.Duration
	// RedialBackoffMax caps the redial backoff. Zero selects 2s.
	RedialBackoffMax time.Duration
}

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

func (c *ClientConfig) withDefaults() ClientConfig {
	out := ClientConfig{
		Conns:            1,
		CallTimeout:      10 * time.Second,
		RedialBackoff:    25 * time.Millisecond,
		RedialBackoffMax: 2 * time.Second,
	}
	if c == nil {
		return out
	}
	if c.Conns > 0 {
		out.Conns = c.Conns
	}
	if c.CallTimeout > 0 {
		out.CallTimeout = c.CallTimeout
	}
	if c.RedialBackoff > 0 {
		out.RedialBackoff = c.RedialBackoff
	}
	if c.RedialBackoffMax > 0 {
		out.RedialBackoffMax = c.RedialBackoffMax
	}
	return out
}

// Counters is a snapshot of a client's syscall-efficiency telemetry.
type Counters struct {
	Dials      uint64 // connections established (first dial + reconnects)
	Ops        uint64 // requests completed (success or error response)
	FramesSent uint64 // request frames handed to the kernel
	Flushes    uint64 // write syscalls; FramesSent/Flushes = frames per flush
	Backoffs   uint64 // calls failed fast inside a redial-backoff window
}

// Client is a pooled wire-protocol client. Each pooled connection supports
// pipelining: concurrent callers append their frames to the connection's
// queue under a short lock, one writer goroutine hands everything queued to
// the kernel in one write, and one reader goroutine matches responses by
// request ID, so in-flight depth scales with callers, not connections, and
// concurrent callers share write syscalls. A call waits on its own channel
// alone; one watchdog goroutine per connection enforces CallTimeout. Dead
// connections are redialed lazily on the next call that lands on them.
type Client struct {
	addr string
	cfg  ClientConfig

	nextID   atomic.Uint64
	nextSlot atomic.Uint64
	closed   atomic.Bool
	slots    []*slot

	dials      atomic.Uint64
	ops        atomic.Uint64
	framesSent atomic.Uint64
	flushes    atomic.Uint64
	backoffs   atomic.Uint64
	jitter     atomic.Uint64 // splitmix state for backoff jitter

	loops sync.WaitGroup // every connection's reader, writer and watchdog; Close waits
}

// slot is one pooled-connection cell; c is nil until first use and after a
// connection is torn down. fails/nextDialAt (guarded by mu) drive the
// exponential redial backoff after consecutive dial failures.
type slot struct {
	mu         sync.Mutex // guards dialing/replacing c
	c          atomic.Pointer[conn]
	fails      int
	nextDialAt time.Time
}

// conn is one live connection plus its pipelining state: callers queue
// encoded frames in out, one writer goroutine (writeLoop) drains them, one
// reader goroutine (readLoop) completes the pending calls, and one watchdog
// goroutine fails the connection when a pending call outlives CallTimeout.
type conn struct {
	cl *Client
	nc net.Conn

	wmu     sync.Mutex // guards out, frames and writing
	out     []byte     // encoded frames queued for the writer
	frames  int        // frames in out
	writing bool       // the writer was woken and has not yet found out empty
	// wake carries one token per idle-to-writing transition, so a caller's
	// send never blocks: only the caller that sets writing sends.
	wake chan struct{}
	stop chan struct{} // closed by fail: the writer and the watchdog exit

	pmu     sync.Mutex
	pending map[uint64]*call
	issued  uint64 // calls registered in pending so far; each call's seq
	dead    atomic.Bool
	err     error // first fatal error, set before dead; read after dead
}

// call is one in-flight request awaiting its response frame, which the
// reader decodes straight into the caller's resp. seq is the connection's
// issue count when the call was registered (guarded by pmu), which is all
// the watchdog needs to tell how long it has waited.
type call struct {
	done chan struct{}
	seq  uint64
	resp *Response
	err  error
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// NewClient returns a client for the wire endpoint at addr (host:port).
// No connection is made until the first call.
func NewClient(addr string, cfg *ClientConfig) *Client {
	c := &Client{addr: addr, cfg: cfg.withDefaults()}
	c.jitter.Store(uint64(time.Now().UnixNano()))
	c.slots = make([]*slot, c.cfg.Conns)
	for i := range c.slots {
		c.slots[i] = &slot{}
	}
	return c
}

// Addr returns the endpoint this client dials.
func (c *Client) Addr() string { return c.addr }

// Counters snapshots the client's telemetry.
func (c *Client) Counters() Counters {
	return Counters{
		Dials:      c.dials.Load(),
		Ops:        c.ops.Load(),
		FramesSent: c.framesSent.Load(),
		Flushes:    c.flushes.Load(),
		Backoffs:   c.backoffs.Load(),
	}
}

// Close tears down every pooled connection and returns once each
// connection's reader, writer and watchdog goroutines have exited. In-flight
// calls fail with ErrClientClosed.
func (c *Client) Close() {
	c.closed.Store(true)
	for _, s := range c.slots {
		s.mu.Lock()
		if cn := s.c.Swap(nil); cn != nil {
			cn.fail(ErrClientClosed)
		}
		s.mu.Unlock()
	}
	c.loops.Wait()
}

// Do performs one request/response exchange. When req.ID is zero the client
// assigns one; a caller may pre-set a nonzero ID to thread its own request
// identifier through the frame header (for cross-hop tracing), in which case
// the caller is responsible for keeping in-flight IDs unique on this client —
// the pipelining match is by ID. resp's storage is owned by the caller and
// reused across calls: the connection's reader decodes the response into it,
// and after an error its contents are unspecified.
func (c *Client) Do(req *Request, resp *Response) error {
	if c.closed.Load() {
		return ErrClientClosed
	}
	cn, err := c.connFor(int(c.nextSlot.Add(1) % uint64(len(c.slots))))
	if err != nil {
		return err
	}
	return cn.roundTrip(req, resp)
}

// connFor returns slot i's live connection, dialing if absent or dead. A
// slot inside its redial-backoff window lends the call to the next slot
// with a live connection; only when none has one does the call fail fast.
func (c *Client) connFor(i int) (*conn, error) {
	s := c.slots[i]
	if cn := s.c.Load(); cn != nil && !cn.dead.Load() {
		return cn, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cn := s.c.Load(); cn != nil && !cn.dead.Load() {
		return cn, nil
	}
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if wait := time.Until(s.nextDialAt); wait > 0 {
		for j := 1; j < len(c.slots); j++ {
			if cn := c.slots[(i+j)%len(c.slots)].c.Load(); cn != nil && !cn.dead.Load() {
				return cn, nil
			}
		}
		c.backoffs.Add(1)
		return nil, fmt.Errorf("%w: %s unreachable, retry in %v", ErrDialBackoff, c.addr, wait.Round(time.Millisecond))
	}
	nc, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		s.nextDialAt = time.Now().Add(Backoff(c.cfg.RedialBackoff, c.cfg.RedialBackoffMax, s.fails, &c.jitter))
		s.fails++
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	s.fails, s.nextDialAt = 0, time.Time{}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cn := &conn{
		cl:      c,
		nc:      nc,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		pending: make(map[uint64]*call),
	}
	c.dials.Add(1)
	s.c.Store(cn)
	c.loops.Add(3)
	go cn.readLoop()
	go cn.writeLoop()
	go cn.watchdog(c.cfg.CallTimeout)
	return cn, nil
}

// roundTrip queues req for the connection's writer and blocks for its
// response (other callers' frames may interleave on the connection
// meanwhile). It waits on the call's channel alone: the connection's
// watchdog, or its death, completes a call that is never answered.
func (cn *conn) roundTrip(req *Request, resp *Response) error {
	id := req.ID
	if id == 0 {
		id = cn.cl.nextID.Add(1)
		req.ID = id
	}

	ca := callPool.Get().(*call)
	ca.err = nil

	cn.pmu.Lock()
	if cn.dead.Load() {
		cn.pmu.Unlock()
		callPool.Put(ca)
		return cn.errOr(io.ErrClosedPipe)
	}
	ca.seq, ca.resp = cn.issued, resp
	cn.issued++
	cn.pending[id] = ca
	cn.pmu.Unlock()

	cn.wmu.Lock()
	cn.out = AppendRequest(cn.out, req)
	cn.frames++
	wake := !cn.writing
	cn.writing = true
	cn.wmu.Unlock()
	if wake {
		cn.wake <- struct{}{}
	}

	<-ca.done
	err := ca.err
	if err == nil {
		cn.cl.ops.Add(1)
	}
	ca.resp = nil
	callPool.Put(ca)
	return err
}

// writeLoop is the connection's single writer. Woken by the caller that
// queued the first frame into an idle connection, it yields once so callers
// the reader has just woken can queue their frames behind that one, then
// hands everything queued to the kernel in one write, and repeats until the
// queue is empty. Without the yield the writer runs as soon as its waker
// blocks, ahead of the callers already runnable, and writes one frame per
// syscall.
func (cn *conn) writeLoop() {
	defer cn.cl.loops.Done()
	var buf []byte
	for {
		select {
		case <-cn.wake:
		case <-cn.stop:
			return
		}
		runtime.Gosched()
		for {
			cn.wmu.Lock()
			frames := cn.frames
			if frames == 0 {
				cn.writing = false
				cn.wmu.Unlock()
				break
			}
			buf, cn.out = cn.out, buf[:0]
			cn.frames = 0
			cn.wmu.Unlock()
			if _, err := cn.nc.Write(buf); err != nil {
				cn.fail(err)
				return
			}
			cn.cl.framesSent.Add(uint64(frames))
			cn.cl.flushes.Add(1)
		}
	}
}

// watchdog enforces CallTimeout for every call on the connection without a
// timer per call. Every timeout/4 it reads the issue count, then one clock,
// and keeps that mark; a call whose seq is below the count of a mark at least
// timeout old was registered before that mark's clock read, so it has waited
// at least timeout. Once any pending call has, the watchdog fails the
// connection (the response stream can no longer be trusted to line up with
// pending IDs cheaply), which completes every pending call with the timeout
// error. A call therefore fails between 1x and about 1.25x timeout after it
// was issued.
func (cn *conn) watchdog(timeout time.Duration) {
	defer cn.cl.loops.Done()
	tick := time.NewTicker(max(timeout/4, 1))
	defer tick.Stop()
	type mark struct {
		issued uint64
		at     time.Time
	}
	var marks []mark // oldest first; marks[0] is the newest one timeout old, once one is
	for {
		select {
		case <-tick.C:
		case <-cn.stop:
			return
		}
		cn.pmu.Lock()
		issued := cn.issued
		cn.pmu.Unlock()
		now := time.Now()
		marks = append(marks, mark{issued, now})
		old := -1
		for i, m := range marks {
			if now.Sub(m.at) < timeout {
				break
			}
			old = i
		}
		if old < 0 {
			continue
		}
		marks = append(marks[:0], marks[old:]...)
		if cn.overdue(marks[0].issued) {
			cn.fail(fmt.Errorf("wire: call timeout after %v", timeout))
			return
		}
	}
}

// overdue reports whether any pending call was registered before the issue
// count reached issued.
func (cn *conn) overdue(issued uint64) bool {
	cn.pmu.Lock()
	defer cn.pmu.Unlock()
	for _, ca := range cn.pending {
		if ca.seq < issued {
			return true
		}
	}
	return false
}

// readLoop is the connection's single reader: it decodes response frames and
// completes the matching pending call.
func (cn *conn) readLoop() {
	defer cn.cl.loops.Done()
	br := bufio.NewReaderSize(cn.nc, 64<<10)
	var hdr [HeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			cn.fail(err)
			return
		}
		h, err := ParseHeader(hdr[:])
		if err != nil {
			cn.fail(err)
			return
		}
		if int(h.Len) > cap(payload) {
			payload = make([]byte, h.Len)
		}
		payload = payload[:h.Len]
		if _, err := io.ReadFull(br, payload); err != nil {
			cn.fail(err)
			return
		}

		cn.pmu.Lock()
		ca := cn.pending[h.ID]
		delete(cn.pending, h.ID)
		cn.pmu.Unlock()
		if ca == nil {
			continue // cancelled call (timeout already failed the conn) or bug
		}
		ca.err = DecodeResponse(h, payload, ca.resp)
		ca.done <- struct{}{}
	}
}

// fail marks the connection dead, stops its writer and watchdog, closes it,
// and completes every pending call with err. Safe to call multiple times;
// the first error wins.
func (cn *conn) fail(err error) {
	cn.pmu.Lock()
	if cn.dead.Load() {
		cn.pmu.Unlock()
		return
	}
	cn.err = err
	cn.dead.Store(true)
	pending := cn.pending
	cn.pending = make(map[uint64]*call)
	cn.pmu.Unlock()
	close(cn.stop)
	cn.nc.Close()
	for _, ca := range pending {
		ca.err = err
		ca.done <- struct{}{}
	}
}

// errOr returns the connection's recorded fatal error, or fallback.
func (cn *conn) errOr(fallback error) error {
	cn.pmu.Lock()
	defer cn.pmu.Unlock()
	if cn.err != nil {
		return cn.err
	}
	return fallback
}
