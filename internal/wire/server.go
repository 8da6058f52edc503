package wire

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"github.com/levelarray/levelarray/internal/trace"
)

// Backend is the semantic half of a wire server: it receives one decoded
// request and fills in the response. Implementations must be safe for
// concurrent calls (one goroutine per connection) and must not retain req or
// resp past the call — both are reused per connection.
type Backend interface {
	ServeWire(req *Request, resp *Response)
}

// Server accepts wire connections and drives one serve loop per connection.
type Server struct {
	backend Backend
	tracer  *trace.Recorder

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Scrape-friendly counters (see Counters); maintained off the mutex.
	accepted      atomic.Uint64
	framesRead    atomic.Uint64
	framesWritten atomic.Uint64
	flushes       atomic.Uint64
	decodeErrors  atomic.Uint64
}

// ServerCounters is a point-in-time snapshot of a Server's transport
// counters: the server-side mirror of the client's Counters, and the source
// for the la_wire_server_* metric families.
type ServerCounters struct {
	// ConnsAccepted counts accepted connections over the server's lifetime.
	ConnsAccepted uint64
	// FramesRead and FramesWritten count whole frames, requests in and
	// responses out.
	FramesRead    uint64
	FramesWritten uint64
	// Flushes counts syscall-level writes; FramesWritten/Flushes is the
	// server-side write-combining ratio.
	Flushes uint64
	// DecodeErrors counts malformed payloads answered with 400 (framing
	// errors close the connection and are not counted here).
	DecodeErrors uint64
}

// Counters snapshots the server's transport counters.
func (s *Server) Counters() ServerCounters {
	return ServerCounters{
		ConnsAccepted: s.accepted.Load(),
		FramesRead:    s.framesRead.Load(),
		FramesWritten: s.framesWritten.Load(),
		Flushes:       s.flushes.Load(),
		DecodeErrors:  s.decodeErrors.Load(),
	}
}

// NewServer returns a server that answers requests via backend.
func NewServer(backend Backend) *Server {
	return &Server{backend: backend, conns: make(map[net.Conn]struct{})}
}

// SetTracer installs the node's flight recorder: every frame served while
// the recorder is enabled opens a span (keyed by the frame's request ID)
// that the backend attributes phase time into via Request.Span, and the
// server itself attributes response encoding and flush. Call before Serve.
func (s *Server) SetTracer(r *trace.Recorder) { s.tracer = r }

// Serve accepts connections on ln until the listener fails or the server is
// closed. It blocks; run it in its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.accepted.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection and waits for the
// per-connection loops to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// serveConn runs the per-connection loop: read a frame, decode, dispatch,
// encode, and flush only when no further request bytes are already buffered —
// so a pipelining client gets its responses coalesced into few writes.
// Framing errors (bad magic/version, oversize, short read) are unrecoverable
// and close the connection; semantic errors (unknown opcode, malformed
// payload) answer 400 and keep the stream alive, since the frame boundary
// itself was sound.
func (s *Server) serveConn(c net.Conn) {
	defer c.Close()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	r := bufio.NewReaderSize(c, 64<<10)
	w := bufio.NewWriterSize(c, 64<<10)

	var (
		hdr     [HeaderLen]byte
		payload []byte
		req     Request
		resp    Response
		out     []byte
	)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		h, err := ParseHeader(hdr[:])
		if err != nil {
			return // cannot resynchronize a broken frame stream
		}
		if int(h.Len) > cap(payload) {
			payload = make([]byte, h.Len)
		}
		payload = payload[:h.Len]
		if _, err := io.ReadFull(r, payload); err != nil {
			return
		}

		s.framesRead.Add(1)
		resp.Reset()
		var sp *trace.Op
		if err := DecodeRequest(h, payload, &req); err != nil {
			s.decodeErrors.Add(1)
			resp.Status = StatusBadRequest
			resp.Code = CodeBadRequest
		} else {
			// The rid is formatted only for a span: with tracing off a
			// frame formats nothing.
			if s.tracer.Enabled() {
				if sp = s.tracer.Begin(req.Op.String(), RIDString(req.ID)); sp != nil && req.Trace {
					sp.Force()
				}
			}
			req.Span = sp
			s.backend.ServeWire(&req, &resp)
		}

		mark := sp.Mark()
		out = AppendResponse(out[:0], h.Op, h.ID, &resp)
		mark = sp.PhaseSince(trace.PhaseWireEncode, mark)
		if _, err := w.Write(out); err != nil {
			return
		}
		s.framesWritten.Add(1)
		// Flush only when the read side has gone quiet: if more request
		// bytes are already buffered, the client is pipelining and will
		// happily wait one more turn for a combined flush.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
			s.flushes.Add(1)
			mark = sp.PhaseSince(trace.PhaseFlush, mark)
		}
		if sp != nil {
			errCode := ""
			if resp.Status != StatusOK {
				errCode = resp.Code.String()
			}
			// The span ends at its last phase boundary, which reads no
			// clock of its own; an unflushed frame's copy into the write
			// buffer is left out.
			sp.FinishAt(mark, errCode)
		}
	}
}
