// Package server is the name service's one op core: the Service interface
// that turns the in-process Get/Free/Collect contract into remote lease
// sessions, one HTTP/JSON codec (NewMux) and one binary wire codec
// (WireBackend) over it, and one error table mapping every failure to an
// HTTP status, a JSON code and a wire.Code. Two backends implement Service:
// the manager-backed standalone service here, and the cluster node. The
// client side mirrors the codecs: Client speaks HTTP and WireClient the
// binary protocol, so this package alone knows how a request is spelled.
//
// Endpoints (all JSON):
//
//	POST /acquire  {"ttl_ms": 5000}                      -> lease
//	POST /renew    {"name": 3, "token": 97, "ttl_ms": 5000} -> lease
//	POST /release  {"name": 3, "token": 97}              -> {"released": true}
//	GET  /collect                                        -> {"count": n, "names": [...]}
//	GET  /leases?start=0&limit=100                       -> active-session page
//	GET  /stats                                          -> lease + shard statistics
//	GET  /healthz                                        -> build + uptime identity
//
// Status codes follow the error table in service.go: 503 when the namespace
// is exhausted or the manager is shut down, 409 on fencing failures (stale
// token, not leased), 400 on malformed requests, and on a cluster node 412
// for a stale epoch and 421 for a partition it does not own. Every 503
// carries Retry-After (whole seconds, as HTTP requires) and X-Retry-After-Ms
// (exact milliseconds, one expirer tick unless the error names its own
// wait) so saturated clients can pace their retries on the service's
// reclaim granularity instead of hot-spinning.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/shard"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wire"
)

// maxBodyBytes bounds request bodies; every request fits in a handful of
// integers.
const maxBodyBytes = 4096

// AcquireRequest is the body of POST /acquire.
type AcquireRequest struct {
	// TTLMillis is the requested lease TTL; 0 (or omitted) selects the
	// server's default TTL, a negative value requests an infinite lease.
	TTLMillis int64 `json:"ttl_ms"`
}

// RenewRequest is the body of POST /renew.
type RenewRequest struct {
	Name      int    `json:"name"`
	Token     uint64 `json:"token"`
	TTLMillis int64  `json:"ttl_ms"`
}

// ReleaseRequest is the body of POST /release.
type ReleaseRequest struct {
	Name  int    `json:"name"`
	Token uint64 `json:"token"`
}

// LeaseResponse is the body returned by /acquire and /renew.
type LeaseResponse struct {
	Name  int    `json:"name"`
	Token uint64 `json:"token"`
	// DeadlineUnixMillis is the lease deadline; 0 for an infinite lease.
	DeadlineUnixMillis int64 `json:"deadline_unix_ms"`
}

// GrantResponse is the body of a cluster node's /acquire and /renew: the
// lease plus where it lives, so clients can route follow-ups and account
// sessions per node.
type GrantResponse struct {
	Name  int    `json:"name"`
	Token uint64 `json:"token"`
	// DeadlineUnixMillis is the lease deadline (always finite in cluster
	// mode: the quarantine discipline needs every lease TTL-bounded).
	DeadlineUnixMillis int64  `json:"deadline_unix_ms"`
	NodeID             int    `json:"node_id"`
	Partition          int    `json:"partition"`
	Epoch              uint64 `json:"epoch"`
}

// EpochResponse is the body of a 412 or 421 (and of a cluster node's POST
// /cluster replies): the node's current epoch, so the peer knows how far
// behind it is.
type EpochResponse struct {
	Error   string `json:"error,omitempty"`
	Adopted bool   `json:"adopted,omitempty"`
	Epoch   uint64 `json:"epoch"`
}

// ReleaseResponse is the body returned by /release.
type ReleaseResponse struct {
	Released bool `json:"released"`
}

// CollectResponse is the body returned by /collect.
type CollectResponse struct {
	Count int   `json:"count"`
	Names []int `json:"names"`
}

// SessionJSON is one active session in a /leases page.
type SessionJSON struct {
	Name  int    `json:"name"`
	Token uint64 `json:"token"`
	// DeadlineUnixMillis is the session deadline; 0 for an infinite lease.
	DeadlineUnixMillis int64 `json:"deadline_unix_ms"`
}

// LeasesResponse is the body returned by /leases: one page of active
// sessions in ascending name order. Next is the start cursor of the
// following page, -1 once the namespace is exhausted.
type LeasesResponse struct {
	Sessions []SessionJSON `json:"sessions"`
	Next     int           `json:"next"`
	Active   int           `json:"active"`
}

// /leases pagination bounds.
const (
	DefaultLeasesPageLimit = 100
	MaxLeasesPageLimit     = 1000
)

// StatsResponse is the body returned by /stats.
type StatsResponse struct {
	Lease        lease.Stats        `json:"lease"`
	Capacity     int                `json:"capacity"`
	Size         int                `json:"size"`
	TickMillis   int64              `json:"tick_ms"`
	UptimeMillis int64              `json:"uptime_ms"`
	Shards       []shard.ShardStats `json:"shards,omitempty"`
}

// ErrorResponse is the body of every non-2xx response. RequestID echoes the
// request's trace id (the X-Request-ID header, minted when absent) so a
// failed operation can be matched to server logs without header archaeology.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// Error codes returned in ErrorResponse.Error.
const (
	ErrCodeFull       = "full"
	ErrCodeStaleToken = "stale_token"
	ErrCodeNotLeased  = "not_leased"
	ErrCodeClosed     = "closed"
	ErrCodeTTL        = "ttl_too_long"
	ErrCodeBadRequest = "bad_request"
)

// Config parameterizes the codecs and the manager-backed service.
type Config struct {
	// DefaultTTL is applied when an acquire request to a manager-backed
	// service omits its TTL (or sends 0). Zero selects 10s. A cluster node
	// takes its own from NodeConfig.
	DefaultTTL time.Duration
	// Metrics, when non-nil, instruments the lease operations and mounts
	// GET /metrics plus the pprof routes on this server's mux.
	Metrics *Metrics
	// MetricsElsewhere suppresses the /metrics + pprof mounts (the operations
	// still record) when the registry is served on a dedicated listener.
	MetricsElsewhere bool
	// Tracer, when non-nil, opens a phase-attributed span per lease operation
	// and serves the span rings at GET /debug/trace and /debug/trace/slow.
	Tracer *trace.Recorder
	// Events, when non-nil, is the node's control-plane journal, served at
	// GET /debug/events.
	Events *trace.EventLog
}

// Server serves the lease API of one manager over HTTP: the HTTP codec over
// the manager-backed service. Build it with New; it implements http.Handler.
type Server struct {
	mgr *lease.Manager
	h   http.Handler
}

// New builds a Server over mgr. The caller remains responsible for starting
// the manager's expirer (mgr.Start) and closing it on shutdown.
func New(mgr *lease.Manager, cfg Config) *Server {
	return &Server{mgr: mgr, h: WithRequestID(NewMux(newManagerService(mgr, cfg), cfg))}
}

// ServeHTTP dispatches to the lease API through the request-ID middleware.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

// Serve runs the service on addr until ctx is cancelled, then shuts the
// listener down gracefully (draining in-flight requests) and closes the
// manager. It returns nil on a clean shutdown.
func (s *Server) Serve(ctx context.Context, addr string) error {
	return ListenAndServe(ctx, addr, s, s.mgr.Close)
}

// ListenAndServe serves h on addr until ctx is cancelled, then shuts the
// listener down gracefully (draining in-flight requests) and calls stop,
// which also runs when the listener fails. It returns nil on a clean
// shutdown.
func ListenAndServe(ctx context.Context, addr string, h http.Handler, stop func()) error {
	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		stop()
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	stop()
	if err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	return nil
}

// NewMux builds the HTTP codec over svc: the lease writes, the read routes,
// /metrics and pprof (when cfg.Metrics is set and not served elsewhere) and
// the flight-recorder routes. A cluster node adds its control-plane routes
// to the returned mux; wrap it with WithRequestID.
func NewMux(svc Service, cfg Config) *http.ServeMux {
	h := &httpCodec{opCore: opCore{svc: svc, m: cfg.Metrics}, tracer: cfg.Tracer}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /acquire", h.handleAcquire)
	mux.HandleFunc("POST /renew", h.handleRenew)
	mux.HandleFunc("POST /release", h.handleRelease)
	mux.HandleFunc("GET /collect", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, svc.Collect())
	})
	mux.HandleFunc("GET /leases", func(w http.ResponseWriter, r *http.Request) {
		start, limit, err := leasesQuery(r)
		if err != nil {
			WriteError(w, http.StatusBadRequest, ErrCodeBadRequest)
			return
		}
		WriteJSON(w, http.StatusOK, svc.Leases(start, limit))
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, svc.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, svc.Health())
	})
	if cfg.Metrics != nil && !cfg.MetricsElsewhere {
		MountMetrics(mux, cfg.Metrics.Registry)
	}
	trace.Mount(mux, cfg.Tracer, cfg.Events)
	return mux
}

// httpCodec answers the lease writes over HTTP/JSON.
type httpCodec struct {
	opCore
	tracer *trace.Recorder
}

// begin decodes one write's body and opens its Call: the X-Cluster-Epoch
// header (absent = unfenced) and a span keyed by the request id, forced
// past sampling by X-Trace. It answers 400 itself when either input is
// malformed.
func (h *httpCodec) begin(w http.ResponseWriter, r *http.Request, op string, body any) (Call, bool) {
	if !DecodeJSON(w, r, body, maxBodyBytes) {
		return Call{}, false
	}
	c := Call{rid: RequestID(r)}
	if v := r.Header.Get(EpochHeader); v != "" {
		epoch, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, ErrCodeBadRequest)
			return Call{}, false
		}
		c.Epoch = epoch
	}
	if c.Span = h.tracer.Begin(op, c.rid); c.Span != nil && r.Header.Get(TraceForceHeader) != "" {
		c.Span.Force()
	}
	return c, true
}

// reply finishes the call's span and writes body, or the error table's
// answer: a 503 with Retry-After and X-Retry-After-Ms, a 412/421 with the
// responder's epoch, else the bare code.
func (h *httpCodec) reply(w http.ResponseWriter, c Call, o outcome, body any) {
	if o.status == wire.StatusOK {
		c.Span.Finish("")
		WriteJSON(w, http.StatusOK, body)
		return
	}
	code := o.code.String()
	c.Span.Finish(code)
	switch o.status {
	case wire.StatusUnavailable:
		WriteUnavailable(w, code, o.wait)
	case wire.StatusStaleEpoch, wire.StatusNotOwner:
		WriteJSON(w, int(o.status), EpochResponse{Error: code, Epoch: o.epoch})
	default:
		WriteError(w, int(o.status), code)
	}
}

func (h *httpCodec) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req AcquireRequest
	c, ok := h.begin(w, r, "acquire", &req)
	if !ok {
		return
	}
	g, o := h.acquire(c, req.TTLMillis)
	h.reply(w, c, o, grantJSON(g))
}

func (h *httpCodec) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	c, ok := h.begin(w, r, "renew", &req)
	if !ok {
		return
	}
	g, o := h.renew(c, req.Name, req.Token, req.TTLMillis)
	h.reply(w, c, o, grantJSON(g))
}

func (h *httpCodec) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	c, ok := h.begin(w, r, "release", &req)
	if !ok {
		return
	}
	h.reply(w, c, h.release(c, req.Name, req.Token), ReleaseResponse{Released: true})
}

// grantJSON is a grant's HTTP body. A standalone grant (epoch 0) keeps the
// lease-only shape; a node's grant adds where the lease lives.
func grantJSON(g Grant) any {
	if g.Epoch == 0 {
		return LeaseResponse{Name: g.Name, Token: g.Token, DeadlineUnixMillis: g.DeadlineUnixMillis}
	}
	return GrantResponse{
		Name: g.Name, Token: g.Token, DeadlineUnixMillis: g.DeadlineUnixMillis,
		NodeID: g.NodeID, Partition: g.Partition, Epoch: g.Epoch,
	}
}

// DecodeJSON parses a JSON request body into dst with a size cap, writing
// the 400 itself on failure. Shared with the cluster node's control routes
// so both apply the same strictness and error shape.
func DecodeJSON(w http.ResponseWriter, r *http.Request, dst any, maxBytes int64) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest)
		return false
	}
	return true
}

// WriteJSON writes one JSON response.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// WriteError writes one ErrorResponse-coded failure, echoing the request's
// trace id when the ResponseWriter passed through WithRequestID.
func WriteError(w http.ResponseWriter, status int, code string) {
	WriteJSON(w, status, ErrorResponse{Error: code, RequestID: ResponseRequestID(w)})
}

// WriteUnavailable writes a 503 with the given error code and retry hints:
// the standard Retry-After header in whole seconds (rounded up, as HTTP
// requires) plus X-Retry-After-Ms carrying the exact wait, so loopback
// clients are not forced onto a one-second retry floor.
func WriteUnavailable(w http.ResponseWriter, code string, wait time.Duration) {
	secs := max(int64((wait+time.Second-1)/time.Second), 1)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(retryMillis(wait), 10))
	WriteError(w, http.StatusServiceUnavailable, code)
}

// PostJSON POSTs in as JSON to url with the given extra headers, decoding a
// 2xx body into out and any other into errOut (each when non-nil). It
// returns the status and the response headers.
func PostJSON(hc *http.Client, url string, header http.Header, in, out, errOut any) (int, http.Header, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, resp.Header, decodeBody(resp, out, errOut)
}

// GetJSON fetches url, decoding a 2xx body into out (when non-nil).
func GetJSON(hc *http.Client, url string, out any) (int, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, decodeBody(resp, out, nil)
}

// decodeBody decodes a response body into out (2xx) or errOut (otherwise),
// then drains and closes it so the connection is reused. A non-2xx body
// that does not decode is no error: the status says what failed.
func decodeBody(resp *http.Response, out, errOut any) error {
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	switch ok := resp.StatusCode/100 == 2; {
	case ok && out != nil:
		return json.NewDecoder(resp.Body).Decode(out)
	case !ok && errOut != nil:
		_ = json.NewDecoder(resp.Body).Decode(errOut)
	}
	return nil
}

// RetryAfterHint extracts the retry pacing from a 503's headers, preferring
// the millisecond-precision X-Retry-After-Ms over the whole-second
// Retry-After; fallback is returned when neither parses.
func RetryAfterHint(h http.Header, fallback time.Duration) time.Duration {
	if v := h.Get("X-Retry-After-Ms"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	if v := h.Get("Retry-After"); v != "" {
		if secs, err := strconv.ParseInt(v, 10, 64); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return fallback
}

// TraceForceHeader, when present on a request, forces the operation's span
// past the recorder's sampling — the HTTP analogue of the wire trace flag.
const TraceForceHeader = "X-Trace"

// EpochHeader carries the sender's table epoch on every write. A cluster
// node whose epoch differs rejects the write with 412, the routing-level
// analogue of a stale fencing token's 409; a standalone service has no
// table and ignores it.
const EpochHeader = "X-Cluster-Epoch"

// leasesQuery reads the start/limit pagination parameters of a /leases
// request, applying the default and maximum page limits.
func leasesQuery(r *http.Request) (start, limit int, err error) {
	start, limit = 0, DefaultLeasesPageLimit
	q := r.URL.Query()
	if v := q.Get("start"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 0 {
			return 0, 0, fmt.Errorf("invalid start %q", v)
		}
		start = n
	}
	if v := q.Get("limit"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 1 {
			return 0, 0, fmt.Errorf("invalid limit %q", v)
		}
		limit = n
	}
	return start, pageLimit(limit), nil
}

// pageLimit applies the default and maximum /leases page sizes.
func pageLimit(limit int) int {
	if limit <= 0 {
		return DefaultLeasesPageLimit
	}
	return min(limit, MaxLeasesPageLimit)
}

// HealthzResponse is the body of GET /healthz: liveness plus enough build
// and uptime identity to tell a fresh restart from a long-lived process.
type HealthzResponse struct {
	OK           bool   `json:"ok"`
	Version      string `json:"version"`
	GoVersion    string `json:"go_version"`
	UptimeMillis int64  `json:"uptime_ms"`
}
