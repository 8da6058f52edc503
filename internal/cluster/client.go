package cluster

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wire"
)

// ClientConfig parameterizes a routed cluster client.
type ClientConfig struct {
	// Targets seeds the membership discovery: any subset of the cluster's
	// advertised addresses. The first reachable one supplies the table.
	Targets []string
	// HTTPClient overrides the transport. Nil selects one tuned for many
	// concurrent loopback connections.
	HTTPClient *http.Client
	// RouteRounds bounds the refresh-and-retry rounds a routed operation
	// performs when it hits dead members, stale epochs (412) or moved
	// partitions (421). Zero selects 8.
	RouteRounds int
	// RouteBackoff is the base pause between unsuccessful rounds, covering
	// the window in which a failure has happened but the steward has not
	// pushed the bumped epoch yet. It doubles per round (with jitter) up to
	// RouteBackoffMax, so the many clients that observe the same member death
	// at once spread their retry storms out. Zero selects 100ms.
	RouteBackoff time.Duration
	// RouteBackoffMax caps the per-round backoff. Zero selects the larger of
	// 1s and RouteBackoff.
	RouteBackoffMax time.Duration
	// DisableWire forces HTTP for every operation even against members that
	// advertise a wire endpoint. By default the client speaks the binary
	// protocol to any member with a WireAddr and falls back to HTTP when the
	// wire hop fails.
	DisableWire bool
	// Tracer, when non-nil, records one client-side span per routed
	// operation: route time per hop, backoff time between rounds, one rid
	// across every retry — the client-side stitch of a cross-failover trace.
	// Traced operations also carry the trace flag to the member they land
	// on, forcing the server-side span of the same rid past sampling.
	Tracer *trace.Recorder
}

func (c ClientConfig) withDefaults() (ClientConfig, error) {
	if len(c.Targets) == 0 {
		return c, fmt.Errorf("cluster: client needs at least one target")
	}
	if c.HTTPClient == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 0
		tr.MaxIdleConnsPerHost = 1024
		c.HTTPClient = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	if c.RouteRounds <= 0 {
		c.RouteRounds = 8
	}
	if c.RouteBackoff <= 0 {
		c.RouteBackoff = 100 * time.Millisecond
	}
	if c.RouteBackoffMax <= 0 {
		c.RouteBackoffMax = time.Second
		if c.RouteBackoff > c.RouteBackoffMax {
			c.RouteBackoffMax = c.RouteBackoff
		}
	}
	return c, nil
}

// Client routes lease operations across the cluster: acquires round-robin
// over live members, renews and releases to the partition's owner, all
// fenced by the client's table epoch. On ownership or epoch errors it
// refreshes the table from any reachable member and retries, so routing
// self-heals across failovers. Safe for concurrent use.
type Client struct {
	cfg ClientConfig
	hc  *http.Client

	mu    sync.RWMutex
	table Table

	rr atomic.Uint64

	// ridSeq mints per-operation request ids (see nextRID).
	ridSeq atomic.Uint64

	// Pooled wire connections, one client per advertised wire endpoint,
	// dialed lazily on first routed hop.
	wmu      sync.Mutex
	wclients map[string]*wire.Client
	closed   bool

	// Routing-health counters, exposed through Counters.
	refreshes     atomic.Uint64
	staleEpochs   atomic.Uint64
	misroutes     atomic.Uint64
	deadHops      atomic.Uint64
	wireOps       atomic.Uint64
	wireFallbacks atomic.Uint64
	backoffs      atomic.Uint64
	jitter        atomic.Uint64 // splitmix state for backoff jitter
}

// ClientCounters is a snapshot of the client's routing-health counters.
type ClientCounters struct {
	// Refreshes counts table re-fetches (startup excluded).
	Refreshes uint64 `json:"refreshes"`
	// StaleEpochs counts 412s received, i.e. writes fenced for carrying an
	// out-of-date epoch.
	StaleEpochs uint64 `json:"stale_epochs"`
	// Misroutes counts 421s received, i.e. requests sent to a member that no
	// longer owned the partition.
	Misroutes uint64 `json:"misroutes"`
	// DeadHops counts transport failures against individual members.
	DeadHops uint64 `json:"dead_hops"`
	// WireOps counts lease operations completed over the binary protocol.
	WireOps uint64 `json:"wire_ops"`
	// WireFallbacks counts hops where the wire transport failed and the
	// client retried the same member over HTTP.
	WireFallbacks uint64 `json:"wire_fallbacks"`
	// Backoffs counts inter-round pauses taken after a full sweep of the
	// table failed to land the operation.
	Backoffs uint64 `json:"backoffs"`
}

// NewClient builds a routed client and fetches the initial table from the
// first reachable target.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, hc: cfg.HTTPClient, wclients: make(map[string]*wire.Client)}
	c.jitter.Store(uint64(time.Now().UnixNano()))
	if !c.fetchTable() {
		return nil, fmt.Errorf("cluster: no target reachable for the initial table: %v", cfg.Targets)
	}
	return c, nil
}

// Close shuts down the client's pooled wire connections. Routed operations
// issued after Close fall back to HTTP.
func (c *Client) Close() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.closed = true
	for _, wc := range c.wclients {
		wc.Close()
	}
	c.wclients = nil
}

// wireFor returns the pooled wire client for a member, dialing lazily, or
// nil when the member is HTTP-only (or wire is disabled).
func (c *Client) wireFor(m Member) *wire.Client {
	if c.cfg.DisableWire || m.WireAddr == "" {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return nil
	}
	wc := c.wclients[m.WireAddr]
	if wc == nil {
		wc = wire.NewClient(m.WireAddr, nil)
		c.wclients[m.WireAddr] = wc
	}
	return wc
}

// Table returns the client's current view of the membership table.
func (c *Client) Table() Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.table
}

// Counters returns a snapshot of the routing-health counters.
func (c *Client) Counters() ClientCounters {
	return ClientCounters{
		Refreshes:     c.refreshes.Load(),
		StaleEpochs:   c.staleEpochs.Load(),
		Misroutes:     c.misroutes.Load(),
		DeadHops:      c.deadHops.Load(),
		WireOps:       c.wireOps.Load(),
		WireFallbacks: c.wireFallbacks.Load(),
		Backoffs:      c.backoffs.Load(),
	}
}

// backoffSleep pauses between routing rounds: RouteBackoff doubled per round
// and jittered, capped at RouteBackoffMax, so clients hammering a cluster
// mid-failover spread out instead of sweeping the table in lockstep.
func (c *Client) backoffSleep(round int, sp *trace.Op) {
	c.backoffs.Add(1)
	d := wire.Backoff(c.cfg.RouteBackoff, c.cfg.RouteBackoffMax, round, &c.jitter)
	time.Sleep(d)
	sp.Phase(trace.PhaseBackoff, d)
}

// nextRID mints one trace id per routed operation. The high bit is set so a
// caller-provided frame ID can never collide with the wire client pool's
// auto-assigned sequence (which counts up from 1); every retry hop of one
// operation carries the same id, over both transports.
func (c *Client) nextRID() uint64 { return c.ridSeq.Add(1) | 1<<63 }

// ridString renders a trace id in the X-Request-ID vocabulary, so the HTTP
// fallback hop carries the same identity the wire frame would.
func ridString(rid uint64) string { return wire.RIDString(rid) }

// beginSpan opens the client-side span of one routed operation, or returns
// nil without formatting the rid when tracing is off. The same rid the
// member-side spans record makes `lactl trace` joinable across the two
// rings; hop time lands in the route phase, inter-round sleeps in backoff.
func (c *Client) beginSpan(op string, rid uint64) *trace.Op {
	if !c.cfg.Tracer.Enabled() {
		return nil
	}
	return c.cfg.Tracer.Begin(op, ridString(rid))
}

// clientCall recycles one wire request/response pair per routed hop.
type clientCall struct {
	req  wire.Request
	resp wire.Response
}

var clientCallPool = sync.Pool{New: func() any { return new(clientCall) }}

func putClientCall(w *clientCall) {
	w.req = wire.Request{Items: w.req.Items[:0]}
	w.resp.Reset()
	clientCallPool.Put(w)
}

// wireRequestFor translates an owner-addressed HTTP body to its wire opcode;
// false when the path has no wire equivalent.
func wireRequestFor(body any, req *wire.Request) bool {
	switch b := body.(type) {
	case server.AcquireRequest:
		req.Op = wire.OpAcquire
		req.TTLMillis = b.TTLMillis
		req.Items = req.Items[:0]
		return true
	case server.RenewRequest:
		req.Op = wire.OpRenew
		req.TTLMillis = b.TTLMillis
		req.Items = append(req.Items[:0], wire.Ref{Name: int64(b.Name), Token: b.Token})
		return true
	case server.ReleaseRequest:
		req.Op = wire.OpRelease
		req.Items = append(req.Items[:0], wire.Ref{Name: int64(b.Name), Token: b.Token})
		return true
	}
	return false
}

// hop sends one epoch-fenced operation to one member, preferring the binary
// protocol and falling back to HTTP when the wire transport fails. It
// returns the member's status, the epoch it advertised on a fence, and the
// retry hint on a 503.
func (c *Client) hop(m Member, epoch uint64, rid uint64, sp *trace.Op, body any, out *GrantResponse, path string) (status int, fencedAt uint64, retry time.Duration, err error) {
	defer sp.PhaseSince(trace.PhaseRoute, sp.Mark())
	if wc := c.wireFor(m); wc != nil {
		call := clientCallPool.Get().(*clientCall)
		if wireRequestFor(body, &call.req) {
			call.req.Epoch = epoch
			call.req.ID = rid
			call.req.Trace = sp.Traced()
			if werr := wc.Do(&call.req, &call.resp); werr == nil {
				c.wireOps.Add(1)
				resp := &call.resp
				if resp.Status == wire.StatusOK && out != nil && len(resp.Grants) == 1 {
					*out = server.GrantFromWire(resp.Grants[0])
				}
				status, fencedAt = int(resp.Status), resp.Epoch
				retry = time.Duration(resp.RetryAfterMillis) * time.Millisecond
				putClientCall(call)
				return status, fencedAt, retry, nil
			}
			c.wireFallbacks.Add(1)
		}
		putClientCall(call)
	}
	var fence EpochResponse
	// A typed-nil *GrantResponse must become a true nil interface, or
	// PostJSON would try to decode into it and report a transport error —
	// turning an applied release into a spurious retry.
	var dst any
	if out != nil {
		dst = out
	}
	hdr := http.Header{server.RequestIDHeader: {ridString(rid)}}
	if epoch != 0 {
		hdr.Set(EpochHeader, strconv.FormatUint(epoch, 10))
	}
	if sp.Traced() {
		hdr.Set(server.TraceForceHeader, "1")
	}
	status, header, err := server.PostJSON(c.hc, m.Addr+path, hdr, body, dst, &fence)
	if err != nil {
		return 0, 0, 0, err
	}
	return status, fence.Epoch, server.RetryAfterHint(header, 0), nil
}

// adoptTable installs t if it is newer than the current view.
func (c *Client) adoptTable(t Table) bool {
	if t.Validate() != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Epoch <= c.table.Epoch {
		return false
	}
	c.table = t
	return true
}

// fetchTable pulls /cluster from the known members (live first), then the
// seed targets, adopting the first table newer than the current view; it
// also succeeds when a fetched table matches the current epoch (nothing
// newer exists). Used at startup and by Refresh.
func (c *Client) fetchTable() bool {
	cur := c.Table()
	var addrs []string
	for _, m := range cur.Alive() {
		addrs = append(addrs, m.Addr)
	}
	addrs = append(addrs, c.cfg.Targets...)
	for _, addr := range addrs {
		var t Table
		status, err := server.GetJSON(c.hc, addr+"/cluster", &t)
		if err != nil || status/100 != 2 {
			continue
		}
		if c.adoptTable(t) || t.Epoch == c.Table().Epoch {
			return true
		}
	}
	return false
}

// Refresh re-fetches the membership table; routed operations call it
// automatically, so it is only needed to force a resync.
func (c *Client) Refresh() bool {
	c.refreshes.Add(1)
	return c.fetchTable()
}

// Acquire requests a lease from any live member, round-robin, skipping dead
// members and refreshing the table across failovers. It returns the grant
// and HTTP status; on a cluster-wide 503 the duration carries the smallest
// Retry-After pacing the members advertised.
func (c *Client) Acquire(ttlMillis int64) (GrantResponse, int, time.Duration, error) {
	rid := c.nextRID()
	sp := c.beginSpan("client.acquire", rid)
	for round := 0; ; round++ {
		t := c.Table()
		alive := t.Alive()
		start := c.rr.Add(1)
		sawFull := false
		hint := time.Duration(0)
		refresh := false
		for i := 0; i < len(alive); i++ {
			m := alive[(start+uint64(i))%uint64(len(alive))]
			var grant GrantResponse
			status, _, retry, err := c.hop(m, t.Epoch, rid, sp, server.AcquireRequest{TTLMillis: ttlMillis}, &grant, "/acquire")
			switch {
			case err != nil:
				c.deadHops.Add(1)
				refresh = true
			case status/100 == 2:
				if sp != nil {
					sp.SetNode(grant.NodeID, grant.Partition)
					sp.SetEpoch(grant.Epoch)
					sp.Finish("")
				}
				return grant, status, 0, nil
			case status == http.StatusServiceUnavailable:
				sawFull = true
				if retry > 0 && (hint == 0 || retry < hint) {
					hint = retry
				}
			case status == http.StatusPreconditionFailed:
				c.staleEpochs.Add(1)
				refresh = true
			default:
				sp.Finish(fmt.Sprintf("http_%d", status))
				return GrantResponse{}, status, 0, nil
			}
		}
		if sawFull {
			// At least one member answered authoritatively: the cluster is
			// saturated (or warming); pacing is the caller's business.
			sp.Finish(server.ErrCodeFull)
			return GrantResponse{}, http.StatusServiceUnavailable, hint, nil
		}
		if round+1 >= c.cfg.RouteRounds {
			sp.Finish("route_exhausted")
			return GrantResponse{}, 0, 0, fmt.Errorf("cluster: no member served acquire after %d rounds (rid=%s)", round+1, ridString(rid))
		}
		if refresh || len(alive) == 0 {
			c.Refresh()
		}
		c.backoffSleep(round, sp)
	}
}

// routed sends one owner-addressed operation with refresh-and-retry routing;
// op names its client-side span.
func (c *Client) routed(op, path string, name int, body any, out *GrantResponse) (int, error) {
	rid := c.nextRID()
	sp := c.beginSpan(op, rid)
	var lastErr error
	for round := 0; ; round++ {
		t := c.Table()
		p := t.PartitionOf(name)
		if p < 0 {
			sp.Finish(server.ErrCodeBadRequest)
			return 0, fmt.Errorf("cluster: name %d outside the namespace [0, %d)", name, t.Size())
		}
		owner, ok := t.Owner(p)
		if ok {
			status, fencedAt, _, err := c.hop(owner, t.Epoch, rid, sp, body, out, path)
			switch {
			case err != nil:
				c.deadHops.Add(1)
				lastErr = err
			case status == http.StatusPreconditionFailed:
				c.staleEpochs.Add(1)
				lastErr = fmt.Errorf("cluster: %s fenced by epoch %d (ours %d, rid=%s)", path, fencedAt, t.Epoch, ridString(rid))
			case status == http.StatusMisdirectedRequest:
				c.misroutes.Add(1)
				lastErr = fmt.Errorf("cluster: member %d no longer owns partition %d (rid=%s)", owner.ID, p, ridString(rid))
			default:
				if sp != nil {
					sp.SetNode(owner.ID, p)
					sp.SetEpoch(t.Epoch)
					if status/100 == 2 {
						sp.Finish("")
					} else {
						sp.Finish(fmt.Sprintf("http_%d", status))
					}
				}
				return status, nil
			}
		}
		if round+1 >= c.cfg.RouteRounds {
			sp.Finish("route_exhausted")
			return 0, fmt.Errorf("cluster: routing %s for name %d failed after %d rounds: %w", path, name, round+1, lastErr)
		}
		c.Refresh()
		c.backoffSleep(round, sp)
	}
}

// Renew extends a lease through the partition's owner.
func (c *Client) Renew(name int, token uint64, ttlMillis int64) (GrantResponse, int, error) {
	var grant GrantResponse
	status, err := c.routed("client.renew", "/renew", name, server.RenewRequest{Name: name, Token: token, TTLMillis: ttlMillis}, &grant)
	return grant, status, err
}

// Release frees a lease through the partition's owner.
func (c *Client) Release(name int, token uint64) (int, error) {
	return c.routed("client.release", "/release", name, server.ReleaseRequest{Name: name, Token: token}, nil)
}

// CollectNode fetches one member's registered names (GET /collect).
func (c *Client) CollectNode(addr string) ([]int, error) {
	var resp server.CollectResponse
	status, err := server.GetJSON(c.hc, addr+"/collect", &resp)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("cluster: collect from %s returned %d", addr, status)
	}
	return resp.Names, nil
}

// NodeStats fetches one member's /stats.
func (c *Client) NodeStats(addr string) (NodeStatsResponse, error) {
	var s NodeStatsResponse
	status, err := server.GetJSON(c.hc, addr+"/stats", &s)
	if err != nil {
		return s, err
	}
	if status/100 != 2 {
		return s, fmt.Errorf("cluster: stats from %s returned %d", addr, status)
	}
	return s, nil
}

// ClusterActive sums the active leases over every reachable live member, and
// reports how many members answered.
func (c *Client) ClusterActive() (active int64, reporting int) {
	for _, m := range c.Table().Alive() {
		s, err := c.NodeStats(m.Addr)
		if err != nil {
			continue
		}
		active += s.Active
		reporting++
	}
	return active, reporting
}
