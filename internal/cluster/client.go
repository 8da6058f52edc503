package cluster

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/wire"
)

// ClientConfig parameterizes a routed cluster client.
type ClientConfig struct {
	// Targets seeds the membership discovery: any subset of the cluster's
	// advertised addresses. The first reachable one supplies the table.
	Targets []string
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
}

func (c ClientConfig) withDefaults() (ClientConfig, error) {
	if len(c.Targets) == 0 {
		return c, fmt.Errorf("cluster: client needs at least one target")
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

	mu    sync.RWMutex
	table Table

	rr atomic.Uint64

	// ridSeq mints per-operation request ids (see nextRID).
	ridSeq atomic.Uint64

	// One client per member: a server.WireClient per advertised wire
	// endpoint, dialed lazily on the first hop (conns keeps their pools for
	// Close), and a server.Client per member URL.
	cmu      sync.Mutex
	wclients map[string]*server.WireClient
	conns    []*wire.Client
	hclients map[string]*server.Client
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
	c := &Client{cfg: cfg, wclients: make(map[string]*server.WireClient), hclients: make(map[string]*server.Client)}
	c.jitter.Store(uint64(time.Now().UnixNano()))
	if !c.fetchTable() {
		return nil, fmt.Errorf("cluster: no target reachable for the initial table: %v", cfg.Targets)
	}
	return c, nil
}

// Close shuts down the client's pooled wire connections. Routed operations
// issued after Close fall back to HTTP.
func (c *Client) Close() {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	c.closed = true
	for _, wc := range c.conns {
		wc.Close()
	}
	c.wclients, c.conns = nil, nil
}

// wireFor returns the wire client for a member, dialing lazily, or nil when
// the member is HTTP-only (or wire is disabled, or the client closed).
func (c *Client) wireFor(m Member) *server.WireClient {
	if c.cfg.DisableWire || m.WireAddr == "" {
		return nil
	}
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.closed {
		return nil
	}
	wc := c.wclients[m.WireAddr]
	if wc == nil {
		conn := wire.NewClient(m.WireAddr, nil)
		c.conns = append(c.conns, conn)
		wc = server.NewWireClient(conn)
		c.wclients[m.WireAddr] = wc
	}
	return wc
}

// httpFor returns the HTTP client for one member URL.
func (c *Client) httpFor(addr string) *server.Client {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	hc := c.hclients[addr]
	if hc == nil {
		hc = server.NewClient(addr, nil)
		c.hclients[addr] = hc
	}
	return hc
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
func (c *Client) backoffSleep(round int) {
	c.backoffs.Add(1)
	time.Sleep(wire.Backoff(c.cfg.RouteBackoff, c.cfg.RouteBackoffMax, round, &c.jitter))
}

// nextRID mints one request id per routed operation. The high bit is set so
// it can never collide with the wire client pool's auto-assigned sequence
// (which counts up from 1); every retry hop of one operation carries the
// same id, over both transports, so the members' spans and fence logs join
// the op's hops by it.
func (c *Client) nextRID() uint64 { return c.ridSeq.Add(1) | 1<<63 }

// hop sends one lease write to one member over its wire endpoint, or over
// HTTP when it advertises none or the wire transport fails.
func (c *Client) hop(m Member, w server.Write) (server.Answer, error) {
	if wc := c.wireFor(m); wc != nil {
		a, err := wc.Write(w)
		if err == nil {
			c.wireOps.Add(1)
			return a, nil
		}
		c.wireFallbacks.Add(1)
	}
	return c.httpFor(m.Addr).Write(w)
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
		if c.httpFor(addr).Read(wire.OpMembers, 0, 0, &t) != nil {
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
	w := server.Write{Op: wire.OpAcquire, TTLMillis: ttlMillis, ID: c.nextRID()}
	for round := 0; ; round++ {
		t := c.Table()
		alive := t.Alive()
		start := c.rr.Add(1)
		sawFull := false
		hint := time.Duration(0)
		refresh := false
		w.Epoch = t.Epoch
		for i := 0; i < len(alive); i++ {
			a, err := c.hop(alive[(start+uint64(i))%uint64(len(alive))], w)
			switch {
			case err != nil:
				c.deadHops.Add(1)
				refresh = true
			case a.Status/100 == 2:
				return a.Grant, a.Status, 0, nil
			case a.Status == http.StatusServiceUnavailable:
				sawFull = true
				if a.Retry > 0 && (hint == 0 || a.Retry < hint) {
					hint = a.Retry
				}
			case a.Status == http.StatusPreconditionFailed:
				c.staleEpochs.Add(1)
				refresh = true
			default:
				return GrantResponse{}, a.Status, 0, nil
			}
		}
		if sawFull {
			// At least one member answered authoritatively: the cluster is
			// saturated (or warming); pacing is the caller's business.
			return GrantResponse{}, http.StatusServiceUnavailable, hint, nil
		}
		if round+1 >= c.cfg.RouteRounds {
			return GrantResponse{}, 0, 0, fmt.Errorf("cluster: no member served acquire after %d rounds (rid=%s)", round+1, wire.RIDString(w.ID))
		}
		if refresh || len(alive) == 0 {
			c.Refresh()
		}
		c.backoffSleep(round)
	}
}

// routed sends one owner-addressed write with refresh-and-retry routing.
func (c *Client) routed(w server.Write) (server.Answer, error) {
	w.ID = c.nextRID()
	var lastErr error
	for round := 0; ; round++ {
		t := c.Table()
		p := t.PartitionOf(w.Name)
		if p < 0 {
			return server.Answer{}, fmt.Errorf("cluster: name %d outside the namespace [0, %d)", w.Name, t.Size())
		}
		if owner, ok := t.Owner(p); ok {
			w.Epoch = t.Epoch
			a, err := c.hop(owner, w)
			switch {
			case err != nil:
				c.deadHops.Add(1)
				lastErr = err
			case a.Status == http.StatusPreconditionFailed:
				c.staleEpochs.Add(1)
				lastErr = fmt.Errorf("cluster: %v fenced by epoch %d (ours %d, rid=%s)", w.Op, a.Epoch, t.Epoch, wire.RIDString(w.ID))
			case a.Status == http.StatusMisdirectedRequest:
				c.misroutes.Add(1)
				lastErr = fmt.Errorf("cluster: member %d no longer owns partition %d (rid=%s)", owner.ID, p, wire.RIDString(w.ID))
			default:
				return a, nil
			}
		}
		if round+1 >= c.cfg.RouteRounds {
			return server.Answer{}, fmt.Errorf("cluster: routing %v for name %d failed after %d rounds: %w", w.Op, w.Name, round+1, lastErr)
		}
		c.Refresh()
		c.backoffSleep(round)
	}
}

// Renew extends a lease through the partition's owner.
func (c *Client) Renew(name int, token uint64, ttlMillis int64) (GrantResponse, int, error) {
	a, err := c.routed(server.Write{Op: wire.OpRenew, Name: name, Token: token, TTLMillis: ttlMillis})
	return a.Grant, a.Status, err
}

// Release frees a lease through the partition's owner.
func (c *Client) Release(name int, token uint64) (int, error) {
	a, err := c.routed(server.Write{Op: wire.OpRelease, Name: name, Token: token})
	return a.Status, err
}

// CollectNode fetches one member's registered names (GET /collect).
func (c *Client) CollectNode(addr string) ([]int, error) {
	var resp server.CollectResponse
	err := c.httpFor(addr).Read(wire.OpCollect, 0, 0, &resp)
	return resp.Names, err
}

// NodeStats fetches one member's /stats.
func (c *Client) NodeStats(addr string) (NodeStatsResponse, error) {
	var s NodeStatsResponse
	err := c.httpFor(addr).Read(wire.OpStats, 0, 0, &s)
	return s, err
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
