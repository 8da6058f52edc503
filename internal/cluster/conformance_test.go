package cluster

import (
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wire"
)

// confTick is both backends' expirer tick: the retry hint every 503 of the
// conformance script must carry, unless its error names its own wait.
const confTick = 20 * time.Millisecond

// confBackend is one server.Service under the conformance script: the
// manager-backed standalone service, or a single running cluster node whose
// two-member table gives the other member partition 1 (the peer is never
// started), so the node has a foreign partition to answer 421 for.
type confBackend struct {
	http   http.Handler
	wire   wire.Backend
	epoch  uint64                 // the epoch writes carry: the node's, 0 standalone
	active func() int             // held leases
	close  func()                 // closes the managers behind the service
	node   *Node                  // nil standalone
	held   []server.GrantResponse // leases the script leaves held
}

func newManagerBackend(t *testing.T) *confBackend {
	mgr := lease.MustNewManager(core.MustNew(core.Config{Capacity: 4, Epsilon: 1, Seed: 1}),
		lease.Config{TickInterval: confTick, MaxTTL: time.Minute})
	t.Cleanup(mgr.Close)
	cfg := server.Config{DefaultTTL: time.Second}
	return &confBackend{
		http: server.New(mgr, cfg), wire: server.NewWireBackend(mgr, cfg),
		active: mgr.Active, close: mgr.Close,
	}
}

func newNodeBackend(t *testing.T) *confBackend {
	cfg := testNodeConfig(0, 2, 2, 4)
	cfg.Lease.TickInterval = confTick
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(n.Close)
	return &confBackend{
		http: n, wire: n, epoch: n.Epoch(), node: n, close: n.Close,
		active: func() int { return int(n.statsResponse().Active) },
	}
}

// confConn performs the single-lease writes through one production client,
// server.Client or server.WireClient, and fails the test on a transport
// error. raw is the wire connection the batch steps use (nil over HTTP).
type confConn struct {
	t    *testing.T
	conn server.Conn
	raw  *wire.Client
}

func (c confConn) write(w server.Write) server.Answer {
	c.t.Helper()
	a, err := c.conn.Write(w)
	if err != nil {
		c.t.Fatalf("%v: %v", w.Op, err)
	}
	return a
}

func (c confConn) acquire(epoch uint64, ttl int64) server.Answer {
	return c.write(server.Write{Op: wire.OpAcquire, Epoch: epoch, TTLMillis: ttl})
}

func (c confConn) renew(epoch uint64, name int, token uint64, ttl int64) server.Answer {
	return c.write(server.Write{Op: wire.OpRenew, Epoch: epoch, Name: name, Token: token, TTLMillis: ttl})
}

func (c confConn) release(epoch uint64, name int, token uint64) server.Answer {
	return c.write(server.Write{Op: wire.OpRelease, Epoch: epoch, Name: name, Token: token})
}

// retryHeaders fails the test on an HTTP answer that carries only one of the
// two retry headers: the client reads X-Retry-After-Ms, and Retry-After must
// stand beside it for clients that only know the standard header.
type retryHeaders struct {
	t  *testing.T
	rt http.RoundTripper
}

func (r retryHeaders) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.rt.RoundTrip(req)
	if err == nil && (resp.Header.Get("Retry-After") == "") != (resp.Header.Get("X-Retry-After-Ms") == "") {
		r.t.Errorf("%s %d: Retry-After %q beside X-Retry-After-Ms %q", req.URL.Path, resp.StatusCode,
			resp.Header.Get("Retry-After"), resp.Header.Get("X-Retry-After-Ms"))
	}
	return resp, err
}

func dialHTTP(t *testing.T, b *confBackend) confConn {
	srv := httptest.NewServer(b.http)
	t.Cleanup(srv.Close)
	hc := srv.Client()
	hc.Transport = retryHeaders{t: t, rt: hc.Transport}
	return confConn{t: t, conn: server.NewClient(srv.URL, hc)}
}

func dialWire(t *testing.T, b *confBackend) confConn {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := wire.NewServer(b.wire)
	go func() { _ = srv.Serve(ln) }()
	cl := wire.NewClient(ln.Addr().String(), nil)
	t.Cleanup(func() {
		cl.Close()
		_ = srv.Close()
	})
	return confConn{t: t, conn: server.NewWireClient(cl), raw: cl}
}

// want checks one answer's status, code and retry hint (0 = none).
func want(t *testing.T, step string, got server.Answer, status int, code string, hintMillis int64) {
	t.Helper()
	if got.Status != status || got.Code != code || got.Retry != time.Duration(hintMillis)*time.Millisecond {
		t.Fatalf("%s: got %d %q hint %v, want %d %q hint %dms", step, got.Status, got.Code, got.Retry, status, code, hintMillis)
	}
}

// TestServiceConformance runs one script against {manager-backed service,
// cluster node} x {HTTP codec, wire codec}, through the production client of
// each protocol, and checks every step's status, code, retry hint, epoch and
// grant. A step that differs between the backends says so per
// backend; no step differs between the codecs, except that batches exist
// only as wire opcodes.
func TestServiceConformance(t *testing.T) {
	for _, backend := range []struct {
		name string
		mk   func(*testing.T) *confBackend
	}{{"manager", newManagerBackend}, {"node", newNodeBackend}} {
		for _, codec := range []struct {
			name string
			dial func(*testing.T, *confBackend) confConn
		}{{"http", dialHTTP}, {"wire", dialWire}} {
			t.Run(backend.name+"/"+codec.name, func(t *testing.T) {
				b := backend.mk(t)
				conformanceScript(t, b, codec.dial(t, b))
			})
		}
	}
}

func conformanceScript(t *testing.T, b *confBackend, c confConn) {
	tick := confTick.Milliseconds()

	// Grant, renew and release. A grant carries its backend's epoch, and a
	// node's grant says where the lease lives.
	g := c.acquire(b.epoch, 60_000)
	want(t, "acquire", g, 200, "", 0)
	if g.Grant.Token == 0 || g.Grant.DeadlineUnixMillis == 0 || g.Epoch != b.epoch || g.Grant.Epoch != b.epoch || b.active() != 1 {
		t.Fatalf("acquire: %+v with %d held, want a token, a deadline, epoch %d and one held lease", g, b.active(), b.epoch)
	}
	if b.node != nil {
		if p := b.node.Table().PartitionOf(g.Grant.Name); g.Grant.NodeID != 0 || g.Grant.Partition != p {
			t.Fatalf("acquire: grant from node %d partition %d, want node 0 partition %d", g.Grant.NodeID, g.Grant.Partition, p)
		}
	}
	r := c.renew(b.epoch, g.Grant.Name, g.Grant.Token, 60_000)
	want(t, "renew", r, 200, "", 0)
	if r.Grant.Name != g.Grant.Name || r.Grant.Token != g.Grant.Token || r.Grant.DeadlineUnixMillis < g.Grant.DeadlineUnixMillis {
		t.Fatalf("renew: %+v, want name %d with a deadline no earlier than %d", r, g.Grant.Name, g.Grant.DeadlineUnixMillis)
	}

	// 409: a wrong token is stale; a released or never-issued name is not
	// leased.
	want(t, "renew with a stale token", c.renew(b.epoch, g.Grant.Name, g.Grant.Token+1, 0), 409, "stale_token", 0)
	want(t, "release", c.release(b.epoch, g.Grant.Name, g.Grant.Token), 200, "", 0)
	if b.active() != 0 {
		t.Fatalf("%d leases held after the release, want 0", b.active())
	}
	want(t, "second release", c.release(b.epoch, g.Grant.Name, g.Grant.Token), 409, "not_leased", 0)
	want(t, "renew after release", c.renew(b.epoch, g.Grant.Name, g.Grant.Token, 0), 409, "not_leased", 0)
	want(t, "release outside the namespace", c.release(b.epoch, 1<<40, 1), 409, "not_leased", 0)

	// 400: a TTL above MaxTTL (one minute on both backends).
	want(t, "acquire above MaxTTL", c.acquire(b.epoch, 120_000), 400, "ttl_too_long", 0)

	// A write without an epoch passes unfenced on both backends.
	g = c.acquire(0, 60_000)
	want(t, "unfenced acquire", g, 200, "", 0)
	b.held = append(b.held, g.Grant)

	if b.node != nil {
		// Node only — 412: every write with another epoch, via the header or
		// the frame, answers the node's current epoch, counts once, and
		// changes nothing.
		cur, rejects := b.node.Epoch(), b.node.events.Count(trace.EvStaleEpoch)
		for step, res := range map[string]server.Answer{
			"acquire at a stale epoch": c.acquire(cur+7, 60_000),
			"renew at a stale epoch":   c.renew(cur+7, g.Grant.Name, g.Grant.Token, 60_000),
			"release at a stale epoch": c.release(cur+7, g.Grant.Name, g.Grant.Token),
		} {
			want(t, step, res, 412, "stale_epoch", 0)
			if res.Epoch != cur || res.Grant != (server.GrantResponse{}) {
				t.Fatalf("%s: %+v, want the node's epoch %d and no grant", step, res, cur)
			}
		}
		if got := b.node.events.Count(trace.EvStaleEpoch) - rejects; got != 3 {
			t.Fatalf("stale_epoch_rejects moved by %d, want 3", got)
		}
		want(t, "renew at the current epoch", c.renew(cur, g.Grant.Name, g.Grant.Token, 60_000), 200, "", 0)

		// Node only — 421: a name in the other member's partition, with the
		// node's epoch so the client can tell how stale its table is.
		tbl := b.node.Table()
		foreign := tbl.PartitionsOf(1)[0]*tbl.Stride + 3
		misroutes := b.node.misroutes.Load()
		for step, res := range map[string]server.Answer{
			"renew of a foreign name":   c.renew(cur, foreign, 1, 0),
			"release of a foreign name": c.release(cur, foreign, 1),
		} {
			want(t, step, res, 421, "not_owner", 0)
			if res.Epoch != cur || res.Grant != (server.GrantResponse{}) {
				t.Fatalf("%s: %+v, want the node's epoch %d and no grant", step, res, cur)
			}
		}
		if got := b.node.misroutes.Load() - misroutes; got != 2 {
			t.Fatalf("misroutes moved by %d, want 2", got)
		}
	}

	if c.raw != nil {
		conformanceBatch(t, b, c.raw)
	}

	// 503 full with a one-tick hint, once the namespace is exhausted.
	var full server.Answer
	for i := 0; i < 64; i++ {
		if full = c.acquire(b.epoch, 60_000); full.Status != 200 {
			break
		}
		b.held = append(b.held, full.Grant)
	}
	want(t, "acquire on a full namespace", full, 503, "full", tick)

	// 503 closed, with the same one-tick hint over both codecs. A closed
	// manager answers every write closed; a node's acquire skips its closed
	// partitions, so it finds nothing open and answers full.
	b.close()
	closedAcquire := "closed"
	if b.node != nil {
		closedAcquire = "full"
	}
	want(t, "acquire after close", c.acquire(b.epoch, 60_000), 503, closedAcquire, tick)
	held := b.held[0]
	want(t, "renew after close", c.renew(b.epoch, held.Name, held.Token, 60_000), 503, "closed", tick)
	want(t, "release after close", c.release(b.epoch, held.Name, held.Token), 503, "closed", tick)
}

// conformanceBatch checks per-item outcomes: one stale or foreign item fails
// alone, with the code its single-op form would answer, and the batch
// succeeds. Batches are wire opcodes only.
func conformanceBatch(t *testing.T, b *confBackend, cl *wire.Client) {
	// do sends one raw batch frame and answers it as the script checks it.
	do := func(req *wire.Request) (server.Answer, *wire.Response) {
		t.Helper()
		var resp wire.Response
		if err := cl.Do(req, &resp); err != nil {
			t.Fatalf("%v frame: %v", req.Op, err)
		}
		return server.Answer{Status: int(resp.Status), Code: resp.Code.String(), Retry: time.Duration(resp.RetryAfterMillis) * time.Millisecond}, &resp
	}
	r, resp := do(&wire.Request{Op: wire.OpAcquireN, Epoch: b.epoch, TTLMillis: 60_000, N: 3})
	want(t, "AcquireN", r, 200, "", 0)
	if len(resp.Grants) != 3 {
		t.Fatalf("AcquireN granted %d, want 3", len(resp.Grants))
	}
	grants := append([]wire.Grant(nil), resp.Grants...)

	refs := []wire.Ref{
		{Name: grants[0].Name, Token: grants[0].Token},
		{Name: grants[1].Name, Token: grants[1].Token + 1},
		{Name: 1 << 40, Token: 1},
	}
	items := []struct {
		status wire.Status
		code   wire.Code
	}{{200, wire.CodeNone}, {409, wire.CodeStaleToken}, {409, wire.CodeNotLeased}}
	if b.node != nil {
		tbl := b.node.Table()
		refs = append(refs, wire.Ref{Name: int64(tbl.PartitionsOf(1)[0]*tbl.Stride + 1), Token: 1})
		items = append(items, struct {
			status wire.Status
			code   wire.Code
		}{421, wire.CodeNotOwner})
	}
	r, resp = do(&wire.Request{Op: wire.OpRenewSession, Epoch: b.epoch, TTLMillis: 60_000, Items: refs})
	want(t, "RenewSession", r, 200, "", 0)
	if len(resp.Items) != len(items) {
		t.Fatalf("RenewSession answered %d items for %d refs", len(resp.Items), len(items))
	}
	for i, it := range resp.Items {
		if it.Status != items[i].status || it.Code != items[i].code || (it.Status == 200) != (it.DeadlineUnixMilli != 0) {
			t.Fatalf("RenewSession item %d: %+v, want %d %v", i, it, items[i].status, items[i].code)
		}
	}

	refs = refs[:0]
	for _, g := range grants {
		refs = append(refs, wire.Ref{Name: g.Name, Token: g.Token})
	}
	refs = append(refs, refs[0])
	r, resp = do(&wire.Request{Op: wire.OpReleaseN, Epoch: b.epoch, Items: refs})
	want(t, "ReleaseN", r, 200, "", 0)
	for i, it := range resp.Items {
		wantStatus, wantCode := wire.StatusOK, wire.CodeNone
		if i == len(refs)-1 {
			wantStatus, wantCode = wire.StatusConflict, wire.CodeNotLeased
		}
		if it.Status != wantStatus || it.Code != wantCode {
			t.Fatalf("ReleaseN item %d: %+v, want %d %v", i, it, wantStatus, wantCode)
		}
	}
	if b.node != nil {
		r, _ = do(&wire.Request{Op: wire.OpReleaseN, Epoch: b.epoch + 7, Items: refs[:1]})
		want(t, "ReleaseN at a stale epoch", r, 412, "stale_epoch", 0)
	}
}

// TestErrCodesSpellWireCodes pins the JSON error-code constants clients
// compare against to the one spelling both codecs emit, wire.Code.String.
func TestErrCodesSpellWireCodes(t *testing.T) {
	for _, code := range []string{
		server.ErrCodeFull, server.ErrCodeStaleToken, server.ErrCodeNotLeased, server.ErrCodeClosed,
		server.ErrCodeTTL, server.ErrCodeBadRequest,
		ErrCodeStaleEpoch, ErrCodeNotOwner, ErrCodeWarming, ErrCodeNoPartitions,
	} {
		if c := wire.ParseCode(code); c == wire.CodeInternal || c.String() != code {
			t.Errorf("error code %q parses to wire code %d (%q)", code, c, c.String())
		}
	}
}
