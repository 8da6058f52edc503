package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/metrics"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wire"
)

// LocalConfig parameterizes an in-process cluster: N real nodes on loopback
// listeners, each with its own partitions, prober and expirers — the harness
// behind the cluster tests, the chaos mode of cmd/laload and the loopback
// benchmark. Process boundaries are the only thing it fakes: everything
// else (routing, epochs, failover, quarantine) is the production path.
type LocalConfig struct {
	// Nodes is N. Zero selects 3.
	Nodes int
	// Partitions is P (a power of two). Zero selects 8.
	Partitions int
	// Capacity is the total cluster capacity, split evenly over partitions
	// (rounded up per partition). Zero selects 1024.
	Capacity int
	// NewPartitionArray overrides the per-partition array factory. Nil
	// selects an unsharded LevelArray (ε = 1) seeded per partition.
	NewPartitionArray func(partition, capacity int, seed uint64) (activity.Array, error)
	// Seed feeds the per-partition array seeds.
	Seed uint64
	// Node carries the per-node knobs (lease tick, TTL bounds, probe
	// cadence); NodeID, Peers, Partitions and the factory are filled in per
	// node. Zero values select the NodeConfig defaults.
	Node NodeConfig
	// DataDir, when set, gives every member durable lease state under
	// DataDir/node<i>/ (per-partition WALs and snapshots). Kill then models a
	// crash — no clean snapshot is written — and Restart can bring the member
	// back on the same addresses, replaying its recorded state.
	DataDir string
	// DisableWire leaves the binary wire listeners unbound, so every member
	// is HTTP-only. By default each local node serves both protocols.
	DisableWire bool
	// DisableMetrics leaves the members without registries, so /metrics
	// returns 404 — the shape of a deployment that opted out.
	DisableMetrics bool
	// Trace gives every member its own flight recorder (enabled, default
	// sampling), serving /debug/trace and /debug/trace/slow — what a
	// deployment running laserve -trace looks like.
	Trace bool
}

func (c LocalConfig) withDefaults() LocalConfig {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Partitions <= 0 {
		c.Partitions = 8
	}
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NewPartitionArray == nil {
		c.NewPartitionArray = func(partition, capacity int, seed uint64) (activity.Array, error) {
			return core.New(core.Config{Capacity: capacity, Epsilon: 1, Seed: seed})
		}
	}
	return c
}

// localNode is one in-process member: the node plus its HTTP and wire front
// ends.
type localNode struct {
	node     *Node
	server   *http.Server
	listener net.Listener
	addr     string
	wireSrv  *wire.Server
	wireLn   net.Listener
	wireAddr string
	alive    bool
	// boot is the admission table of a member added by Join; nil for the
	// original members (they construct the epoch-1 table from Peers).
	boot *Table

	// conns holds the state of each open HTTP connection (the server's
	// ConnState hook). A clean stop closes the ones that have not begun a
	// request, such as a client's spare dial, which Shutdown would otherwise
	// wait up to 5s for; once stopping, new ones are closed at once.
	connMu   sync.Mutex
	conns    map[net.Conn]http.ConnState
	stopping bool
}

// trackConn is the member's http.Server ConnState hook.
func (n *localNode) trackConn(c net.Conn, st http.ConnState) {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	switch {
	case st == http.StateClosed || st == http.StateHijacked:
		delete(n.conns, c)
	case st == http.StateNew && n.stopping:
		c.Close()
	default:
		n.conns[c] = st
	}
}

// closeNew closes every HTTP connection that has not begun a request, now
// and from now on.
func (n *localNode) closeNew() {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	n.stopping = true
	for c, st := range n.conns {
		if st == http.StateNew {
			c.Close()
			delete(n.conns, c)
		}
	}
}

// Local is a running in-process cluster. The mutex serializes Kill and
// Restart against the liveness reads chaos runs perform from other
// goroutines.
type Local struct {
	cfg          LocalConfig
	peers        []string
	wirePeers    []string
	perPartition int

	mu    sync.Mutex
	nodes []*localNode
}

// StartLocal boots an in-process cluster: listeners first (so every
// advertised address works before any prober fires), then the nodes.
func StartLocal(cfg LocalConfig) (*Local, error) {
	cfg = cfg.withDefaults()
	perPartition := (cfg.Capacity + cfg.Partitions - 1) / cfg.Partitions

	l := &Local{cfg: cfg}
	peers := make([]string, cfg.Nodes)
	var wirePeers []string
	if !cfg.DisableWire {
		wirePeers = make([]string, cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("cluster: local listener %d: %w", i, err)
		}
		local := &localNode{listener: ln, addr: "http://" + ln.Addr().String(), alive: true}
		if !cfg.DisableWire {
			wln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				_ = ln.Close()
				l.Close()
				return nil, fmt.Errorf("cluster: local wire listener %d: %w", i, err)
			}
			local.wireLn = wln
			local.wireAddr = wln.Addr().String()
			wirePeers[i] = local.wireAddr
		}
		l.nodes = append(l.nodes, local)
		peers[i] = local.addr
	}
	l.peers = peers
	l.wirePeers = wirePeers
	l.perPartition = perPartition

	for i := 0; i < cfg.Nodes; i++ {
		if err := l.startNode(i); err != nil {
			l.Close()
			return nil, err
		}
	}
	return l, nil
}

// nodeConfigFor builds member i's NodeConfig from the local config — the one
// place the per-node knobs are assembled, shared by boot, Restart and Join.
// The peer snapshot is taken under the mutex because Join grows the lists
// copy-on-write while chaos restarts read them.
func (l *Local) nodeConfigFor(i int) NodeConfig {
	cfg := l.cfg
	ncfg := cfg.Node
	ncfg.NodeID = i
	l.mu.Lock()
	ncfg.Peers = l.peers
	ncfg.WirePeers = l.wirePeers
	ncfg.Bootstrap = l.nodes[i].boot
	l.mu.Unlock()
	ncfg.Partitions = cfg.Partitions
	ncfg.NewPartitionArray = func(partition int) (activity.Array, error) {
		return cfg.NewPartitionArray(partition, l.perPartition, cfg.Seed+uint64(partition)*0x9E3779B97F4A7C15+1)
	}
	if cfg.DataDir != "" {
		ncfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("node%d", i))
	}
	// Each member gets its own registry — exactly what separate processes
	// would have — so chaos runs can verify the metrics surface per node.
	if ncfg.Metrics == nil && !cfg.DisableMetrics {
		reg := metrics.NewRegistry()
		metrics.RegisterRuntime(reg)
		ncfg.Metrics = server.NewMetrics(reg)
	}
	if ncfg.Tracer == nil && cfg.Trace {
		ncfg.Tracer = trace.New(trace.Config{Enabled: true, Node: i})
	}
	return ncfg
}

// startNode builds and starts member i on its already-bound listeners.
func (l *Local) startNode(i int) error {
	ncfg := l.nodeConfigFor(i)
	node, err := NewNode(ncfg)
	if err != nil {
		return err
	}
	ln := l.nodes[i]
	ln.node = node
	ln.connMu.Lock()
	ln.conns, ln.stopping = map[net.Conn]http.ConnState{}, false
	ln.connMu.Unlock()
	ln.server = &http.Server{Handler: node, ConnState: ln.trackConn}
	go func() { _ = ln.server.Serve(ln.listener) }()
	if ln.wireLn != nil {
		ln.wireSrv = wire.NewServer(node)
		ln.wireSrv.SetTracer(ncfg.Tracer)
		go func() { _ = ln.wireSrv.Serve(ln.wireLn) }()
	}
	node.Start()
	return nil
}

// snapshot returns the current member list. Join replaces the slice
// wholesale (copy-on-write) rather than mutating it, so the returned slice
// is immutable and safe to walk without the lock.
func (l *Local) snapshot() []*localNode {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nodes
}

// WireTargets returns every member's wire endpoint (empty strings when wire
// is disabled), index-aligned with Targets.
func (l *Local) WireTargets() []string {
	nodes := l.snapshot()
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.wireAddr
	}
	return out
}

// Targets returns every member's base URL, dead ones included (the routed
// client is expected to cope).
func (l *Local) Targets() []string {
	nodes := l.snapshot()
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.addr
	}
	return out
}

// Node returns member i's Node (nil after Kill).
func (l *Local) Node(i int) *Node {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.nodes) || !l.nodes[i].alive {
		return nil
	}
	return l.nodes[i].node
}

// Nodes returns the current member count (growing as members Join).
func (l *Local) Nodes() int { return len(l.snapshot()) }

// AliveIDs returns the members not yet killed.
func (l *Local) AliveIDs() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int
	for i, n := range l.nodes {
		if n.alive {
			out = append(out, i)
		}
	}
	return out
}

// Kill abruptly terminates member i: the listener and every in-flight
// connection are torn down and the node's managers stop, exactly what a
// crashed process looks like to the rest of the cluster. No clean-shutdown
// snapshot is written — a durable member restarted after Kill replays its
// WAL tail like a real crash. Idempotent.
func (l *Local) Kill(i int) {
	l.stop(i, false)
}

// shutdownGrace bounds how long a clean stop waits for a member's in-flight
// HTTP handlers.
const shutdownGrace = 5 * time.Second

// stop tears member i down; clean selects a graceful shutdown (in-flight
// HTTP handlers finish, final clean snapshot on durable members) versus a
// simulated crash.
func (l *Local) stop(i int, clean bool) {
	l.mu.Lock()
	if i < 0 || i >= len(l.nodes) || !l.nodes[i].alive {
		l.mu.Unlock()
		return
	}
	n := l.nodes[i]
	n.alive = false
	l.mu.Unlock()
	// A node that failed mid-StartLocal has a listener but no server yet. A
	// clean stop lets the handlers already running return first, so none
	// outlives Close; one still running after shutdownGrace is cut off.
	switch {
	case n.server == nil:
		_ = n.listener.Close()
	case clean:
		n.closeNew()
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if n.server.Shutdown(ctx) != nil {
			_ = n.server.Close()
		}
		cancel()
	default:
		_ = n.server.Close()
	}
	if n.wireSrv != nil {
		n.wireSrv.Close()
	} else if n.wireLn != nil {
		_ = n.wireLn.Close()
	}
	if n.node != nil {
		if clean {
			n.node.Close()
		} else {
			n.node.Kill()
		}
	}
}

// Restart brings a killed member back on the same advertised addresses: the
// listeners are rebound to the recorded ports, a fresh Node is built (with a
// fresh registry, like a new process), and — when the harness has a DataDir —
// the node replays its durable state and rejoins at its recorded epoch.
func (l *Local) Restart(i int) error {
	l.mu.Lock()
	if i < 0 || i >= len(l.nodes) {
		l.mu.Unlock()
		return fmt.Errorf("cluster: restart member %d: no such member", i)
	}
	n := l.nodes[i]
	if n.alive {
		l.mu.Unlock()
		return fmt.Errorf("cluster: restart member %d: still alive", i)
	}
	l.mu.Unlock()

	// Rebind the same ports. The old listeners were closed by Kill, but an
	// in-flight accept can hold the port for a beat — retry briefly.
	ln, err := relisten(n.listener.Addr().String())
	if err != nil {
		return fmt.Errorf("cluster: restart member %d: %w", i, err)
	}
	n.listener = ln
	if n.wireAddr != "" {
		wln, err := relisten(n.wireAddr)
		if err != nil {
			_ = ln.Close()
			return fmt.Errorf("cluster: restart member %d (wire): %w", i, err)
		}
		n.wireLn = wln
	}
	if err := l.startNode(i); err != nil {
		_ = n.listener.Close()
		if n.wireLn != nil {
			_ = n.wireLn.Close()
		}
		return fmt.Errorf("cluster: restart member %d: %w", i, err)
	}
	l.mu.Lock()
	n.alive = true
	l.mu.Unlock()
	return nil
}

// Join grows the cluster by one member: fresh listeners are bound, a live
// member is asked for admission (POST /cluster/join, proxied to the steward),
// and the new node boots from the admission table as a joining member. The
// steward promotes it to live once it answers probes, and the planner then
// migrates partitions onto it. Returns the new member's ID.
func (l *Local) Join() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return -1, fmt.Errorf("cluster: join listener: %w", err)
	}
	local := &localNode{listener: ln, addr: "http://" + ln.Addr().String(), alive: true}
	if !l.cfg.DisableWire {
		wln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = ln.Close()
			return -1, fmt.Errorf("cluster: join wire listener: %w", err)
		}
		local.wireLn = wln
		local.wireAddr = wln.Addr().String()
	}
	teardown := func() {
		_ = ln.Close()
		if local.wireLn != nil {
			_ = local.wireLn.Close()
		}
	}

	seed := ""
	l.mu.Lock()
	for _, n := range l.nodes {
		if n.alive {
			seed = n.addr
			break
		}
	}
	l.mu.Unlock()
	if seed == "" {
		teardown()
		return -1, fmt.Errorf("cluster: join: no live member to ask")
	}
	id, table, err := JoinCluster(nil, seed, local.addr, local.wireAddr)
	if err != nil {
		teardown()
		return -1, err
	}
	local.boot = &table

	l.mu.Lock()
	if id != len(l.nodes) {
		l.mu.Unlock()
		teardown()
		return -1, fmt.Errorf("cluster: join assigned id %d, harness expected %d", id, len(l.nodes))
	}
	// Copy-on-write: concurrent restarts snapshot these slice headers.
	l.nodes = append(append([]*localNode(nil), l.nodes...), local)
	l.peers = append(append([]string(nil), l.peers...), local.addr)
	if l.wirePeers != nil {
		l.wirePeers = append(append([]string(nil), l.wirePeers...), local.wireAddr)
	}
	l.mu.Unlock()

	if err := l.startNode(id); err != nil {
		teardown()
		return id, fmt.Errorf("cluster: starting joined member %d: %w", id, err)
	}
	return id, nil
}

// Drain asks the cluster to drain member id: the planner migrates it empty,
// then retires it. The member keeps serving (draining) until retired; tear
// it down with Kill (or leave it — a left member holding no partitions is
// harmless).
func (l *Local) Drain(id int) error {
	seed := ""
	l.mu.Lock()
	for _, n := range l.nodes {
		if n.alive {
			seed = n.addr
			break
		}
	}
	l.mu.Unlock()
	if seed == "" {
		return fmt.Errorf("cluster: drain: no live member to ask")
	}
	var out, fail EpochResponse
	hc := &http.Client{Timeout: 5 * time.Second}
	status, _, err := server.PostJSON(hc, seed+"/cluster/drain", nil, DrainRequest{ID: id}, &out, &fail)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("cluster: drain member %d: status %d (%s)", id, status, fail.Error)
	}
	return nil
}

// relisten rebinds a specific host:port, retrying briefly while the old
// socket drains.
func relisten(addr string) (net.Listener, error) {
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, err
}

// MaxEpoch polls the surviving members and returns the highest epoch any of
// them reports (0 when none answer).
func (l *Local) MaxEpoch() uint64 {
	l.mu.Lock()
	var live []*Node
	for _, n := range l.nodes {
		if n.alive && n.node != nil {
			live = append(live, n.node)
		}
	}
	l.mu.Unlock()
	var max uint64
	for _, node := range live {
		if e := node.Epoch(); e > max {
			max = e
		}
	}
	return max
}

// maxEpochTable returns the highest-epoch membership table any surviving
// member holds — the most current cluster view available.
func (l *Local) maxEpochTable() Table {
	l.mu.Lock()
	var live []*Node
	for _, n := range l.nodes {
		if n.alive && n.node != nil {
			live = append(live, n.node)
		}
	}
	l.mu.Unlock()
	var best Table
	for _, node := range live {
		if t := node.Table(); t.Epoch > best.Epoch || best.Members == nil {
			best = t
		}
	}
	return best
}

// WaitForEpoch blocks until some surviving member reaches at least epoch, or
// the timeout elapses; it reports whether the epoch was reached.
func (l *Local) WaitForEpoch(epoch uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if l.MaxEpoch() >= epoch {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close shuts every remaining member down gracefully: it returns once the
// HTTP handlers in flight have returned, and durable members write a final
// clean snapshot, so a later StartLocal on the same DataDir resumes without
// replaying a tail.
func (l *Local) Close() {
	for i := range l.snapshot() {
		l.stop(i, true)
	}
}
