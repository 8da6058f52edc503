package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/cluster"
	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/metrics"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/wire"
)

// cluster-routed: two in-process members (two keeps the routed client's one
// wire connection per member within two connections), 8 partitions of a core
// LevelArray each, everything in memory, metrics on, prober and steward at
// their default cadence. One cluster.Client drives the session mix over wire.
// The members are assembled the way cluster.Local assembles them, from
// cluster.NewNode, wire.NewServer and http.Server, so the traced run can wrap
// each member's wire.Backend and partition arrays.
const (
	clNodes      = 2
	clPartitions = 8
	// clNominal is 10-16% of the saturation ops_s this workload measured on a
	// 2-vCPU machine; a 2 s TTL keeps 85% occupancy reachable at that rate.
	clNominal = 10000
	clTTL     = 2 * time.Second
)

type clMember struct {
	node    *cluster.Node
	backend wire.Backend
	wsrv    *wire.Server
	hsrv    *http.Server

	mu     sync.Mutex
	arrays []*core.LevelArray // every partition array the node built
	traced []*tracedArray
}

type clStack struct {
	members   []*clMember
	listeners []net.Listener
	peers     []string
	client    *cluster.Client
	api       *clAPI
	tr        *tracer
	pop       *population
	led       *ledger
	fill      time.Duration
}

func buildCluster(seed uint64, m *mix, pop *population, tr *tracer) (*clStack, error) {
	st := &clStack{tr: tr, led: newLedger()}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	var hlns, wlns []net.Listener
	var wirePeers []string
	for i := 0; i < clNodes; i++ {
		hln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hlns = append(hlns, hln)
		st.listeners = append(st.listeners, hln)
		wln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		wlns = append(wlns, wln)
		st.listeners = append(st.listeners, wln)
		st.peers = append(st.peers, "http://"+hln.Addr().String())
		wirePeers = append(wirePeers, wln.Addr().String())
	}
	perPartition := (serviceCapacity + clPartitions - 1) / clPartitions
	for i := 0; i < clNodes; i++ {
		mem := &clMember{}
		reg := metrics.NewRegistry()
		metrics.RegisterRuntime(reg)
		node, err := cluster.NewNode(cluster.NodeConfig{
			NodeID:     i,
			Peers:      st.peers,
			WirePeers:  wirePeers,
			Partitions: clPartitions,
			NewPartitionArray: func(p int) (activity.Array, error) {
				arr, err := core.New(core.Config{Capacity: perPartition, Epsilon: 1, Seed: seed + uint64(p)*0x9E3779B97F4A7C15 + 1})
				if err != nil {
					return nil, err
				}
				mem.mu.Lock()
				defer mem.mu.Unlock()
				mem.arrays = append(mem.arrays, arr)
				if tr == nil {
					return arr, nil
				}
				ta := &tracedArray{inner: arr, t: tr}
				mem.traced = append(mem.traced, ta)
				return ta, nil
			},
			Lease:   lease.Config{TickInterval: serviceTick},
			Metrics: server.NewMetrics(reg),
		})
		if err != nil {
			return nil, err
		}
		mem.node = node
		mem.backend = node
		if tr != nil {
			mem.backend = &tracedBackend{inner: node, t: tr, layer: "cluster.node_serve"}
		}
		mem.hsrv = &http.Server{Handler: node}
		mem.wsrv = wire.NewServer(mem.backend)
		st.members = append(st.members, mem)
		hln, wln := hlns[i], wlns[i]
		go func() { _ = mem.hsrv.Serve(hln) }() // returns once Close stops the listener
		go func() { _ = mem.wsrv.Serve(wln) }() // likewise
		node.Start()
	}
	client, err := cluster.NewClient(cluster.ClientConfig{Targets: st.peers})
	if err != nil {
		return nil, err
	}
	st.client = client
	st.api = &clAPI{c: client, t: tr}

	st.pop = pop
	start := time.Now()
	if err := pop.fill(st.api, st.led, m.inflight); err != nil {
		return nil, err
	}
	st.fill = time.Since(start)
	if st.fill > m.fillLimit() {
		return nil, fmt.Errorf("fill took %v, too long for the population's first renews (limit %v)", st.fill, m.fillLimit())
	}
	ok = true
	return st, nil
}

func (st *clStack) close() {
	if st.client != nil {
		st.client.Close()
	}
	for _, mem := range st.members {
		_ = mem.wsrv.Close() // nothing to report after the run
		_ = mem.hsrv.Close() // likewise
		mem.node.Close()
	}
	for _, ln := range st.listeners {
		_ = ln.Close() // already closed by its server unless setup failed first
	}
}

// clAPI is the cluster workload's client: the routed cluster.Client.
type clAPI struct {
	c *cluster.Client
	t *tracer
}

func (a *clAPI) timed(op string, start time.Time) {
	if a.t != nil {
		a.t.timer("cluster.op." + op).observe(time.Since(start))
	}
}

func statusErr(status int, err error) error {
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("status %d", status)
	}
	return nil
}

func (a *clAPI) acquire(ttl time.Duration) (grant, error) {
	start := time.Now()
	g, status, _, err := a.c.Acquire(ttl.Milliseconds())
	a.timed("acquire", start)
	if err := statusErr(status, err); err != nil {
		return grant{}, err
	}
	return grant{name: g.Name, token: g.Token, deadline: g.DeadlineUnixMillis}, nil
}

func (a *clAPI) renew(name int, token uint64, ttl time.Duration) (grant, error) {
	start := time.Now()
	g, status, err := a.c.Renew(name, token, ttl.Milliseconds())
	a.timed("renew", start)
	if err := statusErr(status, err); err != nil {
		return grant{}, err
	}
	return grant{name: g.Name, token: g.Token, deadline: g.DeadlineUnixMillis}, nil
}

func (a *clAPI) release(name int, token uint64) error {
	start := time.Now()
	status, err := a.c.Release(name, token)
	a.timed("release", start)
	return statusErr(status, err)
}

// read is never scheduled: the cluster mix sends no reads.
func (a *clAPI) read(int) error { return errors.New("cluster-routed sends no reads") }

// stats reads a member's /stats body in process.
func (mem *clMember) stats() (cluster.NodeStatsResponse, error) {
	var resp wire.Response
	var s cluster.NodeStatsResponse
	resp.Reset()
	mem.node.ServeWire(&wire.Request{Op: wire.OpStats}, &resp)
	if resp.Status != wire.StatusOK {
		return s, fmt.Errorf("stats: status %d", resp.Status)
	}
	return s, json.Unmarshal(resp.Blob, &s)
}

func runCluster(opts options, rep *report) error {
	m := sessionMix(clNominal, clTTL, 0)
	if err := m.solve(); err != nil {
		return err
	}
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	tf := newTraffic(opts, m)
	st, err := setupTimes(rep, func() (*clStack, error) { return buildCluster(opts.seed, m, tf.pop, tr) }, (*clStack).close)
	if err != nil {
		return err
	}
	defer st.close()
	rep.logf("cluster-routed: %d members, %d partitions, capacity %d, in memory, %d wire conns; fill %d live + %d abandoned leases in %v",
		clNodes, clPartitions, serviceCapacity, clNodes, len(st.pop.live), len(st.pop.abandoned), st.fill.Round(time.Millisecond))
	return runService(opts, rep, m, tf, st.api, st.led, &clLayers{st: st}, tr)
}

// clLayers is the cluster workload's view of its layers for runService.
type clLayers struct {
	st *clStack

	lease0, lease1 lease.Stats
	route0, route1 cluster.ClientCounters
	srv0, srv1     []wire.ServerCounters
	epoch0, epoch1 uint64
	active         []float64
	sampleN        int
	err            error
}

func (l *clLayers) snapshot() (lease.Stats, []wire.ServerCounters, uint64) {
	var ls lease.Stats
	var sc []wire.ServerCounters
	var epoch uint64
	for _, mem := range l.st.members {
		s, err := mem.stats()
		if err != nil && l.err == nil {
			l.err = err
		}
		for _, p := range s.Partitions {
			ls = addStats(ls, p.Lease)
		}
		sc = append(sc, mem.wsrv.Counters())
		epoch = max(epoch, mem.node.Epoch())
	}
	return ls, sc, epoch
}

func (l *clLayers) startWindow() {
	l.lease0, l.srv0, l.epoch0 = l.snapshot()
	l.route0 = l.st.client.Counters()
}

// sample reads the cluster's active leases every fifth gauge tick: each
// reading encodes both members' stats bodies.
func (l *clLayers) sample() {
	l.sampleN++
	if l.sampleN%5 != 0 {
		return
	}
	var active int64
	for _, mem := range l.st.members {
		s, err := mem.stats()
		if err != nil {
			return
		}
		active += s.Active
	}
	l.active = append(l.active, float64(active))
}

func (l *clLayers) endWindow() {
	l.lease1, l.srv1, l.epoch1 = l.snapshot()
	l.route1 = l.st.client.Counters()
}

func (st *clStack) active() (int64, error) {
	var n int64
	for _, mem := range st.members {
		s, err := mem.stats()
		if err != nil {
			return 0, err
		}
		n += s.Active
	}
	return n, nil
}

// checkArrays requires every partition array to hold no name once the
// cluster reports no active lease: the managers are private to the nodes, so
// this is the table/bitmap agreement check reachable from outside.
func (st *clStack) checkArrays() error {
	for i, mem := range st.members {
		mem.mu.Lock()
		arrays := mem.arrays
		mem.mu.Unlock()
		for p, arr := range arrays {
			if names := arr.Collect(nil); len(names) > 0 {
				return fmt.Errorf("member %d partition array %d holds %d names with no active lease: %v", i, p, len(names), names)
			}
		}
	}
	return nil
}

func (l *clLayers) verify(rep *report, opts options, m *mix) error {
	st := l.st
	if l.err != nil {
		return l.err
	}
	if err := waitDrained(st.active, m.ttl+3*serviceTick+2*time.Second); err != nil {
		return err
	}
	if err := st.checkArrays(); err != nil {
		return err
	}
	// The chaos checker dials its own routed client; closing ours first keeps
	// the run at two client connections.
	st.client.Close()
	cr, err := cluster.RunChaos(cluster.ChaosConfig{
		Targets: st.peers, Clients: clNodes, Acquires: 1500,
		TTL: time.Second, HoldMean: time.Millisecond, CrashPercent: 10, RenewPercent: 50, Seed: opts.seed,
	})
	if err != nil {
		return fmt.Errorf("RunChaos: %w", err)
	}
	if v := cr.Violations(); len(v) > 0 {
		return fmt.Errorf("RunChaos contract violations: %v", v)
	}
	rep.logf("verify: RunChaos without kills: %d acquires, %d renews, %d releases, %d crashes, %d stale tokens fenced, %d wire ops, no violations",
		cr.Acquires, cr.Renews, cr.Releases, cr.Crashes, cr.StaleRejected, cr.Routing.WireOps)
	if err := waitDrained(st.active, 2*time.Second); err != nil {
		return err
	}
	return st.checkArrays()
}

func (l *clLayers) layerMetrics(rep *report, window time.Duration) {
	// Lease writes the members served, retries and untimed releases included:
	// the denominator every member frame should match one to one.
	served := l.lease1.Acquires - l.lease0.Acquires + l.lease1.Renews - l.lease0.Renews + l.lease1.Releases - l.lease0.Releases
	leaseMetrics(rep, l.lease0, l.lease1, l.active, serviceCapacity, window)

	var frames, flushes, written, accepted uint64
	for i := range l.srv1 {
		frames += l.srv1[i].FramesRead - l.srv0[i].FramesRead
		written += l.srv1[i].FramesWritten - l.srv0[i].FramesWritten
		flushes += l.srv1[i].Flushes - l.srv0[i].Flushes
		accepted += l.srv1[i].ConnsAccepted - l.srv0[i].ConnsAccepted
	}
	rep.layer["wire.server_frames_per_flush"] = ratio(written, flushes)
	rep.layer["wire.redials"] = float64(accepted)
	rep.layer["cluster.hops_per_op"] = ratio(frames, served)
	r0, r1 := l.route0, l.route1
	rerouted := (r1.Refreshes - r0.Refreshes) + (r1.StaleEpochs - r0.StaleEpochs) + (r1.Misroutes - r0.Misroutes) +
		(r1.WireFallbacks - r0.WireFallbacks) + (r1.Backoffs - r0.Backoffs)
	rep.layer["cluster.rerouted"] = float64(rerouted)
	rep.layer["cluster.epoch_bumps"] = float64(l.epoch1 - l.epoch0)
	rep.logf("  cluster: %.4f member frames per routed write, %d reroutes, %d epoch bumps; wire: server frames per flush %.3f, %d new connections",
		rep.layer["cluster.hops_per_op"], rerouted, l.epoch1-l.epoch0, rep.layer["wire.server_frames_per_flush"], accepted)

	rep.notApplicable("cluster partitions are unsharded core LevelArrays", "shard.steals_per_get", "shard.home_full_frac", "shard.occupancy_spread")
	rep.notApplicable("cluster-routed sends no reads", "core.collect_us")
	rep.notApplicable("cluster-routed members keep leases in memory (no DataDir, no WAL)", walLayerMetrics...)
	rep.notApplicable("members serve wire through cluster.Node, measured as cluster.node_serve_us", "server.serve_us", "server.self_us", "server.read_us")
	rep.notApplicable("the routed client's wire.Client is private to cluster.Client; its framing and loopback time stays in cluster.route_us",
		"wire.rtt_us", "wire.self_us", "wire.client_frames_per_flush")
}

func (l *clLayers) traceMetrics(rep *report, tr *tracer, open *phaseResult) {
	var ps activity.ProbeStats
	for _, mem := range l.st.members {
		mem.mu.Lock()
		for _, ta := range mem.traced {
			ta.mu.Lock()
			for _, h := range ta.handles {
				ps.Ops += h.gets.Load()
				ps.FailedOps += h.fails.Load()
				ps.BackupOps += h.backups.Load()
				ps.TotalProbes += h.claims.Load()
				ps.MaxProbes = max(ps.MaxProbes, h.claimsMax.Load())
			}
			ta.mu.Unlock()
		}
		mem.mu.Unlock()
	}
	probeMetrics(rep, ps, "open loop, through the partition-array decorator")

	get, free := tr.openTimer("core.get"), tr.openTimer("core.free")
	rep.layer["core.get_ns"] = get.medianUS() * 1e3
	rep.layer["core.free_ns"] = free.medianUS() * 1e3

	var opUS, serveUS float64
	var ops, frames uint64
	for _, op := range []string{"acquire", "renew", "release"} {
		t := tr.openTimer("cluster.op." + op)
		opUS += t.totalUS()
		ops += t.count()
	}
	for _, op := range []wire.Opcode{wire.OpAcquire, wire.OpRenew, wire.OpRelease} {
		t := tr.openTimer("cluster.node_serve." + op.String())
		serveUS += t.totalUS()
		frames += t.count()
	}
	n := float64(max(ops, 1))
	coreUS := get.totalUS() + free.totalUS()
	rep.layer["cluster.op_us"] = opUS / n
	rep.layer["cluster.route_us"] = (opUS - serveUS) / n
	rep.layer["cluster.node_serve_us"] = serveUS / float64(max(frames, 1))

	e2e := open.meanWriteUS()
	nodeSelf := (serveUS - coreUS) / n
	rep.layer["trace.unattributed_us"] = e2e - opUS/n
	rep.logf("trace (mean per open-loop lease write, per-op totals over %d routed calls and %d member frames): end-to-end %.2f us = cluster.route %.2f (routing, epoch fence, wire framing, loopback) + cluster.node_serve self %.2f (lease manager, metrics) + core %.2f + unattributed %.2f (generator lateness, queueing to a worker)",
		ops, frames, e2e, rep.layer["cluster.route_us"], nodeSelf, coreUS/n, e2e-opUS/n)
	rep.logf("  core medians: get %.1f ns, free %.1f ns", rep.layer["core.get_ns"], rep.layer["core.free_ns"])
}
