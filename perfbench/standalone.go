package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/levelarray/levelarray/internal/core"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/metrics"
	"github.com/levelarray/levelarray/internal/registry"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/shard"
	"github.com/levelarray/levelarray/internal/wal"
	"github.com/levelarray/levelarray/internal/wire"
)

// standalone-durable: laserve's production shape in process. A Sharded
// array (default shards, word probes, size factor 2) under a lease.Manager
// that journals every transition to a wal.Store under SyncAlways, served by
// a wire.Server over server.WireBackend and driven by one wire.Client with
// two connections. Every acknowledgement waits for an fsync. The WAL lives in
// the run's temporary directory, which run.py mounts as tmpfs where the host
// allows it, so the fsync is the program's cost and not the host disk's.
const (
	sdConns      = 2
	sdDefaultTTL = 10 * time.Second
	// sdCheckpointEvery is the benchmark's own snapshot cadence, short so
	// every timed window holds the same several snapshot-and-truncate cycles.
	sdCheckpointEvery = 2 * time.Second
	// sdNominal is about a tenth of the saturation ops_s this workload
	// measured on a 2-vCPU machine. At twice that rate, host stalls on that
	// machine left the open loop's backlog near the validity limit in a few
	// runs of ten. A 4 s TTL keeps 85% occupancy reachable at this rate.
	sdNominal = 5000
	sdTTL     = 4 * time.Second
	// sdReadRate is the Collect+Stats frames per second: at least a thousand
	// reads in any timed window.
	sdReadRate = 400
)

type sdStack struct {
	dir    string
	arr    *shard.Sharded
	store  *wal.Store
	mgr    *lease.Manager
	srv    *wire.Server
	client *wire.Client
	api    *sdAPI
	tr     *tracer
	pop    *population
	led    *ledger
	fill   time.Duration
}

func buildStandalone(seed uint64, m *mix, pop *population, tr *tracer) (*sdStack, error) {
	st := &sdStack{tr: tr, led: newLedger()}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	dir, err := os.MkdirTemp("", "perfbench-wal-")
	if err != nil {
		return nil, err
	}
	st.dir = dir
	arr, err := registry.New(registry.Sharded, registry.Options{Capacity: serviceCapacity, SizeFactor: 2, Seed: seed, Probe: core.ProbeWord})
	if err != nil {
		return nil, err
	}
	st.arr = arr.(*shard.Sharded)
	if st.store, err = wal.Open(dir, wal.SyncAlways, 0); err != nil {
		return nil, err
	}
	var journal lease.Journal = st.store
	if tr != nil {
		journal = &tracedJournal{inner: st.store, t: tr}
	}
	if st.mgr, err = lease.NewManager(arr, lease.Config{TickInterval: serviceTick, Journal: journal}); err != nil {
		return nil, err
	}
	if _, err := st.mgr.Restore(); err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	st.mgr.Start()

	reg := metrics.NewRegistry()
	metrics.RegisterRuntime(reg)
	ms := server.NewMetrics(reg)
	server.RegisterManager(reg, st.mgr)
	server.RegisterShardStats(reg, arr)
	server.RegisterWAL(reg, st.store)
	var backend wire.Backend = server.NewWireBackend(st.mgr, server.Config{DefaultTTL: sdDefaultTTL, Metrics: ms})
	if tr != nil {
		backend = &tracedBackend{inner: backend, t: tr, layer: "server.serve", spans: true}
	}
	st.srv = wire.NewServer(backend)
	server.RegisterWireServer(reg, st.srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = st.srv.Serve(ln) }() // returns once Close stops the listener
	st.client = wire.NewClient(ln.Addr().String(), &wire.ClientConfig{Conns: sdConns})
	st.api = &sdAPI{c: st.client, t: tr}

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

func (st *sdStack) close() {
	if st.client != nil {
		st.client.Close()
	}
	if st.srv != nil {
		_ = st.srv.Close() // Close reports nothing that matters after the run
	}
	if st.mgr != nil {
		st.mgr.Close()
	}
	if st.store != nil {
		_ = st.store.Close() // the directory is removed next
	}
	if st.dir != "" {
		_ = os.RemoveAll(st.dir) // best effort: the checkout's temp area is ignored by git
	}
}

// sdAPI is the standalone workload's client: single-op wire frames sent
// through wire.Client.Do with benchmark-assigned frame IDs, so the traced
// run can pair each client call with the server call it caused.
type sdAPI struct {
	c      *wire.Client
	t      *tracer
	nextID atomic.Uint64
	calls  sync.Pool
}

type sdCall struct {
	req  wire.Request
	resp wire.Response
}

func (a *sdAPI) do(op wire.Opcode, fill func(*wire.Request)) (*sdCall, error) {
	ca, _ := a.calls.Get().(*sdCall)
	if ca == nil {
		ca = &sdCall{}
	}
	ca.req = wire.Request{Op: op, ID: a.nextID.Add(1), Items: ca.req.Items[:0]}
	if fill != nil {
		fill(&ca.req)
	}
	var start int64
	if a.t != nil {
		start = a.t.now()
	}
	err := a.c.Do(&ca.req, &ca.resp)
	if a.t != nil {
		a.t.record("wire.do", op.String(), ca.req.ID, start, a.t.now())
	}
	if err == nil && ca.resp.Status != wire.StatusOK {
		err = fmt.Errorf("status %d (%s)", ca.resp.Status, ca.resp.Code)
	}
	if err != nil {
		a.calls.Put(ca)
		return nil, err
	}
	return ca, nil
}

func (a *sdAPI) acquire(ttl time.Duration) (grant, error) {
	ca, err := a.do(wire.OpAcquire, func(r *wire.Request) { r.TTLMillis = ttl.Milliseconds() })
	if err != nil {
		return grant{}, err
	}
	defer a.calls.Put(ca)
	g := ca.resp.Grants[0]
	return grant{name: int(g.Name), token: g.Token, deadline: g.DeadlineUnixMilli}, nil
}

func (a *sdAPI) renew(name int, token uint64, ttl time.Duration) (grant, error) {
	ca, err := a.do(wire.OpRenew, func(r *wire.Request) {
		r.TTLMillis = ttl.Milliseconds()
		r.Items = append(r.Items, wire.Ref{Name: int64(name), Token: token})
	})
	if err != nil {
		return grant{}, err
	}
	defer a.calls.Put(ca)
	g := ca.resp.Grants[0]
	return grant{name: int(g.Name), token: g.Token, deadline: g.DeadlineUnixMilli}, nil
}

func (a *sdAPI) release(name int, token uint64) error {
	ca, err := a.do(wire.OpRelease, func(r *wire.Request) {
		r.Items = append(r.Items, wire.Ref{Name: int64(name), Token: token})
	})
	if err == nil {
		a.calls.Put(ca)
	}
	return err
}

// read alternates Collect and Stats frames, the JSON-blob read path.
func (a *sdAPI) read(i int) error {
	op := wire.OpCollect
	if i%2 == 1 {
		op = wire.OpStats
	}
	ca, err := a.do(op, nil)
	if err != nil {
		return err
	}
	defer a.calls.Put(ca)
	if len(ca.resp.Blob) == 0 || ca.resp.Blob[0] != '{' {
		return fmt.Errorf("%s returned no JSON body", op)
	}
	return nil
}

func runStandalone(opts options, rep *report) error {
	m := sessionMix(sdNominal, sdTTL, sdReadRate)
	if err := m.solve(); err != nil {
		return err
	}
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	tf := newTraffic(opts, m)
	st, err := setupTimes(rep, func() (*sdStack, error) { return buildStandalone(opts.seed, m, tf.pop, tr) }, (*sdStack).close)
	if err != nil {
		return err
	}
	defer st.close()
	rep.logf("standalone-durable: capacity %d (%d shards, size %d), wal SyncAlways on %s, %d conns, tick %v, checkpoint every %v; fill %d live + %d abandoned leases in %v",
		serviceCapacity, st.arr.Shards(), st.arr.Size(), fsKind(st.dir), sdConns, serviceTick, sdCheckpointEvery, len(st.pop.live), len(st.pop.abandoned), st.fill.Round(time.Millisecond))
	return runService(opts, rep, m, tf, st.api, st.led, &sdLayers{st: st}, tr)
}

// sdLayers is the standalone workload's view of its layers for runService.
type sdLayers struct {
	st *sdStack

	ckMu    sync.Mutex
	ckTimes []float64 // ms, successful calls only
	ckErr   error     // the first failed checkpoint; it fails the run
	stopCk  func()

	mgr0, mgr1     lease.Stats
	wal0, wal1     wal.Counters
	cli0, cli1     wire.Counters
	srv0, srv1     wire.ServerCounters
	shard0, shard1 []shard.ShardStats
	active         []float64
	spread         []float64
}

func (l *sdLayers) startWindow() {
	l.mgr0, l.wal0 = l.st.mgr.Stats(), l.st.store.Counters()
	l.cli0, l.srv0 = l.st.client.Counters(), l.st.srv.Counters()
	l.shard0 = l.st.arr.ShardStats()
	l.stopCk = ticker(sdCheckpointEvery, func() {
		start := time.Now()
		err := l.st.mgr.Checkpoint(0, 0, false)
		took := time.Since(start)
		l.ckMu.Lock()
		defer l.ckMu.Unlock()
		switch {
		case err == nil:
			l.ckTimes = append(l.ckTimes, float64(took)/1e6)
		case l.ckErr == nil:
			l.ckErr = fmt.Errorf("checkpoint %d: %w", len(l.ckTimes)+1, err)
		}
	})
}

func (l *sdLayers) sample() {
	l.active = append(l.active, float64(l.st.mgr.Active()))
	occ := l.st.arr.Occupancies()
	lo, hi := occ[0], occ[0]
	for _, o := range occ {
		lo, hi = min(lo, o), max(hi, o)
	}
	l.spread = append(l.spread, float64(hi-lo)/float64(l.st.arr.ShardCapacity()))
}

func (l *sdLayers) endWindow() {
	l.stopCk()
	l.mgr1, l.wal1 = l.st.mgr.Stats(), l.st.store.Counters()
	l.cli1, l.srv1 = l.st.client.Counters(), l.st.srv.Counters()
	l.shard1 = l.st.arr.ShardStats()
}

// verify runs the post-window checks; see runService for the order.
func (l *sdLayers) verify(rep *report, opts options, m *mix) error {
	st := l.st
	if l.ckErr != nil {
		return l.ckErr
	}
	if err := st.checkFold(); err != nil {
		return err
	}
	if err := waitDrained(func() (int64, error) { return int64(st.mgr.Active()), nil }, m.ttl+3*serviceTick+2*time.Second); err != nil {
		return err
	}
	if err := st.checkVerify(); err != nil {
		return err
	}
	lr, err := server.RunLoad(server.LoadConfig{
		API: server.NewWireClient(st.client), Clients: sdConns, Acquires: 1500,
		TTL: time.Second, HoldMean: time.Millisecond, CrashPercent: 10, RenewPercent: 50, Seed: opts.seed,
	})
	if err != nil {
		return fmt.Errorf("RunLoad: %w", err)
	}
	if v := lr.Violations(); len(v) > 0 {
		return fmt.Errorf("RunLoad contract violations: %v", v)
	}
	rep.logf("verify: RunLoad over the same wire client: %d acquires, %d renews, %d releases, %d crashes, %d stale tokens fenced, no violations",
		lr.Acquires, lr.Renews, lr.Releases, lr.Crashes, lr.StaleRejected)
	if err := st.checkVerify(); err != nil {
		return err
	}
	if err := st.checkFold(); err != nil {
		return err
	}
	return st.checkReads()
}

// checkFold replays the WAL directory read-only and compares the folded
// sessions with the live lease table. The expirer may reap a lease between
// the two reads, so a mismatch is retried across expirer ticks.
func (st *sdStack) checkFold() error {
	var last error
	for try := 0; try < 10; try++ {
		table := st.tableSessions()
		snap, tail, err := wal.ReadState(st.dir)
		if err != nil {
			return fmt.Errorf("wal.ReadState: %w", err)
		}
		folded, _ := wal.Fold(snap, tail)
		if last = sameSessions(table, folded); last == nil && sameSessions(table, st.tableSessions()) == nil {
			return nil
		}
		time.Sleep(serviceTick / 3)
	}
	return fmt.Errorf("wal fold disagrees with the lease table: %w", last)
}

func (st *sdStack) tableSessions() []wal.Session {
	var out []wal.Session
	for start := 0; start >= 0; {
		page, next := st.mgr.Sessions(start, 1000)
		for _, s := range page {
			var dl int64
			if !s.Deadline.IsZero() {
				dl = s.Deadline.UnixNano()
			}
			out = append(out, wal.Session{Name: uint32(s.Name), Token: s.Token, Deadline: dl})
		}
		start = next
	}
	return out
}

func sameSessions(a, b []wal.Session) error {
	key := func(s []wal.Session) {
		sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	}
	key(a)
	key(b)
	if len(a) != len(b) {
		return fmt.Errorf("%d sessions in the table, %d folded from the log", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("table %+v, log %+v", a[i], b[i])
		}
	}
	return nil
}

// checkVerify requires the lease table and the array bitmaps to agree. The
// table is drained, so nothing can race the scan.
func (st *sdStack) checkVerify() error {
	orphans, missing := st.mgr.Verify()
	if len(orphans) > 0 || len(missing) > 0 {
		return fmt.Errorf("Manager.Verify: %d orphan bits %v, %d missing bits %v", len(orphans), orphans, len(missing), missing)
	}
	return nil
}

// checkReads decodes one Collect and one Stats body against the drained
// table.
func (st *sdStack) checkReads() error {
	ca, err := st.api.do(wire.OpCollect, nil)
	if err != nil {
		return fmt.Errorf("collect: %w", err)
	}
	var cr server.CollectResponse
	if err := json.Unmarshal(ca.resp.Blob, &cr); err != nil {
		return fmt.Errorf("collect body: %w", err)
	}
	if cr.Count != 0 || len(cr.Names) != 0 {
		return fmt.Errorf("collect on a drained table returned %d names", len(cr.Names))
	}
	sr, err := server.NewWireClient(st.client).Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if sr.Lease.Active != 0 || sr.Capacity != serviceCapacity {
		return fmt.Errorf("stats on a drained table: active %d, capacity %d", sr.Lease.Active, sr.Capacity)
	}
	return nil
}

// layerMetrics fills the standalone workload's per-layer metrics.
func (l *sdLayers) layerMetrics(rep *report, window time.Duration) {
	st := l.st
	st.mgr.Close() // ProbeStats needs quiescent handles; verification is done
	probeMetrics(rep, st.mgr.ProbeStats(), "whole run: setup fill, timed phases and verification")
	acq := float64(l.mgr1.Acquires - l.mgr0.Acquires)
	writes := acq + float64(l.mgr1.Renews-l.mgr0.Renews+l.mgr1.Releases-l.mgr0.Releases)
	var steals, homeFull uint64
	for i := range l.shard1 {
		steals += l.shard1[i].StealsIn - l.shard0[i].StealsIn
		homeFull += l.shard1[i].HomeFulls - l.shard0[i].HomeFulls
	}
	rep.layer["shard.steals_per_get"] = float64(steals) / acq
	rep.layer["shard.home_full_frac"] = float64(homeFull) / acq
	rep.layer["shard.occupancy_spread"] = mean(l.spread)

	leaseMetrics(rep, l.mgr0, l.mgr1, l.active, serviceCapacity, window)

	appends := l.wal1.Appends - l.wal0.Appends
	rep.layer["wal.appends_per_sync"] = ratio(appends, l.wal1.Syncs-l.wal0.Syncs)
	rep.layer["wal.bytes_per_op"] = float64(l.wal1.Bytes-l.wal0.Bytes) / writes
	rep.layer["wal.checkpoint_ms"] = mean(l.ckTimes)
	rep.layer["wal.checkpoints"] = float64(len(l.ckTimes))
	rep.logf("  wal: %d appends, %.3f appends per fsync, %.1f bytes per write, %d checkpoints of mean %.2f ms",
		appends, rep.layer["wal.appends_per_sync"], rep.layer["wal.bytes_per_op"], len(l.ckTimes), mean(l.ckTimes))

	rep.layer["wire.server_frames_per_flush"] = ratio(l.srv1.FramesWritten-l.srv0.FramesWritten, l.srv1.Flushes-l.srv0.Flushes)
	rep.layer["wire.client_frames_per_flush"] = ratio(l.cli1.FramesSent-l.cli0.FramesSent, l.cli1.Flushes-l.cli0.Flushes)
	rep.layer["wire.redials"] = float64(l.cli1.Dials - l.cli0.Dials)
	rep.logf("  wire: frames per flush server %.3f client %.3f, redials %d",
		rep.layer["wire.server_frames_per_flush"], rep.layer["wire.client_frames_per_flush"], l.cli1.Dials-l.cli0.Dials)

	rep.notApplicable("the Sharded array under lease.Manager cannot be wrapped (the orphan sweep keys on the concrete *shard.Sharded); its time stays in server.self_us",
		"core.get_ns", "core.free_ns", "core.collect_us")
	rep.notApplicable("standalone-durable runs no cluster routing", clusterLayerMetrics...)
}

// traceMetrics fills the standalone workload's traced per-layer metrics and
// prints the self-time breakdown of one open-loop lease write.
func (l *sdLayers) traceMetrics(rep *report, tr *tracer, open *phaseResult) {
	do, serve := tr.pairs("wire.do", "server.serve")
	var rtt, wireSelf, serveW, serveR []float64
	for i := range do {
		d, s := us(time.Duration(do[i].end-do[i].start)), us(time.Duration(serve[i].end-serve[i].start))
		switch do[i].op {
		case wire.OpCollect.String(), wire.OpStats.String():
			serveR = append(serveR, s)
		default:
			rtt = append(rtt, d)
			wireSelf = append(wireSelf, d-s)
			serveW = append(serveW, s)
		}
	}
	var walUS float64
	var walN uint64
	var walKeep []float64
	for _, op := range []wal.Op{wal.OpAcquire, wal.OpRenew, wal.OpRelease} {
		tm := tr.openTimer("wal.append." + op.String())
		walUS += tm.totalUS()
		walN += tm.count()
		tm.mu.Lock()
		walKeep = append(walKeep, tm.keep...)
		tm.mu.Unlock()
	}
	walMean := walUS / float64(max(walN, 1))
	rep.layer["wire.rtt_us"] = mean(rtt)
	rep.layer["wire.self_us"] = mean(wireSelf)
	rep.layer["server.serve_us"] = mean(serveW)
	rep.layer["server.self_us"] = mean(serveW) - walMean
	rep.layer["server.read_us"] = mean(serveR)
	rep.layer["wal.append_us"] = walMean
	sort.Float64s(walKeep)
	rep.layer["wal.append_p99_us"], _ = quantile(walKeep, 0.99)

	e2e := open.meanWriteUS()
	layers := rep.layer["wire.self_us"] + rep.layer["server.self_us"] + walMean
	rep.layer["trace.unattributed_us"] = e2e - layers
	rep.logf("trace (mean per open-loop lease write, %d frames paired by ID): end-to-end %.2f us = wire.self %.2f + server.self %.2f (lease+shard+core+metrics) + wal.append %.2f (incl. group fsync) + unattributed %.2f (generator lateness, queueing to a worker, client encoding)",
		len(rtt), e2e, rep.layer["wire.self_us"], rep.layer["server.self_us"], walMean, e2e-layers)
	rep.logf("  wire.rtt %.2f us, server.serve %.2f us, server.read %.2f us over %d reads, wal.append p99 %.2f us over %d appends",
		rep.layer["wire.rtt_us"], rep.layer["server.serve_us"], rep.layer["server.read_us"], len(serveR), rep.layer["wal.append_p99_us"], walN)
}

// fsKind names the kind of filesystem dir is on: an fsync costs next to
// nothing on tmpfs and follows the device's flush rate on disk.
func fsKind(dir string) string {
	const tmpfsMagic = 0x01021994
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err != nil {
		return "an unknown filesystem"
	}
	if fs.Type == tmpfsMagic {
		return "tmpfs"
	}
	return "disk"
}

// waitDrained polls active until it reports zero or the timeout passes.
func waitDrained(active func() (int64, error), timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n, err := active()
		if err == nil && n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			return fmt.Errorf("%d leases still active %v after the traffic stopped", n, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
