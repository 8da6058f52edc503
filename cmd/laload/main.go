// Command laload is the closed-loop load generator and contract verifier for
// the laserve name service. Configurable clients acquire, hold (with an
// exponential hold-time distribution), renew and release leases over HTTP;
// a crash fraction abandons leases without releasing, exercising server-side
// expiry. Besides throughput and acquire-latency percentiles, the run
// verifies the lease contract end to end and exits non-zero on any
// violation: duplicate names among concurrently held leases, names reissued
// before an abandoned lease's TTL elapsed, deadlines shorter than asked for,
// fencing tokens that do not grow, lost releases, stale tokens accepted
// after the reclaim deadline, or abandoned leases that never expired. Saturation (503) responses are paced by the server's Retry-After
// hint, so saturated runs measure service time, not spin.
//
//	go run ./cmd/laload -addr http://127.0.0.1:8080 -clients 32 -ops 50000 -crash 10
//	go run ./cmd/laload -ops 5000 -hold 1ms -renew 25 -json report.json
//
// -proto wire speaks the binary wire protocol over pooled persistent
// connections instead of HTTP/JSON (point -addr at laserve's -wire-addr),
// and -batch N switches the clients to batched rounds: one AcquireN per
// round, one bulk RenewSession over the whole set, one ReleaseN for the
// survivors. The report then includes syscall-efficiency metrics (ops per
// connection, frames per flush) and the ledger additionally verifies the
// batch semantics: batch-granted names are distinct and individually
// fenced, and a bulk renew extends every acknowledged deadline.
//
//	go run ./cmd/laload -proto wire -addr 127.0.0.1:7101 -ops 200000
//	go run ./cmd/laload -proto wire -addr 127.0.0.1:7101 -batch 64 -ops 200000
//
// Cluster mode drives a partitioned laserve cluster through the routed
// client instead, verifying the same contract *across* nodes — zero
// duplicate names cluster-wide, failed-over names fenced and reissued:
//
//	go run ./cmd/laload -targets http://127.0.0.1:7001,http://127.0.0.1:7002 -ops 100000
//
// Chaos mode boots the cluster in-process (no external laserve needed) and
// kills a live node mid-run every -kill-every, verifying fenced failover and
// quarantine-bounded reissue on top:
//
//	go run ./cmd/laload -spawn 3 -partitions 8 -capacity 4096 \
//	    -ops 100000 -crash 10 -kill-every 4s
//
// With -data-dir the spawned nodes journal lease state to per-node WALs, and
// -restart-after brings each killed node back on the same addresses after the
// given pause — the ledger keeps verifying across the restart, so a reissued
// or double-granted name from a bad replay fails the run:
//
//	go run ./cmd/laload -spawn 3 -partitions 8 -data-dir /tmp/laload \
//	    -ops 100000 -kill-every 4s -restart-after 2s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/levelarray/levelarray/internal/cluster"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/registry"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/stats"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "laload:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "http://127.0.0.1:8080", "service address (standalone mode): base URL for -proto http, host:port for -proto wire")
	protoName := flag.String("proto", "http", "transport protocol: "+registry.ValidProtoNames)
	batch := flag.Int("batch", 0, "batch size: >0 drives AcquireN/RenewSession/ReleaseN rounds (-proto wire only)")
	conns := flag.Int("conns", 0, "pooled wire connections shared by all clients (-proto wire; 0 = one per 8 clients)")
	targets := flag.String("targets", "", "cluster member URLs ("+registry.ValidPeersFormat+"); selects cluster mode")
	spawn := flag.Int("spawn", 0, "boot this many in-process cluster nodes and load them (chaos mode)")
	partitions := flag.Int("partitions", 0, "partitions for -spawn: "+registry.ValidPartitionCounts)
	capacity := flag.Int("capacity", 4096, "total capacity for -spawn")
	killEvery := flag.Duration("kill-every", 0, "kill one live node every interval (requires -spawn; 0 = never); the load runs on past -ops until the first kill has failed over")
	restartAfter := flag.Duration("restart-after", 0, "restart each killed node on its old addresses after this pause (requires -spawn and -kill-every; 0 = stay dead)")
	dataDir := flag.String("data-dir", "", "journal spawned nodes' lease state under this directory (one WAL per node, replayed on -restart-after)")
	minAlive := flag.Int("min-alive", 2, "the node killer stops at this many survivors")
	growTo := flag.Int("grow-to", 0, "join fresh members under load until the cluster reaches this size (requires -spawn; 0 = never)")
	growEvery := flag.Duration("grow-every", time.Second, "pause between joins (and before the -drain-one drain)")
	drainOne := flag.Bool("drain-one", false, "after growth, drain the highest-ID original member and verify it retires empty (requires -spawn)")
	rebalanceThreshold := flag.String("rebalance-threshold", "0", "plan a load_spread migration when the hottest member exceeds the coolest by this load-factor gap (requires -spawn; 0 disables)")
	tick := flag.Duration("tick", 100*time.Millisecond, "lease expirer tick for -spawn nodes")
	clients := flag.Int("clients", 16, "concurrent closed-loop clients")
	ops := flag.Int64("ops", 10000, "total acquire operations (renews/releases come on top)")
	ttl := flag.Duration("ttl", 2*time.Second, "lease TTL requested per acquire")
	holdMean := flag.Duration("hold", 500*time.Microsecond, "mean of the exponential hold-time distribution")
	crash := flag.Int("crash", 10, "percentage of leases abandoned without release: "+registry.ValidPercentRange)
	renew := flag.Int("renew", 20, "percentage of held leases renewed once mid-hold: "+registry.ValidPercentRange)
	seed := flag.Uint64("seed", 1, "base random seed")
	traceOn := flag.Bool("trace", false, "give every -spawn node a flight recorder (read mid-run with lactl trace / curl /debug/trace)")
	jsonPath := flag.String("json", "", "also write the report as JSON to this file")
	flag.Parse()

	proto, err := registry.ParseProtoFlag(*protoName)
	if err != nil {
		return err
	}
	if *batch < 0 {
		return fmt.Errorf("invalid -batch %d (valid: 0 or a positive batch size)", *batch)
	}
	if *batch > 0 && proto != registry.ProtoWire {
		return fmt.Errorf("-batch needs -proto wire (HTTP has no batch opcodes)")
	}
	if err := registry.ValidatePercent("crash", *crash); err != nil {
		return err
	}
	if err := registry.ValidatePercent("renew", *renew); err != nil {
		return err
	}
	if *clients < 1 {
		return fmt.Errorf("invalid -clients %d (valid: at least 1)", *clients)
	}
	if *ops < 1 {
		return fmt.Errorf("invalid -ops %d (valid: at least 1)", *ops)
	}
	if *killEvery > 0 && *spawn == 0 {
		return fmt.Errorf("-kill-every needs -spawn (laload can only kill nodes it booted)")
	}
	if *restartAfter > 0 && *killEvery == 0 {
		return fmt.Errorf("-restart-after needs -kill-every (nothing dies, nothing restarts)")
	}
	if *dataDir != "" && *spawn == 0 {
		return fmt.Errorf("-data-dir needs -spawn (external nodes own their own directories)")
	}
	if *traceOn && *spawn == 0 {
		return fmt.Errorf("-trace needs -spawn (external nodes own their own recorders; start laserve with -trace)")
	}
	if (*growTo > 0 || *drainOne) && *spawn == 0 {
		return fmt.Errorf("-grow-to/-drain-one need -spawn (laload can only grow a cluster it booted)")
	}
	if *growTo > 0 && *growTo <= *spawn {
		return fmt.Errorf("invalid -grow-to %d (valid: above -spawn = %d)", *growTo, *spawn)
	}
	threshold, err := registry.ParseRebalanceThresholdFlag(*rebalanceThreshold)
	if err != nil {
		return err
	}
	if threshold > 0 && *spawn == 0 {
		return fmt.Errorf("-rebalance-threshold needs -spawn (external nodes set their own)")
	}
	if *spawn != 0 || *targets != "" {
		return runCluster(clusterOptions{
			proto:        proto,
			targets:      *targets,
			spawn:        *spawn,
			partitions:   *partitions,
			capacity:     *capacity,
			killEvery:    *killEvery,
			restartAfter: *restartAfter,
			dataDir:      *dataDir,
			trace:        *traceOn,
			minAlive:     *minAlive,
			growTo:       *growTo,
			growEvery:    *growEvery,
			drainOne:     *drainOne,
			threshold:    threshold,
			tick:         *tick,
			clients:      *clients,
			ops:          *ops,
			ttl:          *ttl,
			holdMean:     *holdMean,
			crash:        *crash,
			renew:        *renew,
			seed:         *seed,
			jsonPath:     *jsonPath,
		})
	}

	loadCfg := server.LoadConfig{
		Clients:      *clients,
		Acquires:     *ops,
		TTL:          *ttl,
		HoldMean:     *holdMean,
		CrashPercent: *crash,
		RenewPercent: *renew,
		Seed:         *seed,
		Batch:        *batch,
	}
	if proto == registry.ProtoWire {
		nConns := *conns
		if nConns <= 0 {
			nConns = (*clients + 7) / 8
		}
		wc := wire.NewClient(*addr, &wire.ClientConfig{Conns: nConns})
		defer wc.Close()
		loadCfg.API = server.NewWireClient(wc)
	} else {
		loadCfg.API = server.NewClient(*addr, nil)
	}
	report, err := server.RunLoad(loadCfg)
	if err != nil {
		return err
	}

	mode := ""
	if *batch > 0 {
		mode = fmt.Sprintf(", batch %d", *batch)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("laload: %d clients, ttl %v, crash %d%%, renew %d%%, proto %s%s against %s",
			*clients, *ttl, *crash, *renew, proto, mode, *addr),
		"metric", "value")
	contractRows(tbl, report.ContractReport)
	tbl.AddRow("server expirations", fmt.Sprintf("%d", report.FinalStats.Lease.Expirations))
	tbl.AddRow("server renew races", fmt.Sprintf("%d", report.FinalStats.Lease.RenewRaces))
	if w := report.Wire; w != nil {
		// Syscall efficiency: how much work each connection and each flush
		// (one writev) amortized.
		tbl.AddRow("wire connections dialed", fmt.Sprintf("%d", w.Dials))
		tbl.AddRow("wire ops per connection", fmt.Sprintf("%.0f", w.OpsPerConn()))
		tbl.AddRow("wire frames per flush", fmt.Sprintf("%.2f", w.FramesPerFlush()))
		tbl.AddRow("wire redial backoffs", fmt.Sprintf("%d", w.Backoffs))
	}
	fmt.Println(tbl.String())

	if err := writeJSONReport(*jsonPath, report); err != nil {
		return err
	}
	if violations := report.Violations(); violations != nil {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "laload: VIOLATION:", v)
		}
		return fmt.Errorf("%d lease-contract violations", len(violations))
	}
	fmt.Println("laload: lease contract verified: no duplicates, no early reissues, no lost releases, all abandoned leases reclaimed")
	return nil
}

// clusterOptions carries the resolved cluster/chaos-mode configuration.
type clusterOptions struct {
	proto        registry.Proto
	targets      string
	spawn        int
	partitions   int
	capacity     int
	killEvery    time.Duration
	restartAfter time.Duration
	dataDir      string
	trace        bool
	minAlive     int
	growTo       int
	growEvery    time.Duration
	drainOne     bool
	threshold    float64
	tick         time.Duration
	clients      int
	ops          int64
	ttl          time.Duration
	holdMean     time.Duration
	crash        int
	renew        int
	seed         uint64
	jsonPath     string
}

// runCluster drives the chaos verifier against an external cluster
// (-targets) or an in-process one (-spawn).
func runCluster(opts clusterOptions) error {
	cfg := cluster.ChaosConfig{
		DisableWire:  opts.proto == registry.ProtoHTTP,
		Clients:      opts.clients,
		Acquires:     opts.ops,
		TTL:          opts.ttl,
		HoldMean:     opts.holdMean,
		CrashPercent: opts.crash,
		RenewPercent: opts.renew,
		Seed:         opts.seed,
		KillEvery:    opts.killEvery,
		RestartAfter: opts.restartAfter,
		MinAlive:     opts.minAlive,
		GrowTo:       opts.growTo,
		GrowEvery:    opts.growEvery,
		DrainOne:     opts.drainOne,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	where := opts.targets
	if opts.spawn != 0 {
		if opts.spawn < 2 {
			return fmt.Errorf("invalid -spawn %d (valid: at least 2 nodes)", opts.spawn)
		}
		partitions, err := registry.ValidatePartitionCount(opts.partitions)
		if err != nil {
			return err
		}
		if opts.capacity < partitions {
			return fmt.Errorf("invalid -capacity %d (valid: at least -partitions = %d)", opts.capacity, partitions)
		}
		local, err := cluster.StartLocal(cluster.LocalConfig{
			Nodes:      opts.spawn,
			Partitions: partitions,
			Capacity:   opts.capacity,
			Seed:       opts.seed,
			DataDir:    opts.dataDir,
			Trace:      opts.trace,
			Node: cluster.NodeConfig{
				Lease:      lease.Config{TickInterval: opts.tick},
				DefaultTTL: opts.ttl,
				// MaxTTL bounds the failover quarantine; matching the load's
				// TTL keeps the reissue window exactly TTL + 2 ticks.
				MaxTTL:             opts.ttl,
				RebalanceThreshold: opts.threshold,
				Logf: func(format string, args ...any) {
					fmt.Printf(format+"\n", args...)
				},
			},
		})
		if err != nil {
			return err
		}
		defer local.Close()
		cfg.Local = local
		where = fmt.Sprintf("%d in-process nodes x %d partitions", opts.spawn, partitions)
	} else {
		urls, err := registry.ParsePeersFlag(opts.targets)
		if err != nil {
			return err
		}
		cfg.Targets = urls
	}

	report, err := cluster.RunChaos(cfg)
	if err != nil {
		return err
	}

	tbl := stats.NewTable(
		fmt.Sprintf("laload cluster: %d clients, ttl %v, crash %d%%, kill-every %v against %s",
			opts.clients, opts.ttl, opts.crash, opts.killEvery, where),
		"metric", "value")
	contractRows(tbl, report.ContractReport)
	tbl.AddRow("fill sweep grants", fmt.Sprintf("%d", report.FillAcquired))
	tbl.AddRow("nodes killed", fmt.Sprintf("%d %v", report.Kills, report.KilledNodes))
	if opts.restartAfter > 0 {
		tbl.AddRow("nodes restarted", fmt.Sprintf("%d %v", report.Restarts, report.RestartedNodes))
		tbl.AddRow("failovers preempted by restart", fmt.Sprintf("%d", report.RestartPreempts))
	}
	tbl.AddRow("epoch bumps observed", fmt.Sprintf("%d (final epoch %d)", report.EpochBumps, report.FinalEpoch))
	if opts.growTo > 0 || opts.drainOne {
		tbl.AddRow("members joined", fmt.Sprintf("%d %v", report.Joins, report.JoinedNodes))
		tbl.AddRow("members drained", fmt.Sprintf("%d %v", report.Drains, report.DrainedNodes))
		tbl.AddRow("migrations planned/staged/cutover/aborted", fmt.Sprintf("%d/%d/%d/%d",
			report.MigrationsPlanned, report.MigrationsStaged, report.MigrationsCutover, report.MigrationsAborted))
	}
	tbl.AddRow("orphaned by kills", fmt.Sprintf("%d (reissued %d)", report.OrphanEvents, report.OrphansReissued))
	tbl.AddRow("killed-session ops fenced", fmt.Sprintf("%d", report.KilledSessions))
	tbl.AddRow("routing refresh/412/421/dead", fmt.Sprintf("%d/%d/%d/%d",
		report.Routing.Refreshes, report.Routing.StaleEpochs, report.Routing.Misroutes, report.Routing.DeadHops))
	tbl.AddRow("wire ops / HTTP fallbacks", fmt.Sprintf("%d/%d", report.Routing.WireOps, report.Routing.WireFallbacks))
	tbl.AddRow("routing backoff pauses", fmt.Sprintf("%d", report.Routing.Backoffs))
	if report.MetricsDisabled {
		tbl.AddRow("metrics watcher", "disabled (/metrics 404)")
	} else {
		tbl.AddRow("metrics scrapes", fmt.Sprintf("%d", report.MetricsScrapes))
		tbl.AddRow("quarantines seen in /metrics", fmt.Sprintf("%d (mid-kill snapshots %v)", report.MetricsQuarantines, report.MetricsMidKillQuarantines))
	}
	if report.EventsDisabled {
		tbl.AddRow("events watcher", "disabled (/debug/events 404)")
	} else {
		tbl.AddRow("cluster events captured", fmt.Sprintf("%d (epoch bumps %d, failover decisions %d, quarantine starts %d)",
			report.EventsCaptured, report.EventCounts[trace.EvEpochBump],
			report.EventCounts[trace.EvFailoverDecision], report.EventCounts[trace.EvQuarantineStart]))
	}
	fmt.Println(tbl.String())

	if err := writeJSONReport(opts.jsonPath, report); err != nil {
		return err
	}
	if violations := report.Violations(); violations != nil {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "laload: VIOLATION:", v)
		}
		return fmt.Errorf("%d cluster lease-contract violations", len(violations))
	}
	fmt.Println("laload: cluster lease contract verified: no duplicates across nodes, no early reissues, no lost releases, all orphans fenced and reissued")
	return nil
}

// contractRows adds the rows every verified run reports: the traffic mix,
// the timed window and the acquire latencies.
func contractRows(tbl *stats.Table, r server.ContractReport) {
	tbl.AddRow("operations (verified)", fmt.Sprintf("%d", r.Ops()))
	tbl.AddRow("  acquires", fmt.Sprintf("%d", r.Acquires))
	tbl.AddRow("  renews", fmt.Sprintf("%d", r.Renews))
	tbl.AddRow("  releases", fmt.Sprintf("%d", r.Releases))
	tbl.AddRow("  crashes (abandoned)", fmt.Sprintf("%d", r.Crashes))
	tbl.AddRow("  stale probes rejected", fmt.Sprintf("%d", r.StaleRejected))
	tbl.AddRow("holder lapses (excused)", fmt.Sprintf("%d", r.HolderLapses))
	tbl.AddRow("duration", r.Elapsed.Round(time.Millisecond).String())
	tbl.AddRow("throughput (ops/s)", fmt.Sprintf("%.0f", r.Throughput()))
	tbl.AddRow("acquire latency p50", r.AcquireP50.String())
	tbl.AddRow("acquire latency p90", r.AcquireP90.String())
	tbl.AddRow("acquire latency p99", r.AcquireP99.String())
	tbl.AddRow("acquire latency max", r.AcquireMax.String())
	tbl.AddRow("full-namespace retries", fmt.Sprintf("%d", r.FullRetries))
}

// writeJSONReport writes the report to path when set.
func writeJSONReport(path string, report any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
