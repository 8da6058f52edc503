// Command lactl inspects a running laserve cluster (or a standalone
// laserve): membership, per-partition load, and active sessions.
//
//	lactl -addr http://127.0.0.1:7001 members   # epoch, members, partition map
//	lactl -addr http://127.0.0.1:7001 stats     # per-partition load across the cluster
//	lactl -addr http://127.0.0.1:7001 leases    # active sessions (paged via /leases)
//
// members and stats need a cluster member; leases also works against a
// standalone laserve (which serves the same /leases endpoint). metrics,
// trace and events read HTTP-only endpoints, so against a standalone laserve
// they need -proto http and its HTTP address.
//
// -proto wire reads the same responses over the binary wire protocol
// instead of HTTP; point -addr at a member's wire endpoint (host:port,
// the laserve -wire-addr) and lactl walks the rest of the cluster via
// the wire endpoints advertised in the membership table:
//
//	lactl -proto wire -addr 127.0.0.1:7101 stats
//
// trace and events read the flight recorder (laserve -trace):
//
//	lactl trace                     # slow ops with per-phase latency breakdown
//	lactl events                    # cluster-wide control-plane timeline, merged
//	lactl events -type migration    # only migration_plan/cutover/abort events
//
// join, drain and rebalance drive elastic membership; lactl finds the
// steward in the target's table and sends them there, over either protocol:
//
//	lactl join http://10.0.0.9:8080          # admit a member by advertised URL
//	lactl drain 2                            # migrate member 2 empty, then retire it
//	lactl rebalance                          # force one planner round now
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/levelarray/levelarray/internal/cluster"
	"github.com/levelarray/levelarray/internal/metrics"
	"github.com/levelarray/levelarray/internal/registry"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/stats"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lactl:", err)
		os.Exit(1)
	}
}

func usage() string {
	return "usage: lactl [-addr URL|host:port] [-proto http|wire] [-limit N] [-verify] [-type SUBSTR] " +
		"members|stats|leases|metrics|trace|events|rebalance | join ADDR [WIREADDR] | drain MEMBER"
}

func run() error {
	addr := flag.String("addr", "http://127.0.0.1:8080", "any cluster member (or standalone laserve): base URL, or host:port with -proto wire")
	protoName := flag.String("proto", "http", "transport protocol: "+registry.ValidProtoNames)
	limit := flag.Int("limit", 50, "maximum sessions to list (leases)")
	verify := flag.Bool("verify", false, "metrics: fail unless occupancy gauges agree with /stats (within concurrent churn)")
	evType := flag.String("type", "", "events: only show event types containing this substring (e.g. migration, member_drain)")
	flag.Parse()
	if flag.NArg() < 1 {
		return fmt.Errorf("%s", usage())
	}
	cmd := flag.Arg(0)
	rest := flag.Args()[1:]
	// Flags may also follow the command word (lactl events -type migration).
	if len(rest) > 0 && strings.HasPrefix(rest[0], "-") {
		if err := flag.CommandLine.Parse(rest); err != nil {
			return err
		}
		rest = flag.Args()
	}
	wantArgs := map[string][2]int{"join": {1, 2}, "drain": {1, 1}}
	lo, hi := 0, 0
	if w, ok := wantArgs[cmd]; ok {
		lo, hi = w[0], w[1]
	}
	if len(rest) < lo || len(rest) > hi {
		return fmt.Errorf("%s", usage())
	}
	proto, err := registry.ParseProtoFlag(*protoName)
	if err != nil {
		return err
	}
	src := &source{
		proto: proto,
		base:  strings.TrimRight(*addr, "/"),
		hc:    &http.Client{Timeout: 5 * time.Second},
		wire:  map[string]*wire.Client{},
	}
	defer src.close()

	switch cmd {
	case "members":
		return runMembers(src)
	case "stats":
		return runStats(src)
	case "leases":
		return runLeases(src, *limit)
	case "metrics":
		return runMetrics(src, *verify)
	case "trace":
		return runTrace(src, *limit)
	case "events":
		return runEvents(src, *limit, *evType)
	case "join":
		wireAddr := ""
		if len(rest) == 2 {
			wireAddr = rest[1]
		}
		return runJoin(src, rest[0], wireAddr)
	case "drain":
		return runDrain(src, rest[0])
	case "rebalance":
		return runRebalance(src)
	default:
		return fmt.Errorf("unknown command %q\n%s", cmd, usage())
	}
}

// source reaches the target, and every member its table lists, over the
// chosen protocol through server.Client (HTTP) or server.WireClient (wire):
// the commands below pick a member and an opcode, never an encoding.
type source struct {
	proto registry.Proto
	base  string // HTTP base URL, or a wire host:port
	hc    *http.Client
	wire  map[string]*wire.Client // lazy, one per wire endpoint
}

func (s *source) close() {
	for _, c := range s.wire {
		c.Close()
	}
}

// conn returns the client for one endpoint over the chosen protocol.
func (s *source) conn(addr string) server.Conn {
	if s.proto != registry.ProtoWire {
		return server.NewClient(addr, s.hc)
	}
	c, ok := s.wire[addr]
	if !ok {
		c = wire.NewClient(addr, nil)
		s.wire[addr] = c
	}
	return server.NewWireClient(c)
}

// memberAddr picks the transport endpoint for one member; wire mode needs
// the member to advertise a wire endpoint in the table.
func (s *source) memberAddr(m cluster.Member) (string, error) {
	if s.proto == registry.ProtoWire {
		if m.WireAddr == "" {
			return "", fmt.Errorf("member %d advertises no wire endpoint", m.ID)
		}
		return m.WireAddr, nil
	}
	return m.Addr, nil
}

// fetchTable pulls the membership table from the target; a standalone
// laserve serves none.
func (s *source) fetchTable() (cluster.Table, error) {
	var t cluster.Table
	if err := s.conn(s.base).Read(wire.OpMembers, 0, 0, &t); err != nil {
		return t, fmt.Errorf("%s serves no membership table (standalone laserve?): %w", s.base, err)
	}
	return t, t.Validate()
}

func runMembers(src *source) error {
	t, err := src.fetchTable()
	if err != nil {
		return err
	}
	tbl := stats.NewTable(
		fmt.Sprintf("cluster epoch %d: %d partitions x stride %d (namespace %d, capacity %d)",
			t.Epoch, t.Partitions, t.Stride, t.Size(), t.Capacity),
		"member", "addr", "wire", "state", "changed", "partitions")
	for _, m := range t.Members {
		wireAddr := m.WireAddr
		if wireAddr == "" {
			wireAddr = "-"
		}
		changed := "-"
		if m.ChangedAtUnixMillis > 0 {
			changed = time.Since(time.UnixMilli(m.ChangedAtUnixMillis)).Round(time.Second).String() + " ago"
		}
		tbl.AddRow(fmt.Sprintf("%d", m.ID), m.Addr, wireAddr, m.EffectiveState(), changed, fmt.Sprintf("%v", t.PartitionsOf(m.ID)))
	}
	fmt.Println(tbl.String())
	return nil
}

func runStats(src *source) error {
	t, err := src.fetchTable()
	if err != nil {
		return err
	}
	tbl := stats.NewTable(
		fmt.Sprintf("cluster epoch %d: per-partition load", t.Epoch),
		"partition", "member", "active", "capacity", "load", "acquires", "expirations", "quarantine")
	var unreachable []string
	for _, m := range t.Alive() {
		addr, err := src.memberAddr(m)
		if err != nil {
			unreachable = append(unreachable, fmt.Sprintf("%d (%v)", m.ID, err))
			continue
		}
		var ns cluster.NodeStatsResponse
		if err := src.conn(addr).Read(wire.OpStats, 0, 0, &ns); err != nil {
			unreachable = append(unreachable, addr)
			continue
		}
		for _, p := range ns.Partitions {
			quarantine := "-"
			if p.QuarantinedMillis > 0 {
				quarantine = (time.Duration(p.QuarantinedMillis) * time.Millisecond).String()
			}
			tbl.AddRow(
				fmt.Sprintf("%d", p.Partition),
				fmt.Sprintf("%d", ns.NodeID),
				fmt.Sprintf("%d", p.Lease.Active),
				fmt.Sprintf("%d", p.Capacity),
				fmt.Sprintf("%.0f%%", p.LoadFactor*100),
				fmt.Sprintf("%d", p.Lease.Acquires),
				fmt.Sprintf("%d", p.Lease.Expirations),
				quarantine,
			)
		}
	}
	fmt.Println(tbl.String())
	for _, addr := range unreachable {
		fmt.Printf("lactl: member %s unreachable\n", addr)
	}
	return nil
}

// httpBase coerces an address to an HTTP base URL: the metrics endpoint is
// HTTP-only, so a bare host:port (wire style) gets the scheme prefixed.
func httpBase(addr string) string {
	addr = strings.TrimRight(addr, "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// runMetrics scrapes /metrics from every member (or the standalone target)
// and renders per-partition occupancy plus a per-node operation summary.
func runMetrics(src *source, verify bool) error {
	bases, err := httpBases(src)
	if err != nil {
		return err
	}

	parts := stats.NewTable("per-partition occupancy (scraped from /metrics)",
		"partition", "node", "active", "capacity", "load", "quarantine")
	nodes := stats.NewTable("per-node operations",
		"node", "ops", "fences", "503s", "acquire p50", "acquire p99", "goroutines")
	var failures []string
	for _, base := range bases {
		samples, _, err := server.NewClient(base, src.hc).Scrape()
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		nodeName := base
		if v, ok := metrics.Find(samples, "la_cluster_epoch"); ok {
			nodeName = fmt.Sprintf("%s (epoch %.0f)", base, v)
		}
		for _, sm := range samples {
			if sm.Name != "la_partition_active" {
				continue
			}
			p := sm.Label("partition")
			capacity, _ := metrics.Find(samples, "la_partition_capacity", metrics.L("partition", p))
			load, _ := metrics.Find(samples, "la_partition_load_factor", metrics.L("partition", p))
			quarantine := "-"
			if q, ok := metrics.Find(samples, "la_partition_quarantine_seconds", metrics.L("partition", p)); ok && q > 0 {
				quarantine = fmt.Sprintf("%.1fs", q)
			}
			parts.AddRow(p, base, fmt.Sprintf("%.0f", sm.Value), fmt.Sprintf("%.0f", capacity), fmt.Sprintf("%.0f%%", load*100), quarantine)
		}
		if active, ok := metrics.Find(samples, "la_leases_active"); ok {
			capacity, _ := metrics.Find(samples, "la_lease_capacity")
			load, _ := metrics.Find(samples, "la_lease_load_factor")
			parts.AddRow("-", base, fmt.Sprintf("%.0f", active), fmt.Sprintf("%.0f", capacity), fmt.Sprintf("%.0f%%", load*100), "-")
		}
		ops := metrics.Sum(samples, "la_ops_total")
		fences := metrics.Sum(samples, "la_fence_rejections_total")
		unavail := metrics.Sum(samples, "la_unavailable_total")
		goroutines, _ := metrics.Find(samples, "go_goroutines")
		p50, p99 := "-", "-"
		if q, ok := metrics.SampleQuantile(samples, "la_acquire_latency_seconds", 0.50); ok {
			p50 = (time.Duration(q * float64(time.Second))).Round(time.Microsecond).String()
		}
		if q, ok := metrics.SampleQuantile(samples, "la_acquire_latency_seconds", 0.99); ok {
			p99 = (time.Duration(q * float64(time.Second))).Round(time.Microsecond).String()
		}
		nodes.AddRow(nodeName, fmt.Sprintf("%.0f", ops), fmt.Sprintf("%.0f", fences), fmt.Sprintf("%.0f", unavail), p50, p99, fmt.Sprintf("%.0f", goroutines))
		if verify {
			msg, err := cluster.CheckOccupancy(src.hc, base)
			if err != nil {
				msg = fmt.Sprintf("%s: %v", base, err)
			}
			if msg != "" {
				failures = append(failures, msg)
			}
		}
	}
	fmt.Println(parts.String())
	fmt.Println(nodes.String())
	if len(failures) > 0 {
		return fmt.Errorf("metrics check failed:\n  %s", strings.Join(failures, "\n  "))
	}
	if verify {
		fmt.Println("lactl: occupancy gauges agree with /stats on every scraped node")
	}
	return nil
}

// httpBases lists the HTTP base URLs to read /metrics and the debug
// endpoints from, which are HTTP-only: every live member of a cluster, or
// the standalone target itself. A standalone laserve serves no table to
// learn its HTTP address from, so under -proto wire these reads fail and
// say so.
func httpBases(src *source) ([]string, error) {
	t, err := src.fetchTable()
	if err != nil {
		if src.proto == registry.ProtoWire {
			return nil, fmt.Errorf("%w; /metrics and the debug endpoints are served over HTTP only, so read a standalone laserve with -proto http and its HTTP address", err)
		}
		return []string{httpBase(src.base)}, nil
	}
	var bases []string
	for _, m := range t.Alive() {
		bases = append(bases, httpBase(m.Addr))
	}
	return bases, nil
}

// fmtNanos renders a nanosecond latency compactly ("-" for zero).
func fmtNanos(ns int64) string {
	if ns == 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}

// runTrace fetches every node's slow-op ring (falling back to the sampled
// ring when no op has crossed the threshold yet) and renders the slowest ops
// with their per-phase latency breakdown, plus an aggregate phase footer —
// the "where does the p99 go" view. Fsync wait is its own column so the
// durability tax is never conflated with lock contention.
func runTrace(src *source, limit int) error {
	type nodeSpans struct {
		base string
		resp trace.TraceResponse
	}
	var (
		all      []trace.SpanJSON
		disabled []string
		failures []string
		slowOnly = true
	)
	bases, err := httpBases(src)
	if err != nil {
		return err
	}
	for _, base := range bases {
		var ns nodeSpans
		ns.base = base
		node := server.NewClient(base, src.hc)
		if err := node.Get("/debug/trace/slow", &ns.resp); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", base, err))
			continue
		}
		if !ns.resp.Enabled {
			disabled = append(disabled, base)
			continue
		}
		if len(ns.resp.Spans) == 0 {
			// Nothing slow yet: fall back to the sampled ring so the command
			// still shows where time goes on a healthy node.
			var sampled trace.TraceResponse
			if err := node.Get("/debug/trace", &sampled); err == nil && len(sampled.Spans) > 0 {
				ns.resp.Spans = sampled.Spans
				slowOnly = false
			}
		}
		all = append(all, ns.resp.Spans...)
	}
	if len(failures) > 0 {
		return fmt.Errorf("trace fetch failed (laserve without /debug/trace?):\n  %s", strings.Join(failures, "\n  "))
	}
	if len(disabled) > 0 && len(all) == 0 {
		return fmt.Errorf("tracing is disabled on %s (start laserve with -trace)", strings.Join(disabled, ", "))
	}
	sort.Slice(all, func(i, j int) bool { return all[i].DurationNanos > all[j].DurationNanos })
	if len(all) > limit {
		all = all[:limit]
	}

	title := fmt.Sprintf("slowest ops (top %d of the slow-op rings)", limit)
	if !slowOnly {
		title = fmt.Sprintf("slowest ops (top %d; nothing over the slow threshold yet, showing sampled spans)", limit)
	}
	tbl := stats.NewTable(title,
		"rid", "op", "node", "part", "err", "total", "fsync-wait", "lock-wait", "other phases")
	agg := map[string]int64{}
	var aggTotal int64
	for _, s := range all {
		var other []string
		for _, name := range trace.PhaseNames() {
			ns := s.Phases[name]
			if ns == 0 {
				continue
			}
			agg[name] += ns
			if name != "fsync-wait" && name != "lock-wait" {
				other = append(other, fmt.Sprintf("%s=%s", name, fmtNanos(ns)))
			}
		}
		aggTotal += s.DurationNanos
		errCode := s.Err
		if errCode == "" {
			errCode = "-"
		}
		otherCol := strings.Join(other, " ")
		if otherCol == "" {
			otherCol = "-"
		}
		tbl.AddRow(s.RID, s.Op, fmt.Sprintf("%d", s.Node), fmt.Sprintf("%d", s.Partition), errCode,
			fmtNanos(s.DurationNanos), fmtNanos(s.Phases["fsync-wait"]), fmtNanos(s.Phases["lock-wait"]), otherCol)
	}
	fmt.Println(tbl.String())
	if aggTotal > 0 {
		var parts []string
		for _, name := range trace.PhaseNames() {
			if ns := agg[name]; ns > 0 {
				parts = append(parts, fmt.Sprintf("%s %s (%.0f%%)", name, fmtNanos(ns), 100*float64(ns)/float64(aggTotal)))
			}
		}
		fmt.Printf("lactl: aggregate phase attribution over %d spans: %s\n", len(all), strings.Join(parts, ", "))
	}
	return nil
}

// runEvents merges every node's control-plane journal into one causally
// ordered timeline: who bumped which epoch and why, which failovers were
// decided on what evidence, which partitions were quarantined and which
// migrated where. typeFilter narrows by substring of the event type — e.g.
// "migration" keeps migration_plan/migration_cutover/migration_abort, and
// "member" keeps member_join/member_rejoin/member_drain.
func runEvents(src *source, limit int, typeFilter string) error {
	var (
		journals [][]trace.Event
		failures []string
	)
	bases, err := httpBases(src)
	if err != nil {
		return err
	}
	for _, base := range bases {
		var resp trace.EventsResponse
		if err := server.NewClient(base, src.hc).Get("/debug/events", &resp); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", base, err))
			continue
		}
		journals = append(journals, resp.Events)
	}
	if len(failures) > 0 {
		return fmt.Errorf("events fetch failed (laserve without /debug/events?):\n  %s", strings.Join(failures, "\n  "))
	}
	merged := trace.MergeEvents(journals...)
	title := fmt.Sprintf("cluster event timeline (most recent %d, merged across %d journals)", limit, len(journals))
	if typeFilter != "" {
		var kept []trace.Event
		for _, e := range merged {
			if strings.Contains(e.Type, typeFilter) {
				kept = append(kept, e)
			}
		}
		merged = kept
		title = fmt.Sprintf("cluster event timeline (most recent %d of type *%s*, merged across %d journals)", limit, typeFilter, len(journals))
	}
	if len(merged) > limit {
		merged = merged[len(merged)-limit:]
	}
	tbl := stats.NewTable(title,
		"time", "node", "epoch", "type", "part", "cause", "detail")
	for _, e := range merged {
		part := "-"
		if e.Partition >= 0 {
			part = fmt.Sprintf("%d", e.Partition)
		}
		cause := e.Cause
		if cause == "" {
			cause = "-"
		}
		detail := e.Detail
		if e.RID != "" {
			detail = fmt.Sprintf("[%s] %s", e.RID, detail)
		}
		tbl.AddRow(
			time.Unix(0, e.TimeUnixNano).Format("15:04:05.000"),
			fmt.Sprintf("%d", e.Node),
			fmt.Sprintf("%d", e.Epoch),
			e.Type, part, cause, detail,
		)
	}
	fmt.Println(tbl.String())
	return nil
}

// control runs one membership call on the steward, resolved from the
// target's table: the wire control plane does not proxy, so both protocols
// address the steward directly.
func (s *source) control(op wire.Opcode, in, out any) error {
	t, err := s.fetchTable()
	if err != nil {
		return err
	}
	st, ok := t.Steward()
	if !ok {
		return fmt.Errorf("cluster has no steward (no serving member)")
	}
	addr, err := s.memberAddr(st)
	if err != nil {
		return fmt.Errorf("steward %d: %w", st.ID, err)
	}
	return s.conn(addr).Control(op, in, out)
}

// runJoin admits a member by its advertised URL. Admission is idempotent per
// address: pre-admitting here and then booting the laserve with -join hands
// it the same member ID. The boot hint names the steward's HTTP address from
// the returned table, since -join takes a base URL whatever -proto reached
// the steward.
func runJoin(src *source, addr, wireAddr string) error {
	adv, err := registry.ParseJoinFlag(addr)
	if err != nil {
		return fmt.Errorf("join address: %w", err)
	}
	if adv == "" {
		return fmt.Errorf("join needs the member's advertised base URL\n%s", usage())
	}
	var out cluster.JoinResponse
	if err := src.control(wire.OpJoin, cluster.JoinRequest{Addr: adv, WireAddr: wireAddr}, &out); err != nil {
		return err
	}
	st, _ := out.Table.Steward()
	fmt.Printf("lactl: admitted %s as member %d at epoch %d (%d members); boot it with: laserve -join %s -advertise %s\n",
		adv, out.ID, out.Table.Epoch, len(out.Table.Members), st.Addr, adv)
	return nil
}

// runDrain starts draining one member: the planner migrates it empty, then
// the steward retires it (left) under a bumped epoch.
func runDrain(src *source, arg string) error {
	id, err := strconv.Atoi(arg)
	if err != nil {
		return fmt.Errorf("drain needs a member ID, got %q\n%s", arg, usage())
	}
	var out cluster.EpochResponse
	if err := src.control(wire.OpDrain, cluster.DrainRequest{ID: id}, &out); err != nil {
		return err
	}
	fmt.Printf("lactl: member %d draining at epoch %d; the planner migrates it empty, then retires it\n", id, out.Epoch)
	return nil
}

// runRebalance forces one planner round on the steward and reports what it
// decided — the on-demand version of the periodic load-spreading pass.
func runRebalance(src *source) error {
	var out cluster.RebalanceResponse
	if err := src.control(wire.OpRebalance, nil, &out); err != nil {
		return err
	}
	if out.Error != "" {
		return fmt.Errorf("rebalance on steward %d failed at epoch %d: %s", out.Steward, out.Epoch, out.Error)
	}
	if out.Moved {
		fmt.Printf("lactl: steward %d moved a partition (%s); epoch now %d\n", out.Steward, out.Plan, out.Epoch)
	} else {
		reason := out.Reason
		if reason == "" {
			reason = "nothing to move"
		}
		fmt.Printf("lactl: steward %d moved nothing (%s); epoch %d\n", out.Steward, reason, out.Epoch)
	}
	return nil
}

func runLeases(src *source, limit int) error {
	// Cluster members are walked via the table; a standalone laserve is
	// paged directly.
	t, terr := src.fetchTable()
	type row struct {
		name     int
		token    uint64
		deadline int64
		member   string
	}
	var rows []row
	page := func(addr, member string) error {
		start := 0
		for start != -1 && len(rows) < limit {
			var resp server.LeasesResponse
			if err := src.conn(addr).Read(wire.OpLeases, start, min(limit-len(rows), server.MaxLeasesPageLimit), &resp); err != nil {
				return err
			}
			for _, s := range resp.Sessions {
				rows = append(rows, row{name: s.Name, token: s.Token, deadline: s.DeadlineUnixMillis, member: member})
			}
			start = resp.Next
		}
		return nil
	}
	if terr != nil {
		if err := page(src.base, "-"); err != nil {
			return fmt.Errorf("%v (and not a cluster member: %v)", err, terr)
		}
	} else {
		for _, m := range t.Alive() {
			if len(rows) >= limit {
				break
			}
			addr, err := src.memberAddr(m)
			if err != nil {
				fmt.Printf("lactl: member %d skipped: %v\n", m.ID, err)
				continue
			}
			if err := page(addr, fmt.Sprintf("%d", m.ID)); err != nil {
				fmt.Printf("lactl: member %s unreachable: %v\n", addr, err)
			}
		}
	}

	tbl := stats.NewTable(
		fmt.Sprintf("active sessions (first %d)", limit),
		"name", "member", "token", "deadline")
	for _, r := range rows {
		deadline := "infinite"
		if r.deadline != 0 {
			deadline = time.UnixMilli(r.deadline).Format(time.RFC3339Nano)
		}
		tbl.AddRow(fmt.Sprintf("%d", r.name), r.member, fmt.Sprintf("%d", r.token), deadline)
	}
	fmt.Println(tbl.String())
	return nil
}
