package cluster

// The node's lease API: Node implements server.Service, so the one HTTP
// codec and the one wire codec in package server serve it exactly as they
// serve a standalone manager. Every op runs under the table read lock and
// returns before anything is written, so a slow-reading client can never
// hold the lock against an Adopt (whose write lock would then stall every
// other request on the node). A single-lease write of a wire batch also
// returns before its journal fsync: the codec waits on the batch's barrier
// once the lock is released.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wal"
	"github.com/levelarray/levelarray/internal/wire"
)

var _ server.Service = (*Node)(nil)

// ttl decodes a request's ttl_ms. Cluster mode has no infinite leases:
// negative requests map to MaxTTL, which the managers also enforce as the
// ceiling.
func (n *Node) ttl(millis int64) time.Duration {
	return server.TTL(millis, n.cfg.DefaultTTL, n.cfg.MaxTTL)
}

// fence rejects a write whose epoch disagrees with the node's table: 412
// with the current epoch. Epoch 0 passes unfenced (curl-friendliness);
// routed clients always send theirs. Seeing a newer epoch also schedules a
// table refresh: the node itself is behind.
func (n *Node) fence(c server.Call) error {
	if c.Epoch == 0 {
		return nil
	}
	cur := n.Epoch()
	if c.Epoch == cur {
		return nil
	}
	if c.Epoch > cur {
		n.requestRefresh()
	}
	n.events.Emit(trace.Event{
		Type: trace.EvStaleEpoch, Level: trace.LevelDebug,
		Epoch: cur, Partition: -1, Cause: "request_epoch", RID: c.RID(),
		Detail: fmt.Sprintf("412: request carried epoch %d, ours is %d", c.Epoch, cur),
	})
	return &server.Error{Code: wire.CodeStaleEpoch, Epoch: cur}
}

// rlock takes the table read lock for one op, charging the wait to the
// span's queue phase and stamping the epoch the op runs under. A traced op
// that finds the lock free reads no clock: it waited for nothing.
func (n *Node) rlock(sp *trace.Op) {
	if sp == nil || !n.mu.TryRLock() {
		mark := sp.Mark()
		n.mu.RLock()
		sp.PhaseSince(trace.PhaseQueue, mark)
	}
	sp.SetEpoch(n.table.Epoch)
}

// resolveLocked maps a cluster name to the owned partition and local name:
// ErrNotLeased outside the namespace, 421 when another member owns it.
// Callers hold mu.
func (n *Node) resolveLocked(name int) (*partition, int, error) {
	p := n.table.PartitionOf(name)
	if p < 0 {
		return nil, 0, lease.ErrNotLeased
	}
	part, owned := n.parts[p]
	if !owned || part.migrating {
		// A migrating partition answers 421 like one we no longer own: the
		// fence must hold every mutation out of the exported snapshot, and
		// the routed client's refresh-and-retry lands the op on whichever
		// side the plan resolves to (the target after cutover, or back here
		// after an abort).
		n.misroutes.Add(1)
		return nil, 0, &server.Error{Code: wire.CodeNotOwner, Epoch: n.table.Epoch}
	}
	return part, name - p*n.table.Stride, nil
}

// grantLocked places a partition's lease under its cluster-global name.
// Callers hold mu.
func (n *Node) grantLocked(part *partition, l lease.Lease) server.Grant {
	g := server.GrantOf(l)
	g.Name += part.id * n.table.Stride
	g.NodeID, g.Partition, g.Epoch = n.cfg.NodeID, part.id, n.table.Epoch
	return g
}

// acquire grants up to want leases across the node's open partitions,
// round-robin from a rotating start, under one table lock for the whole
// call: the cluster counterpart of the manager's AcquireN. Full, closed and
// failed (a latched WAL) partitions are skipped, and so are quarantined and
// migrating ones, whose wait paces the 503 warming answered when nothing
// else is open. It fails only when it granted nothing.
func (n *Node) acquire(c server.Call, want int, ttlMillis int64, dst []server.Grant) ([]server.Grant, error) {
	if err := n.fence(c); err != nil {
		return dst, err
	}
	n.rlock(c.Span)
	defer n.mu.RUnlock()
	if len(n.ownedIDs) == 0 {
		return dst, &server.Error{Code: wire.CodeNoPartitions, Wait: n.cfg.ProbeInterval}
	}
	ttl := n.ttl(ttlMillis)
	start, now, base := n.rr.Add(1), n.cfg.Clock(), len(dst)
	warming := time.Duration(-1)
	sawOpen := false
	var batch []lease.Lease
	for i := 0; i < len(n.ownedIDs) && len(dst)-base < want; i++ {
		// Index math stays in uint64: truncating the counter to a 32-bit int
		// would eventually go negative and panic the modulo.
		part := n.parts[n.ownedIDs[(start+uint64(i))%uint64(len(n.ownedIDs))]]
		wait := part.quarantineUntil.Sub(now)
		if part.migrating {
			// Fenced for a migration about to cut over; the next table
			// routes acquires elsewhere, so pace like a short quarantine.
			wait = n.cfg.ProbeInterval
		}
		if wait > 0 {
			if warming < 0 || wait < warming {
				warming = wait
			}
			continue
		}
		sawOpen = true
		var err error
		if want == 1 {
			c.Span.SetNode(n.cfg.NodeID, part.id)
			var l lease.Lease
			if l, err = part.mgr.AcquireSpan(ttl, c.Span, c.Barrier); err == nil {
				dst = append(dst, n.grantLocked(part, l))
			}
		} else {
			batch, err = part.mgr.AcquireN(want-(len(dst)-base), ttl, batch[:0])
			for _, l := range batch {
				dst = append(dst, n.grantLocked(part, l))
			}
		}
		if err != nil && !errors.Is(err, activity.ErrFull) && !errors.Is(err, lease.ErrClosed) && !errors.Is(err, wal.ErrFailed) {
			if len(dst) > base {
				return dst, nil
			}
			return dst, err
		}
	}
	switch {
	case len(dst) > base:
		return dst, nil
	case sawOpen:
		// Open partitions exist but every one is full: slots free up as
		// leases expire, which RetryAfter's one tick paces.
		return dst, activity.ErrFull
	default:
		return dst, &server.Error{Code: wire.CodeWarming, Wait: warming}
	}
}

// Acquire implements server.Service.
func (n *Node) Acquire(c server.Call, ttlMillis int64) (server.Grant, error) {
	var one [1]server.Grant
	g, err := n.acquire(c, 1, ttlMillis, one[:0])
	if err != nil {
		return server.Grant{}, err
	}
	return g[0], nil
}

// AcquireN implements server.Service.
func (n *Node) AcquireN(c server.Call, want int, ttlMillis int64, dst []server.Grant) ([]server.Grant, error) {
	return n.acquire(c, want, ttlMillis, dst)
}

// Renew implements server.Service.
func (n *Node) Renew(c server.Call, name int, token uint64, ttlMillis int64) (server.Grant, error) {
	if err := n.fence(c); err != nil {
		return server.Grant{}, err
	}
	n.rlock(c.Span)
	defer n.mu.RUnlock()
	part, local, err := n.resolveLocked(name)
	if err != nil {
		return server.Grant{}, err
	}
	c.Span.SetNode(n.cfg.NodeID, part.id)
	l, err := part.mgr.RenewSpan(local, token, n.ttl(ttlMillis), c.Span, c.Barrier)
	if err != nil {
		return server.Grant{}, err
	}
	return n.grantLocked(part, l), nil
}

// Release implements server.Service.
func (n *Node) Release(c server.Call, name int, token uint64) error {
	if err := n.fence(c); err != nil {
		return err
	}
	n.rlock(c.Span)
	defer n.mu.RUnlock()
	part, local, err := n.resolveLocked(name)
	if err != nil {
		return err
	}
	c.Span.SetNode(n.cfg.NodeID, part.id)
	return part.mgr.ReleaseSpan(local, token, c.Span, c.Barrier)
}

// ReleaseN implements server.Service: every ref under one table lock.
func (n *Node) ReleaseN(c server.Call, refs []lease.Ref, out []lease.RenewOutcome) ([]lease.RenewOutcome, error) {
	if err := n.fence(c); err != nil {
		return out, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, ref := range refs {
		part, local, err := n.resolveLocked(ref.Name)
		if err == nil {
			err = part.mgr.Release(local, ref.Token)
		}
		out = append(out, lease.RenewOutcome{Err: err})
	}
	return out, nil
}

// renewGroup is one partition's share of a RenewN.
type renewGroup struct {
	part     *partition
	refs     []lease.Ref
	idx      []int
	outcomes []lease.RenewOutcome
}

var renewGroupPool = sync.Pool{New: func() any { return &renewGroup{} }}

// RenewN implements server.Service under one table lock, grouped per
// partition so each owned partition takes one RenewAll pass (one clock
// read, batched wheel inserts).
func (n *Node) RenewN(c server.Call, refs []lease.Ref, ttlMillis int64, out []lease.RenewOutcome) ([]lease.RenewOutcome, error) {
	if err := n.fence(c); err != nil {
		return out, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	base := len(out)
	for range refs {
		out = append(out, lease.RenewOutcome{})
	}
	items := out[base:]
	groups := make(map[int]*renewGroup, len(n.ownedIDs))
	for i, ref := range refs {
		part, local, err := n.resolveLocked(ref.Name)
		if err != nil {
			items[i].Err = err
			continue
		}
		g := groups[part.id]
		if g == nil {
			g = renewGroupPool.Get().(*renewGroup)
			g.part, g.refs, g.idx = part, g.refs[:0], g.idx[:0]
			groups[part.id] = g
		}
		g.refs = append(g.refs, lease.Ref{Name: local, Token: ref.Token})
		g.idx = append(g.idx, i)
	}
	ttl := n.ttl(ttlMillis)
	for _, g := range groups {
		var err error
		g.outcomes, err = g.part.mgr.RenewAll(g.refs, ttl, g.outcomes[:0])
		for j, i := range g.idx {
			if err != nil {
				items[i].Err = err
			} else {
				items[i] = g.outcomes[j]
			}
		}
		g.part = nil
		renewGroupPool.Put(g)
	}
	return out, nil
}

// Collect implements server.Service: the owned partitions' Collect merged
// under cluster-global names — the node's slice of the registered set, with
// the underlying arrays' validity guarantee.
func (n *Node) Collect() server.CollectResponse {
	names := []int{}
	var scratch []int
	n.mu.RLock()
	for _, id := range n.ownedIDs {
		scratch = n.parts[id].mgr.Collect(scratch[:0])
		base := id * n.table.Stride
		for _, local := range scratch {
			names = append(names, base+local)
		}
	}
	n.mu.RUnlock()
	return server.CollectResponse{Count: len(names), Names: names}
}

// Leases implements server.Service: the node's active sessions under
// cluster-global names, walked across its owned partitions in name order.
func (n *Node) Leases(start, limit int) any {
	n.mu.RLock()
	resp := NodeLeasesResponse{
		Sessions: []server.SessionJSON{},
		Next:     -1,
		NodeID:   n.cfg.NodeID,
		Epoch:    n.table.Epoch,
	}
	for _, part := range n.parts {
		resp.Active += part.mgr.Active()
	}
	for i, id := range n.ownedIDs {
		base := id * n.table.Stride
		if start >= base+n.table.Stride {
			continue
		}
		localStart := 0
		if start > base {
			localStart = start - base
		}
		page, next := n.parts[id].mgr.Sessions(localStart, limit-len(resp.Sessions))
		for _, sess := range page {
			j := server.SessionOf(sess)
			j.Name += base
			resp.Sessions = append(resp.Sessions, j)
		}
		if len(resp.Sessions) == limit {
			switch {
			case next != -1:
				resp.Next = base + next
			case i+1 < len(n.ownedIDs):
				resp.Next = n.ownedIDs[i+1] * n.table.Stride
			}
			break
		}
	}
	n.mu.RUnlock()
	return resp
}

// Stats implements server.Service.
func (n *Node) Stats() any { return n.statsResponse() }

// statsResponse builds the node's /stats body.
func (n *Node) statsResponse() NodeStatsResponse {
	n.mu.RLock()
	now := n.cfg.Clock()
	resp := NodeStatsResponse{
		NodeID:            n.cfg.NodeID,
		Epoch:             n.table.Epoch,
		TickMillis:        n.cfg.Lease.TickInterval.Milliseconds(),
		Adoptions:         n.events.Count(trace.EvEpochBump),
		Quarantines:       n.events.Count(trace.EvQuarantineStart),
		Misroutes:         n.misroutes.Load(),
		StaleEpochRejects: n.events.Count(trace.EvStaleEpoch),
		Migrations: MigrationStats{
			Planned: n.events.Count(trace.EvMigrationPlan),
			Staged:  n.events.Count(trace.EvMigrationStaged),
			Cutover: n.events.Count(trace.EvMigrationCutover),
			Aborted: n.events.Count(trace.EvMigrationAbort),
		},
		Partitions: []PartitionStats{},
	}
	if n.cfg.NodeID < len(n.table.Members) {
		resp.State = n.table.Members[n.cfg.NodeID].EffectiveState()
	}
	resp.UptimeMillis = n.uptime(now)
	for _, id := range n.ownedIDs {
		part := n.parts[id]
		ps := PartitionStats{
			Partition:  id,
			Capacity:   part.mgr.Capacity(),
			Size:       part.mgr.Size(),
			LoadFactor: part.mgr.LoadFactor(),
			Lease:      part.mgr.Stats(),
		}
		if wait := part.quarantineUntil.Sub(now); wait > 0 {
			ps.QuarantinedMillis = wait.Milliseconds()
		}
		resp.Active += ps.Lease.Active
		resp.Capacity += ps.Capacity
		resp.Partitions = append(resp.Partitions, ps)
	}
	n.mu.RUnlock()
	return resp
}

// uptime is the time since Start, 0 before it.
func (n *Node) uptime(now time.Time) int64 {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if n.startedAt.IsZero() {
		return 0
	}
	return now.Sub(n.startedAt).Milliseconds()
}

// Health implements server.Service. Epoch rides along so the health probes
// that drive failure detection double as the anti-entropy signal.
func (n *Node) Health() any {
	return HealthResponse{
		OK:           true,
		NodeID:       n.cfg.NodeID,
		Epoch:        n.Epoch(),
		Version:      server.BuildVersion(),
		GoVersion:    runtime.Version(),
		UptimeMillis: n.uptime(n.cfg.Clock()),
	}
}

// RetryAfter implements server.Service: one lease-expirer tick.
func (n *Node) RetryAfter() time.Duration { return n.cfg.Lease.TickInterval }
