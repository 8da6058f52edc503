package cluster

// Dynamic membership and live partition rebalancing. The crash-stop model
// gets three relaxations, all steward-driven and all flowing through the
// same epoch-fenced table swaps as failover:
//
//   - join: a new node POSTs /cluster/join to any member; the steward admits
//     it under a bumped epoch in the joining state (owning nothing), promotes
//     it to live once it answers probes, and the planner migrates partitions
//     onto it.
//   - drain/leave: POST /cluster/drain marks a member draining; the planner
//     migrates it empty one partition at a time, then retires it (left).
//   - rejoin: a down member whose probes recover is re-upped by the steward
//     (live, owning nothing) instead of staying down forever.
//
// A migration is a fenced snapshot handover between two live nodes: the
// steward asks the source to prepare (fence the partition, export its lease
// state, ship it to the target, which stages it), then adopts and pushes the
// cutover table. The target installs the staged snapshot the moment it
// adopts that table — durable before serving, no quarantine — and the source
// drops the partition. Between fence and cutover the source answers 421 for
// the partition, which the routed client absorbs with its refresh-and-retry
// loop, so no live lease is lost and no name can be double-issued: the fence
// is taken under the table write lock (no in-flight op survives it), the
// staged snapshot expires before the source's fence times out, and a stage
// only installs when the adopted epoch is exactly the plan's cutover epoch.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/rebalance"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wal"
)

// migrateBodyBytes caps a /migrate/stage body: a shipped snapshot carries
// every live session of one partition, far beyond the table-sized default.
const migrateBodyBytes = 64 << 20

// forwardedHeader guards steward proxying against forwarding loops: a
// forwarded control request that still does not land on the steward fails
// rather than bouncing between confused nodes.
const forwardedHeader = "X-La-Forwarded"

// JoinRequest asks the cluster to admit a new member.
type JoinRequest struct {
	// Addr is the joiner's advertised base URL (its identity: join is
	// idempotent per address).
	Addr string `json:"addr"`
	// WireAddr optionally advertises the joiner's binary-protocol endpoint.
	WireAddr string `json:"wire_addr,omitempty"`
}

// JoinResponse is the admission: the assigned member ID and the table that
// includes the joiner, which it boots from (NodeConfig.Bootstrap).
type JoinResponse struct {
	ID    int   `json:"id"`
	Table Table `json:"table"`
}

// DrainRequest asks the steward to start draining a member.
type DrainRequest struct {
	ID int `json:"id"`
}

// RebalanceResponse reports one forced planner round.
type RebalanceResponse struct {
	Steward int    `json:"steward"`
	Moved   bool   `json:"moved"`
	Plan    string `json:"plan,omitempty"`
	Reason  string `json:"reason,omitempty"`
	Epoch   uint64 `json:"epoch"`
	Error   string `json:"error,omitempty"`
}

// MigratePrepareRequest is the steward's order to a migration source: fence
// the partition, export its state, ship it to the target. Epoch is the
// cutover epoch (the source's current epoch + 1).
type MigratePrepareRequest struct {
	Partition  int    `json:"partition"`
	Epoch      uint64 `json:"epoch"`
	TargetID   int    `json:"target_id"`
	TargetAddr string `json:"target_addr"`
}

// MigrateStageRequest is the source's ship to the target: the exported
// snapshot, parked until the cutover table arrives.
type MigrateStageRequest struct {
	Partition int           `json:"partition"`
	Epoch     uint64        `json:"epoch"`
	PrevOwner int           `json:"prev_owner"`
	Snapshot  *wal.Snapshot `json:"snapshot"`
}

// MigrateAbortRequest unwinds a fenced migration before cutover.
type MigrateAbortRequest struct {
	Partition int    `json:"partition"`
	Epoch     uint64 `json:"epoch"`
	Cause     string `json:"cause,omitempty"`
}

// MigrateReply acknowledges a migration control call.
type MigrateReply struct {
	OK       bool   `json:"ok"`
	Epoch    uint64 `json:"epoch"`
	Sessions int    `json:"sessions,omitempty"`
	Error    string `json:"error,omitempty"`
}

// JoinCluster asks a member of an existing cluster to admit addr, retrying
// briefly through admission races, and returns the assigned ID plus the
// admission table to boot from (NodeConfig.Bootstrap). hc nil selects a 5s
// client.
func JoinCluster(hc *http.Client, seed, addr, wireAddr string) (int, Table, error) {
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Second}
	}
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		var out JoinResponse
		var fail EpochResponse
		status, _, err := server.PostJSON(hc, seed+"/cluster/join", nil,
			JoinRequest{Addr: addr, WireAddr: wireAddr}, &out, &fail)
		if err != nil {
			lastErr = err
			continue
		}
		if status/100 != 2 {
			lastErr = fmt.Errorf("cluster: join via %s: status %d (%s)", seed, status, fail.Error)
			if status == http.StatusBadRequest {
				return -1, Table{}, lastErr
			}
			continue
		}
		if err := out.Table.Validate(); err != nil {
			return -1, Table{}, fmt.Errorf("cluster: join admission table: %w", err)
		}
		if out.ID < 0 || out.ID >= len(out.Table.Members) {
			return -1, Table{}, fmt.Errorf("cluster: join assigned id %d outside admission table", out.ID)
		}
		return out.ID, out.Table, nil
	}
	return -1, Table{}, lastErr
}

// forwarded marks a control request re-POSTed to the steward.
var forwarded = http.Header{forwardedHeader: {"1"}}

// stewardGate is the HTTP control plane's one steward check, so a booting
// laserve can send its join to whatever member it knows. It returns true on
// the steward, which then runs the call. Any other node answers the call
// itself and returns false: it proxies the call to the steward once and
// relays the answer; a call already proxied, or a proxy that fails, gets
// 503 not_owner, and with no serving member the answer is 503
// no_partitions.
func (n *Node) stewardGate(w http.ResponseWriter, r *http.Request, body any) bool {
	st, ok := n.Table().Steward()
	switch {
	case !ok:
		server.WriteUnavailable(w, ErrCodeNoPartitions, n.cfg.ProbeInterval)
		return false
	case st.ID == n.cfg.NodeID:
		return true
	case r.Header.Get(forwardedHeader) != "":
		server.WriteUnavailable(w, ErrCodeNotOwner, n.cfg.ProbeInterval)
		return false
	}
	var reply json.RawMessage
	status, _, err := server.PostJSON(peerClient, st.Addr+r.URL.Path, forwarded, body, &reply, &reply)
	if err != nil {
		server.WriteUnavailable(w, ErrCodeNotOwner, n.cfg.ProbeInterval)
		return false
	}
	writeJSON(w, status, reply)
	return false
}

// handleJoin admits a new member through the steward gate.
func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Addr == "" {
		writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest)
		return
	}
	if n.stewardGate(w, r, req) {
		status, body := n.admitJoin(req)
		writeJSON(w, status, body)
	}
}

// admitJoin is the steward-side admission, shared by the HTTP handler and
// the wire opcode.
func (n *Node) admitJoin(req JoinRequest) (int, any) {
	t := n.Table()
	nt, id, ok := t.AddMember(req.Addr, req.WireAddr, n.cfg.Clock().UnixMilli())
	if !ok {
		return http.StatusBadRequest, EpochResponse{Error: server.ErrCodeBadRequest, Epoch: t.Epoch}
	}
	if nt.Epoch == t.Epoch {
		// Already a member: join is idempotent per address.
		return http.StatusOK, JoinResponse{ID: id, Table: t}
	}
	if err := n.adoptTable(nt, "member_join"); err != nil {
		// Lost a race against a newer table; the client retries and the next
		// attempt computes against it.
		return http.StatusServiceUnavailable, EpochResponse{Error: ErrCodeStaleEpoch, Epoch: n.Epoch()}
	}
	n.events.Eventf(trace.EvMemberJoin, nt.Epoch, -1, "admitted",
		"member %d (%s) admitted joining; epoch %d -> %d", id, req.Addr, t.Epoch, nt.Epoch)
	n.pushTable(nt)
	return http.StatusOK, JoinResponse{ID: id, Table: nt}
}

// handleDrain starts draining a member through the steward gate.
func (n *Node) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if !decode(w, r, &req) {
		return
	}
	if n.stewardGate(w, r, req) {
		status, body := n.applyDrain(req)
		writeJSON(w, status, body)
	}
}

// applyDrain is the steward-side drain transition, shared by the HTTP
// handler and the wire opcode.
func (n *Node) applyDrain(req DrainRequest) (int, any) {
	t := n.Table()
	nt, ok := t.Drain(req.ID, n.cfg.Clock().UnixMilli())
	if !ok {
		return http.StatusConflict, EpochResponse{Error: server.ErrCodeBadRequest, Epoch: t.Epoch}
	}
	if err := n.adoptTable(nt, "member_drain"); err != nil {
		return http.StatusServiceUnavailable, EpochResponse{Error: ErrCodeStaleEpoch, Epoch: n.Epoch()}
	}
	n.events.Eventf(trace.EvMemberDrain, nt.Epoch, -1, "requested",
		"member %d draining; the planner migrates it empty, then retires it", req.ID)
	n.pushTable(nt)
	return http.StatusOK, EpochResponse{Adopted: true, Epoch: nt.Epoch}
}

// handleRebalance forces one planner round on the steward, through the
// steward gate, and reports what it did.
func (n *Node) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if n.stewardGate(w, r, struct{}{}) {
		writeJSON(w, http.StatusOK, n.rebalanceOnce("api"))
	}
}

// handleMigratePrepare runs on a migration source: fence, export, ship.
func (n *Node) handleMigratePrepare(w http.ResponseWriter, r *http.Request) {
	var req MigratePrepareRequest
	if !decode(w, r, &req) {
		return
	}
	rep, status := n.migratePrepare(req)
	writeJSON(w, status, rep)
}

// migratePrepare fences the partition, exports its lease state and ships it
// to the target. The fence is taken under the table write lock: every lease
// op holds the read lock for its whole critical section, so once the write
// lock is acquired nothing is in flight and nothing new can start (acquires
// skip migrating partitions; renew/release answer 421). Expirations keep
// running, which is safe — the importer re-expires lapsed sessions itself
// and the fenced source never re-grants an expired name.
func (n *Node) migratePrepare(req MigratePrepareRequest) (MigrateReply, int) {
	n.mu.Lock()
	cur := n.table.Epoch
	if req.Epoch != cur+1 {
		n.mu.Unlock()
		return MigrateReply{Epoch: cur, Error: ErrCodeStaleEpoch}, http.StatusPreconditionFailed
	}
	part, ok := n.parts[req.Partition]
	if !ok {
		n.mu.Unlock()
		return MigrateReply{Epoch: cur, Error: ErrCodeNotOwner}, http.StatusMisdirectedRequest
	}
	if part.migrating {
		n.mu.Unlock()
		return MigrateReply{Epoch: cur, Error: "already_migrating"}, http.StatusConflict
	}
	part.migrating = true
	part.migrateEpoch = req.Epoch
	mgr, pid := part.mgr, part.id
	n.mu.Unlock()

	// Self-unfence: if neither the cutover table nor an abort reaches us
	// (steward died mid-plan), resume serving rather than 421 forever. The
	// staged copy on the target expires at half this, so it can never
	// install after we have resumed granting.
	time.AfterFunc(n.cfg.MigrateTimeout, func() {
		if !n.closed.Load() {
			n.abortMigration(pid, req.Epoch, "timeout")
		}
	})

	snap := mgr.ExportState(uint32(pid), req.Epoch)
	var rep MigrateReply
	status, _, err := server.PostJSON(peerClient, req.TargetAddr+"/migrate/stage", nil,
		MigrateStageRequest{Partition: pid, Epoch: req.Epoch, PrevOwner: n.cfg.NodeID, Snapshot: snap}, &rep, &rep)
	if err != nil || status/100 != 2 {
		n.abortMigration(pid, req.Epoch, "ship_failed")
		if err != nil {
			return MigrateReply{Epoch: cur, Error: err.Error()}, http.StatusBadGateway
		}
		return MigrateReply{Epoch: cur, Error: fmt.Sprintf("stage status %d: %s", status, rep.Error)}, http.StatusBadGateway
	}
	n.events.Eventf(trace.EvMigrationStaged, req.Epoch, pid, "shipped",
		"partition %d fenced and shipped to node %d (%d sessions)", pid, req.TargetID, len(snap.Sessions))
	return MigrateReply{OK: true, Epoch: cur, Sessions: len(snap.Sessions)}, http.StatusOK
}

// handleMigrateStage runs on a migration target: park the shipped snapshot
// until the cutover table arrives and installs it.
func (n *Node) handleMigrateStage(w http.ResponseWriter, r *http.Request) {
	var req MigrateStageRequest
	if !server.DecodeJSON(w, r, &req, migrateBodyBytes) {
		return
	}
	if req.Snapshot == nil || req.Partition < 0 {
		writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest)
		return
	}
	n.mu.Lock()
	cur := n.table.Epoch
	if req.Epoch <= cur {
		n.mu.Unlock()
		writeJSON(w, http.StatusPreconditionFailed, MigrateReply{Epoch: cur, Error: ErrCodeStaleEpoch})
		return
	}
	n.staged[req.Partition] = stagedSnapshot{
		epoch:     req.Epoch,
		prevOwner: req.PrevOwner,
		snap:      req.Snapshot,
		expires:   n.cfg.Clock().Add(n.cfg.MigrateTimeout / 2),
	}
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, MigrateReply{OK: true, Epoch: cur, Sessions: len(req.Snapshot.Sessions)})
}

// handleMigrateAbort runs on a migration source: unwind the fence early
// (the steward lost the cutover race) instead of waiting for the timeout.
func (n *Node) handleMigrateAbort(w http.ResponseWriter, r *http.Request) {
	var req MigrateAbortRequest
	if !decode(w, r, &req) {
		return
	}
	cause := req.Cause
	if cause == "" {
		cause = "abort_request"
	}
	n.abortMigration(req.Partition, req.Epoch, cause)
	writeJSON(w, http.StatusOK, MigrateReply{OK: true, Epoch: n.Epoch()})
}

// abortMigration releases a migration fence, if the partition is still held
// under exactly that plan's epoch. Idempotent: late timeouts, duplicate
// aborts and fences already superseded by adoption all no-op.
func (n *Node) abortMigration(p int, epoch uint64, cause string) bool {
	n.mu.Lock()
	part, ok := n.parts[p]
	aborted := ok && part.migrating && part.migrateEpoch == epoch
	if aborted {
		part.migrating = false
	}
	n.mu.Unlock()
	if aborted {
		n.events.Eventf(trace.EvMigrationAbort, epoch, p, cause,
			"migration fence released; serving partition %d again", p)
	}
	return aborted
}

// rebalanceLoop is the steward-side planner: every RebalanceEvery it
// observes the serving members' loads and performs at most one migration.
// Every node runs the loop; non-stewards no-op each round, so the planner
// survives steward failover without coordination.
func (n *Node) rebalanceLoop(done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(n.cfg.RebalanceEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			n.rebalanceOnce("planner")
		}
	}
}

// rebalanceOnce runs one planner round: retire drained members, observe
// loads, plan at most one move, execute it. Serialized by rebalanceMu so a
// forced round (POST /cluster/rebalance) cannot interleave with the ticker.
func (n *Node) rebalanceOnce(cause string) RebalanceResponse {
	n.rebalanceMu.Lock()
	defer n.rebalanceMu.Unlock()

	t := n.Table()
	resp := RebalanceResponse{Steward: -1, Epoch: t.Epoch}
	st, ok := t.Steward()
	if !ok {
		resp.Error = "no_steward"
		return resp
	}
	resp.Steward = st.ID
	if st.ID != n.cfg.NodeID {
		resp.Error = "not_steward"
		return resp
	}

	// Retire drained members: a draining member that owns nothing leaves.
	nowMillis := n.cfg.Clock().UnixMilli()
	for _, m := range t.Members {
		if m.EffectiveState() != StateDraining || len(t.PartitionsOf(m.ID)) != 0 {
			continue
		}
		nt, ok := t.Leave(m.ID, nowMillis)
		if !ok {
			continue
		}
		if err := n.adoptTable(nt, "member_drain"); err != nil {
			resp.Error = err.Error()
			return resp
		}
		n.events.Eventf(trace.EvMemberDrain, nt.Epoch, -1, "retired",
			"member %d drained empty and left; epoch %d -> %d", m.ID, t.Epoch, nt.Epoch)
		n.pushTable(nt)
		t = nt
		resp.Epoch = t.Epoch
	}

	// Observe every serving member's per-partition load factors. Fetches are
	// concurrent writers into the planner cache; a failed fetch keeps the
	// member's previous observation (the execute step re-validates the plan
	// against the current table anyway).
	var wg sync.WaitGroup
	for _, m := range t.Members {
		if !m.Serving() {
			n.loads.Forget(m.ID)
			continue
		}
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			load := rebalance.MemberLoad{ID: m.ID, State: m.EffectiveState(), Partitions: map[int]float64{}}
			var stats NodeStatsResponse
			if m.ID == n.cfg.NodeID {
				stats = n.statsResponse()
			} else if status, err := server.GetJSON(peerClient, m.Addr+"/stats", &stats); err != nil || status/100 != 2 {
				return
			}
			for _, ps := range stats.Partitions {
				load.Partitions[ps.Partition] = ps.LoadFactor
			}
			n.loads.Observe(load)
		}(m)
	}
	wg.Wait()

	plan, ok := rebalance.Next(n.loads.Snapshot(), rebalance.Config{Threshold: n.cfg.RebalanceThreshold})
	if !ok {
		return resp
	}
	resp.Plan, resp.Reason = plan.String(), plan.Reason
	if err := n.executeMigration(t, plan); err != nil {
		resp.Error = err.Error()
		n.cfg.Logf("cluster: node %d: %s round: %v", n.cfg.NodeID, cause, err)
		return resp
	}
	resp.Moved = true
	resp.Epoch = n.Epoch()
	return resp
}

// executeMigration performs one planned move: prepare on the source (fence +
// export + ship), then adopt and push the cutover table. Any failure leaves
// the old table in force; the source unfences itself (explicitly on a lost
// cutover race, by timeout if we die here).
func (n *Node) executeMigration(t Table, plan rebalance.Plan) error {
	if plan.Partition < 0 || plan.Partition >= len(t.Assignment) || t.Assignment[plan.Partition] != plan.From {
		return fmt.Errorf("cluster: stale plan %s: not the current owner", plan)
	}
	next, ok := t.Move(plan.Partition, plan.To)
	if !ok {
		return fmt.Errorf("cluster: plan %s rejected by table", plan)
	}
	n.events.Eventf(trace.EvMigrationPlan, next.Epoch, plan.Partition, plan.Reason,
		"moving partition %d: node %d -> node %d; epoch %d -> %d", plan.Partition, plan.From, plan.To, t.Epoch, next.Epoch)

	prep := MigratePrepareRequest{
		Partition:  plan.Partition,
		Epoch:      next.Epoch,
		TargetID:   plan.To,
		TargetAddr: next.Members[plan.To].Addr,
	}
	if plan.From == n.cfg.NodeID {
		if rep, _ := n.migratePrepare(prep); !rep.OK {
			return fmt.Errorf("cluster: migration prepare (local): %s", rep.Error)
		}
	} else {
		var rep MigrateReply
		status, _, err := server.PostJSON(peerClient, t.Members[plan.From].Addr+"/migrate/prepare", nil, prep, &rep, &rep)
		if err != nil {
			return fmt.Errorf("cluster: migration prepare on node %d: %w", plan.From, err)
		}
		if status/100 != 2 {
			return fmt.Errorf("cluster: migration prepare on node %d: status %d (%s)", plan.From, status, rep.Error)
		}
	}

	if err := n.adoptTable(next, "migration_cutover"); err != nil {
		// Lost the epoch race after the source fenced: release it now rather
		// than letting it wait out the timeout.
		n.sendAbort(t.Members[plan.From], plan.Partition, next.Epoch, "cutover_lost_race")
		return fmt.Errorf("cluster: adopting cutover table: %w", err)
	}
	n.pushTable(next)
	return nil
}

// sendAbort releases a source's migration fence, locally or over HTTP.
func (n *Node) sendAbort(src Member, partition int, epoch uint64, cause string) {
	if src.ID == n.cfg.NodeID {
		n.abortMigration(partition, epoch, cause)
		return
	}
	var rep MigrateReply
	_, _, _ = server.PostJSON(peerClient, src.Addr+"/migrate/abort", nil,
		MigrateAbortRequest{Partition: partition, Epoch: epoch, Cause: cause}, &rep, &rep)
}
