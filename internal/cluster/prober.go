package cluster

// Failure detection and table propagation: every node health-probes its
// peers; the steward (lowest-ID live member) turns sustained misses into a
// reassignment under a bumped epoch and pushes the new table to the
// survivors. Probes double as anti-entropy — a probed peer reports its
// epoch, and a node that sees a newer one pulls the table — so a node that
// missed a push converges on the next probe round.

import (
	"fmt"
	"sort"
	"time"

	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
)

// probeLoop is the background membership goroutine: periodic peer probes
// plus on-demand refresh pulls (requested when a request reveals a newer
// epoch than ours).
func (n *Node) probeLoop() {
	defer close(n.done)
	ticker := time.NewTicker(n.cfg.ProbeInterval)
	defer ticker.Stop()
	misses := make(map[int]int)
	recovers := make(map[int]int)
	for {
		select {
		case <-n.stop:
			return
		case <-n.refreshC:
			n.pullFromPeers()
		case <-ticker.C:
			n.probeOnce(misses, recovers)
		}
	}
}

// probeOnce probes every peer, pulls newer tables it learns of, and — when
// this node is the steward — admits recovered or joining members and
// reassigns the partitions of peers that missed DownAfter consecutive
// probes. Down members are probed too: one that answers again is a rejoin
// candidate rather than down-sticky forever.
func (n *Node) probeOnce(misses, recovers map[int]int) {
	t := n.Table()
	self := n.cfg.NodeID
	suspected := make(map[int]bool)
	oks := make(map[int]bool)
	for _, m := range t.Members {
		st := m.EffectiveState()
		if m.ID == self || st == StateLeft {
			delete(misses, m.ID)
			delete(recovers, m.ID)
			continue
		}
		if st == StateDown {
			// Recovery probing only: a down member owns nothing, so misses
			// cost nothing, and consecutive answers feed the rejoin counter.
			var health HealthResponse
			n.probes.Add(1)
			status, err := server.GetJSON(peerClient, m.Addr+"/healthz", &health)
			if err == nil && status/100 == 2 {
				recovers[m.ID]++
				if health.Epoch > t.Epoch {
					n.pullFrom(m.Addr)
					t = n.Table()
				}
			} else {
				delete(recovers, m.ID)
			}
			continue
		}
		var health HealthResponse
		n.probes.Add(1)
		status, err := server.GetJSON(peerClient, m.Addr+"/healthz", &health)
		if err == nil && status/100 == 2 {
			misses[m.ID] = 0
			oks[m.ID] = true
			if health.Epoch > t.Epoch {
				n.pullFrom(m.Addr)
				t = n.Table()
			}
			continue
		}
		n.probeMisses.Add(1)
		misses[m.ID]++
		// A joining member is not serving yet — a dead joiner costs nothing,
		// so it is simply never promoted rather than suspected.
		if misses[m.ID] >= n.cfg.DownAfter && st != StateJoining {
			suspected[m.ID] = true
		}
	}

	// Steward admissions run before failure handling so a recovery and a
	// concurrent failure resolve in separate epochs.
	t = n.stewardAdmissions(t, oks, recovers)

	if len(suspected) == 0 {
		return
	}

	// Quorum guard: a node that cannot reach half or more of the live
	// membership must assume IT is the partitioned minority and hold still —
	// otherwise both sides of a network split would elect stewards, bump
	// epochs independently, and double-issue names. With the guard, the
	// minority side never reassigns; its stale epoch is fenced by every
	// client that has seen the majority's table.
	live := 0
	for _, m := range t.Members {
		if m.Serving() {
			live++
		}
	}
	if len(suspected)*2 >= live {
		n.events.Emit(trace.Event{
			Type: trace.EvQuorumHold, Level: trace.LevelWarn,
			Epoch: t.Epoch, Partition: -1, Cause: "probe_timeout",
			Detail: fmt.Sprintf("suspecting %v of %d live members — no quorum, holding still", suspectSet(suspected), live),
		})
		return
	}

	// The steward for this failure set is the lowest live member that is not
	// itself suspected; everyone else holds still and lets the push arrive.
	steward := -1
	for _, m := range t.Members {
		if m.Serving() && !suspected[m.ID] {
			steward = m.ID
			break
		}
	}
	if steward != self {
		return
	}

	cur, changed := t, false
	for _, m := range t.Members {
		if !suspected[m.ID] {
			continue
		}
		nt, ok := cur.Reassign(m.ID)
		if !ok {
			continue
		}
		n.events.Emit(trace.Event{
			Type: trace.EvFailoverDecision, Level: trace.LevelWarn,
			Epoch: nt.Epoch, Partition: -1, Cause: "probe_timeout",
			Detail: fmt.Sprintf("steward marking member %d down after %d missed probes (suspects %v, %d live), epoch %d -> %d",
				m.ID, misses[m.ID], suspectSet(suspected), live, cur.Epoch, nt.Epoch),
		})
		cur, changed = nt, true
	}
	if !changed {
		return
	}
	if err := n.adoptTable(cur, "steward_reassign"); err != nil {
		// Lost a race against a newer table (pull or peer push); the next
		// probe round re-evaluates against it.
		n.cfg.Logf("cluster: node %d: adopting own reassignment failed: %v", self, err)
		return
	}
	n.failovers.Add(1)
	for id := range suspected {
		delete(misses, id)
	}
	n.pushTable(cur)
}

// stewardAdmissions is the steward's membership upkeep each probe round:
// joining members that answered this round's probe are promoted to live
// (the planner then fills them), and down members that answered rejoinAfter
// consecutive probes rejoin as live with no partitions instead of staying
// down-sticky. Non-stewards return the table unchanged.
func (n *Node) stewardAdmissions(t Table, oks map[int]bool, recovers map[int]int) Table {
	st, ok := t.Steward()
	if !ok || st.ID != n.cfg.NodeID {
		return t
	}
	now := n.cfg.Clock().UnixMilli()
	cur, changed := t, false
	for _, m := range t.Members {
		switch m.EffectiveState() {
		case StateJoining:
			if !oks[m.ID] {
				continue
			}
			nt, ok := cur.SetState(m.ID, StateLive, now)
			if !ok {
				continue
			}
			n.events.Eventf(trace.EvMemberJoin, nt.Epoch, -1, "probe_ok",
				"member %d answered probes; joining -> live, epoch %d -> %d", m.ID, cur.Epoch, nt.Epoch)
			cur, changed = nt, true
		case StateDown:
			if recovers[m.ID] < rejoinAfter {
				continue
			}
			nt, ok := cur.Rejoin(m.ID, now)
			if !ok {
				continue
			}
			n.events.Eventf(trace.EvMemberRejoin, nt.Epoch, -1, "probe_recovered",
				"member %d answered %d probes; rejoining live with no partitions, epoch %d -> %d",
				m.ID, recovers[m.ID], cur.Epoch, nt.Epoch)
			cur, changed = nt, true
			delete(recovers, m.ID)
		}
	}
	if !changed {
		return t
	}
	if err := n.adoptTable(cur, "member_update"); err != nil {
		// Lost a race against a newer table; re-evaluate next round.
		n.cfg.Logf("cluster: node %d: adopting admission table failed: %v", n.cfg.NodeID, err)
		return n.Table()
	}
	n.pushTable(cur)
	return cur
}

// pushTable POSTs the table to every other member, including suspects (a
// falsely suspected node learns it lost its partitions and self-fences).
// Best-effort and concurrent: the epoch gate makes duplicate or reordered
// pushes harmless. A closed node pushes nothing, and shutdown waits for the
// pushes in flight, so none outlives Close or Kill.
func (n *Node) pushTable(t Table) {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if n.closed.Load() {
		return
	}
	for _, m := range t.Members {
		if m.ID == n.cfg.NodeID {
			continue
		}
		n.pushes.Add(1)
		go func(addr string) {
			defer n.pushes.Done()
			n.tablePushes.Add(1)
			var reply EpochResponse
			if _, _, err := server.PostJSON(peerClient, addr+"/cluster", nil, t, &reply, &reply); err != nil {
				n.cfg.Logf("cluster: node %d: push epoch %d to %s failed: %v", n.cfg.NodeID, t.Epoch, addr, err)
			}
		}(m.Addr)
	}
}

// pullFrom fetches one peer's table and adopts it if newer.
func (n *Node) pullFrom(addr string) {
	var t Table
	if status, err := server.GetJSON(peerClient, addr+"/cluster", &t); err != nil || status/100 != 2 {
		return
	}
	if err := n.adoptTable(t, "anti_entropy_pull"); err == nil {
		n.tablePulls.Add(1)
		n.cfg.Logf("cluster: node %d: pulled table epoch %d from %s", n.cfg.NodeID, t.Epoch, addr)
	}
}

// suspectSet renders a suspicion map as a sorted member-ID list — the vote
// set a failover decision journals.
func suspectSet(suspected map[int]bool) []int {
	ids := make([]int, 0, len(suspected))
	for id := range suspected {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// pullFromPeers tries every live peer until one yields a newer table.
func (n *Node) pullFromPeers() {
	t := n.Table()
	for _, m := range t.Members {
		if m.ID == n.cfg.NodeID || m.Down {
			continue
		}
		before := n.Epoch()
		n.pullFrom(m.Addr)
		if n.Epoch() > before {
			return
		}
	}
}
