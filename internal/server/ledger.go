package server

// The one statement of the lease contract, checked by every verified load
// run: RunLoad against one service, the cluster's RunChaos across members
// that die, restart and hand partitions over. The contract is the paper's
// long-lived renaming contract carried over a network: no two live holders
// share a name, a name comes back only once its previous lease has ended,
// every acknowledged deadline is the one asked for, a name's fencing tokens
// only grow, and a dead token is fenced out once its lease is reclaimed.
//
// The ledger assumes the client's and the servers' clocks agree: every
// bound mixes the client's send times with the servers' stated deadlines.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ContractReport is the part of a verified run's report that RunLoad's
// LoadReport and RunChaos's ChaosReport share: the traffic mix, the timed
// window, the acquire latencies and the ledger's verdict.
type ContractReport struct {
	Acquires    uint64        `json:"acquires"`
	Renews      uint64        `json:"renews"`
	Releases    uint64        `json:"releases"`
	Crashes     uint64        `json:"crashes"`
	FullRetries uint64        `json:"full_retries"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	// WindowOps counts the verified operations completed inside Elapsed:
	// the fencing probes and post-run probes that finish after the last
	// client are left out, so Throughput divides like by like.
	WindowOps uint64 `json:"window_ops"`

	AcquireP50 time.Duration `json:"acquire_p50_ns"`
	AcquireP90 time.Duration `json:"acquire_p90_ns"`
	AcquireP99 time.Duration `json:"acquire_p99_ns"`
	AcquireMax time.Duration `json:"acquire_max_ns"`

	// StaleRejected counts fencing probes correctly bounced: a renew and a
	// release with every abandoned or orphaned token, once its lease's
	// reclaim deadline has passed.
	StaleRejected uint64 `json:"stale_rejected"`
	// HolderLapses counts sessions whose lease expired under a holder that
	// outslept its own TTL: the name's reissue at or after the lease's
	// bound, and the holder's fenced renew or release, are the contract
	// working. Each lapsed session counts once.
	HolderLapses uint64 `json:"holder_lapses"`
	// KilledSessions counts operations on leases that died with their node:
	// expected collateral, verified to be fenced, never a violation.
	KilledSessions uint64 `json:"killed_sessions"`

	// Violations.
	DuplicateNames  uint64 `json:"duplicate_names"`
	EarlyReissues   uint64 `json:"early_reissues"`
	LostReleases    uint64 `json:"lost_releases"`
	UnexpectedStale uint64 `json:"unexpected_stale"`
	StaleAccepted   uint64 `json:"stale_accepted"`
	// ShortDeadlines counts acknowledged grants and renews, single or
	// batch, whose stated deadline falls short of send time + TTL (less
	// 1ms of millisecond truncation), and renews that moved a deadline back.
	ShortDeadlines uint64 `json:"short_deadlines"`
	// TokenRegressions counts grants whose fencing token is not larger than
	// the last token granted for the same name.
	TokenRegressions uint64 `json:"token_regressions"`
	// Undrained counts leases still active after every deadline passed.
	Undrained int64 `json:"undrained"`
}

// Ops returns the total number of verified operations (acquires + renews +
// releases + fencing probes).
func (r ContractReport) Ops() uint64 {
	return r.Acquires + r.Renews + r.Releases + r.StaleRejected
}

// Throughput returns the verified operations per second completed inside
// the timed window.
func (r ContractReport) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.WindowOps) / r.Elapsed.Seconds()
}

// Violations lists every broken lease-contract invariant, or nil.
func (r ContractReport) Violations() []string {
	var v []string
	add := func(n uint64, format string) {
		if n > 0 {
			v = append(v, fmt.Sprintf(format, n))
		}
	}
	add(r.DuplicateNames, "%d duplicate names among concurrently held leases")
	add(r.EarlyReissues, "%d names reissued before the previous lease's bound")
	add(r.LostReleases, "%d releases of live leases rejected (lost release)")
	add(r.UnexpectedStale, "%d live renews rejected as stale")
	add(r.StaleAccepted, "%d stale-token operations accepted after the reclaim deadline")
	add(r.ShortDeadlines, "%d grants or renews acknowledged with a deadline short of send time + TTL")
	add(r.TokenRegressions, "%d grants whose fencing token did not exceed the name's previous token")
	if r.Undrained != 0 {
		v = append(v, fmt.Sprintf("%d leases still active after every deadline passed", r.Undrained))
	}
	return v
}

// session is one lease. Names recycle and every partition's manager mints
// tokens from its own sequence, so only the pair is unique.
type session struct {
	name  int
	token uint64
}

// heldLease is the ledger's record of a lease some client holds. node is
// the granting (or last-renewing) member, advisory only, since a live
// migration can move the lease to a new owner behind the holder's back;
// partition is authoritative, since a name's partition never changes, only
// the partition's owner does.
type heldLease struct {
	token     uint64
	node      int
	partition int
	deadline  time.Time // the server's statement at the grant or last renew
	bound     time.Time // reissue bound: the later of deadline and send time + TTL
}

// endedLease is a lease that ended without a release, abandoned by a crash
// or orphaned by a kill: its name may be granted again from bound on.
type endedLease struct {
	bound  time.Time
	orphan bool // orphaned by a kill and not yet seen reissued or free
}

// fate is why a session's fenced renew or release is expected.
type fate uint8

const (
	lapsed fate = iota + 1 // the lease expired under its holder
	killed                 // the lease died with its node
)

// killSpan is one kill, from the moment the node died to its resolution.
type killSpan struct{ from, to time.Time }

// probe is one dead token, to be fenced from at on.
type probe struct {
	session
	at time.Time
}

// Ledger is the shared verification state of one run. One mutex guards it
// all: operations are network-paced, so contention is negligible.
type Ledger struct {
	ttl     time.Duration
	reclaim time.Duration // expirer ticks + slack a reclaim may take past a bound

	mu        sync.Mutex
	held      map[int]heldLease
	ended     map[int]endedLease
	lastToken map[int]uint64
	excused   map[session]fate
	// killed holds the nodes whose kill has failed over and been swept;
	// dying the nodes killed before that, with when the kill began: a
	// client can reach an adopter, and have a dead lease rejected, before
	// the sweep runs, so those sessions may fail already, while their held
	// records wait for it. resumed holds the span of each node's last kill
	// that its own restart resolved (see Resumed).
	killed  map[int]bool
	dying   map[int]time.Time
	resumed map[int]killSpan
	// queue holds the dead tokens awaiting their fencing probe: at most one
	// per abandoned or orphaned lease, so it never needs to drop one.
	queue       []probe
	queueClosed bool
	queued      *sync.Cond
	reclaimBy   time.Time // the latest probe time queued

	acquires, renews, releases, crashes, fullRetries atomic.Uint64
	staleRejected, holderLapses, killedSessions      atomic.Uint64
	duplicates, earlyReissues, lostReleases          atomic.Uint64
	unexpectedStale, staleAccepted                   atomic.Uint64
	shortDeadlines, tokenRegressions                 atomic.Uint64
	orphanEvents, orphansReissued, orphansFree       atomic.Uint64
}

// newLedger builds the ledger of a run whose leases ask for ttl, on servers
// that reclaim an ended lease within reclaim of its bound.
func newLedger(ttl, reclaim time.Duration) *Ledger {
	l := &Ledger{
		ttl:       ttl,
		reclaim:   reclaim,
		held:      make(map[int]heldLease),
		ended:     make(map[int]endedLease),
		lastToken: make(map[int]uint64),
		excused:   make(map[session]fate),
		killed:    make(map[int]bool),
		dying:     make(map[int]time.Time),
		resumed:   make(map[int]killSpan),
	}
	l.queued = sync.NewCond(&l.mu)
	return l
}

// short reports whether an acknowledged deadline falls short of what a
// request sent at sent asked for.
func (l *Ledger) short(deadlineMillis int64, sent time.Time) bool {
	return deadlineMillis < sent.Add(l.ttl).UnixMilli()-1
}

// bound is the reissue bound of a lease the server says ends at deadline,
// asked for at sent.
func (l *Ledger) bound(deadline, sent time.Time) time.Time {
	return later(deadline, sent.Add(l.ttl))
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// Grant classifies a fresh grant, whose request was sent at sent and whose
// response arrived at now, against everything the ledger knows, then
// records it as held: a reissue before the previous lease's bound is early;
// a reissue of a lease some client still holds is a duplicate before its
// bound, a holder lapse at or after it, and an orphan reissue when the
// holder's node is known killed.
func (l *Ledger) Grant(g GrantResponse, sent, now time.Time) {
	l.acquires.Add(1)
	if l.short(g.DeadlineUnixMillis, sent) {
		l.shortDeadlines.Add(1)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if last, ok := l.lastToken[g.Name]; ok && g.Token <= last {
		l.tokenRegressions.Add(1)
	}
	l.lastToken[g.Name] = g.Token
	if old, ok := l.held[g.Name]; ok {
		switch {
		case l.killed[old.node]:
			// The lease died with its node but the kill sweep missed it.
			l.orphanEvents.Add(1)
			l.orphansReissued.Add(1)
			l.excused[session{g.Name, old.token}] = killed
			if now.Before(old.bound) {
				l.earlyReissues.Add(1)
			}
		case !now.Before(old.bound):
			l.excused[session{g.Name, old.token}] = lapsed
			l.holderLapses.Add(1)
		default:
			l.duplicates.Add(1)
		}
	} else if e, ok := l.ended[g.Name]; ok {
		if now.Before(e.bound) {
			l.earlyReissues.Add(1)
		}
		if e.orphan {
			l.orphansReissued.Add(1)
		}
		delete(l.ended, g.Name)
	}
	deadline := time.UnixMilli(g.DeadlineUnixMillis)
	l.held[g.Name] = heldLease{token: g.Token, node: g.NodeID, partition: g.Partition,
		deadline: deadline, bound: l.bound(deadline, sent)}
}

// renewed installs an acknowledged renew of s sent at sent, and refreshes
// the node attribution: the answer names the current owner, which a
// migration may have moved since the grant.
func (l *Ledger) renewed(s session, sent time.Time, r GrantResponse) {
	l.renews.Add(1)
	short := l.short(r.DeadlineUnixMillis, sent)
	l.mu.Lock()
	if h, ok := l.held[s.name]; ok && h.token == s.token {
		deadline := time.UnixMilli(r.DeadlineUnixMillis)
		short = short || deadline.Before(h.deadline)
		h.deadline, h.bound, h.node = deadline, l.bound(deadline, sent), r.NodeID
		l.held[s.name] = h
	}
	l.mu.Unlock()
	if short {
		l.shortDeadlines.Add(1)
	}
}

// abandon records a crash: the holder walks away from s, whose name may be
// granted again from its bound on, and whose token is fenced once the
// server has had its reclaim allowance past the bound. A lease a kill sweep
// or an observed lapse already ended is no crash.
func (l *Ledger) abandon(s session) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h, ok := l.held[s.name]
	if !ok || h.token != s.token {
		return
	}
	delete(l.held, s.name)
	l.ended[s.name] = endedLease{bound: h.bound}
	l.crashes.Add(1)
	l.enqueue(s, h.bound.Add(l.reclaim))
}

// beginRelease takes s out of the held set before its release is sent: the
// server frees the name at some instant inside the exchange, and another
// client may legitimately be granted it before the answer comes back.
func (l *Ledger) beginRelease(s session) (heldLease, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h, ok := l.held[s.name]
	if !ok || h.token != s.token {
		return heldLease{}, false
	}
	delete(l.held, s.name)
	return h, true
}

// excuse explains a rejected or failed renew or release of s, sent at sent
// and answered at now, counting the explanation: true when the lease had
// died with its node, the operation was in flight across a kill of its
// node, or the lease lapsed under its holder; false when nothing explains
// it, a violation the caller counts. taken is the record beginRelease
// removed, when it did.
func (l *Ledger) excuse(s session, taken *heldLease, sent, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch l.excused[s] {
	case killed:
		l.killedSessions.Add(1)
		return true
	case lapsed:
		return true
	}
	h, ok := l.held[s.name]
	if taken != nil {
		h, ok = *taken, true
	} else if !ok || h.token != s.token {
		return false
	}
	_, dying := l.dying[h.node]
	resumed := l.resumed[h.node]
	switch {
	case l.killed[h.node]:
		if taken == nil {
			delete(l.held, s.name)
		}
		l.killedSessions.Add(1)
		return true
	case dying:
		l.killedSessions.Add(1) // the kill sweep turns the record into an orphan
		return true
	case sent.Before(resumed.to) && now.After(resumed.from):
		// The node may have applied the first attempt before it died, and
		// answers the client's retry after its restart from the journal:
		// a release already done is not leased any more.
		l.killedSessions.Add(1)
		return true
	case !now.Before(h.bound):
		if taken == nil {
			delete(l.held, s.name)
		}
		l.excused[s] = lapsed
		l.holderLapses.Add(1)
		return true
	}
	return false
}

// Dying records that victim is about to be killed: its sessions may fail
// from now on.
func (l *Ledger) Dying(victim int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dying[victim] = time.Now()
}

// Resumed records that victim's kill resolved without a failover: the
// victim restarted before the survivors bumped the epoch and resumed its
// partitions from its journal, every acknowledged lease intact. Its leases
// stay held and no fencing probe is queued. Its sessions' rejections count
// again, except those of an operation in flight across the kill, which the
// victim may have applied before it died.
func (l *Ledger) Resumed(victim int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.resumed[victim] = killSpan{from: l.dying[victim], to: time.Now()}
	delete(l.dying, victim)
}

// Orphan ends every held lease on parts, the partitions victim owned when
// it died; its kill failed over at bumpAt. Each name may be granted again
// from its lease's bound on, and each dead token is fenced once TTL plus
// the reclaim allowance has passed since the bump. The sweep keys on the
// victim's partitions, not on which node granted the lease: a lease granted
// elsewhere and migrated onto the victim died with it, while one migrated
// off the victim before the kill lives on at its new owner.
func (l *Ledger) Orphan(victim int, parts []int, bumpAt time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.killed[victim] = true
	at := bumpAt.Add(l.ttl + l.reclaim)
	for name, h := range l.held {
		if !slices.Contains(parts, h.partition) {
			continue
		}
		s := session{name, h.token}
		delete(l.held, name)
		l.ended[name] = endedLease{bound: h.bound, orphan: true}
		l.excused[s] = killed
		l.orphanEvents.Add(1)
		l.enqueue(s, at)
	}
}

// Orphans returns the orphaned names never seen reissued or free.
func (l *Ledger) Orphans() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int
	for name, e := range l.ended {
		if e.orphan {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// OrphanFree records that an orphaned name was verified free (absent from
// its owner's registered set after the reclaim deadline).
func (l *Ledger) OrphanFree(name int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.ended[name]; e.orphan {
		e.orphan = false
		l.ended[name] = e
		l.orphansFree.Add(1)
	}
}

// OrphanTally counts the orphans: every lease that died with its node, the
// ones seen reissued, the ones verified free, and the ones neither (leaked).
func (l *Ledger) OrphanTally() (events, reissued, free, leaked int) {
	return int(l.orphanEvents.Load()), int(l.orphansReissued.Load()), int(l.orphansFree.Load()), len(l.Orphans())
}

// enqueue queues s for its fencing probe at at; l.mu must be held.
func (l *Ledger) enqueue(s session, at time.Time) {
	l.queue = append(l.queue, probe{s, at})
	l.reclaimBy = later(l.reclaimBy, at)
	l.queued.Signal()
}

// nextProbe blocks until a dead token is queued, or returns false once the
// queue is closed and empty.
func (l *Ledger) nextProbe() (probe, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) == 0 && !l.queueClosed {
		l.queued.Wait()
	}
	if len(l.queue) == 0 {
		return probe{}, false
	}
	p := l.queue[0]
	l.queue = l.queue[1:]
	return p, true
}

// closeQueue lets the probers finish the queued tokens and exit.
func (l *Ledger) closeQueue() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queueClosed = true
	l.queued.Broadcast()
}

// fenced counts one fencing probe's answer; a transport error proves
// nothing either way.
func (l *Ledger) fenced(status int, err error) {
	switch {
	case err != nil:
	case status/100 == 2:
		l.staleAccepted.Add(1)
	default:
		l.staleRejected.Add(1)
	}
}

// WaitReclaimed sleeps until every ended lease's reclaim deadline has
// passed, so drain checks and post-run probes measure obligations, not
// races.
func (l *Ledger) WaitReclaimed() {
	l.mu.Lock()
	until := l.reclaimBy
	l.mu.Unlock()
	if wait := time.Until(until); wait > 0 {
		time.Sleep(wait)
	}
}
