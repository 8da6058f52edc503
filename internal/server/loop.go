package server

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray/internal/rng"
)

// LeaseOps is the one lease-op signature a closed-loop run drives: the HTTP
// Client, the WireClient and the routed cluster client implement it with
// identical statuses and TTL encoding. On a 503, Acquire's duration carries
// the server's retry pacing.
type LeaseOps interface {
	Acquire(ttlMillis int64) (GrantResponse, int, time.Duration, error)
	Renew(name int, token uint64, ttlMillis int64) (GrantResponse, int, error)
	Release(name int, token uint64) (int, error)
}

// BatchLeaseAPI extends LeaseOps with the batch operations of the wire
// protocol; a run with Batch > 0 requires it.
type BatchLeaseAPI interface {
	LeaseOps
	AcquireBatch(n int, ttlMillis int64, dst []GrantResponse) ([]GrantResponse, int, time.Duration, error)
	RenewSession(refs []LeaseRef, ttlMillis int64, dst []RenewResult) ([]RenewResult, int, error)
	ReleaseBatch(refs []LeaseRef, dst []RenewResult) ([]RenewResult, int, error)
}

// LoopConfig parameterizes one closed-loop run; RunLoad and RunChaos fill
// it from their own configs, whose fields document the values.
type LoopConfig struct {
	Ops          LeaseOps
	Batch        int
	Clients      int
	Acquires     int64
	TTL          time.Duration
	HoldMean     time.Duration
	CrashPercent int
	RenewPercent int
	Seed         uint64
	// Tick is the servers' expirer tick: an ended lease is reclaimed within
	// two ticks plus ReclaimSlack of its bound.
	Tick         time.Duration
	ReclaimSlack time.Duration
}

// Loop is the one closed-loop load driver behind RunLoad and RunChaos:
// concurrent clients acquire (pacing 503s), hold, maybe renew, then release
// or crash, every step judged by the embedded Ledger, while four probers
// fence every dead token once its reclaim deadline has passed. Build it
// with NewLoop, drive it with Run, and Close it before reading its Report.
type Loop struct {
	*Ledger
	cfg   LoopConfig
	batch BatchLeaseAPI

	latMu     sync.Mutex
	latencies []time.Duration
	elapsed   time.Duration
	windowOps uint64
	probers   sync.WaitGroup
}

// NewLoop builds a run and starts its probers.
func NewLoop(cfg LoopConfig) (*Loop, error) {
	lp := &Loop{Ledger: newLedger(cfg.TTL, 2*cfg.Tick+cfg.ReclaimSlack), cfg: cfg}
	if cfg.Batch > 0 {
		b, ok := cfg.Ops.(BatchLeaseAPI)
		if !ok {
			return nil, fmt.Errorf("batch mode needs a batch-capable API (wire protocol)")
		}
		lp.batch = b
	}
	for i := 0; i < 4; i++ {
		lp.probers.Add(1)
		go lp.prober()
	}
	return lp, nil
}

// prober fences dead tokens: once a lease's reclaim deadline has passed, a
// renew and a release with its token must both be rejected.
func (lp *Loop) prober() {
	defer lp.probers.Done()
	for p, ok := lp.nextProbe(); ok; p, ok = lp.nextProbe() {
		if wait := time.Until(p.at); wait > 0 {
			time.Sleep(wait)
		}
		_, status, err := lp.cfg.Ops.Renew(p.name, p.token, lp.cfg.TTL.Milliseconds())
		lp.fenced(status, err)
		status, err = lp.cfg.Ops.Release(p.name, p.token)
		lp.fenced(status, err)
	}
}

// Close waits for the probers to fence every queued token.
func (lp *Loop) Close() {
	lp.closeQueue()
	lp.probers.Wait()
}

// Run drives the clients until the acquire budget is spent, then on until
// outlast is closed (at once when outlast is nil), and returns the first
// operation error. The run's timed window ends with its last client.
func (lp *Loop) Run(outlast <-chan struct{}) error {
	var (
		remaining atomic.Int64
		failed    atomic.Bool
		errOnce   sync.Once
		runErr    error
		wg        sync.WaitGroup
	)
	remaining.Store(lp.cfg.Acquires)
	want := max(lp.cfg.Batch, 1)
	// take returns how many leases the next round acquires, 0 to stop.
	take := func() int {
		if failed.Load() {
			return 0
		}
		left := remaining.Add(-int64(want))
		if left >= 0 {
			return want
		}
		if n := want + int(left); n > 0 {
			return n // the budget's partial tail
		}
		if outlast == nil {
			return 0
		}
		select {
		case <-outlast:
			return 0
		default:
			return want
		}
	}
	start := time.Now()
	for c := 0; c < lp.cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			gen := rng.New(rng.KindSplitMix, lp.cfg.Seed+uint64(id)*0x9E3779B97F4A7C15+1)
			for n := take(); n > 0; n = take() {
				var err error
				if lp.batch != nil {
					err = lp.batchRound(n, gen)
				} else {
					err = lp.round(gen)
				}
				if err != nil {
					errOnce.Do(func() { runErr = err })
					failed.Store(true)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	lp.elapsed = time.Since(start)
	lp.windowOps = lp.acquires.Load() + lp.renews.Load() + lp.releases.Load() + lp.staleRejected.Load()
	return runErr
}

// Report fills the shared report core; call it after Close, once every
// fencing probe has landed.
func (lp *Loop) Report() ContractReport {
	lp.latMu.Lock()
	defer lp.latMu.Unlock()
	slices.Sort(lp.latencies)
	r := ContractReport{
		Acquires:         lp.acquires.Load(),
		Renews:           lp.renews.Load(),
		Releases:         lp.releases.Load(),
		Crashes:          lp.crashes.Load(),
		FullRetries:      lp.fullRetries.Load(),
		Elapsed:          lp.elapsed,
		WindowOps:        lp.windowOps,
		AcquireP50:       percentile(lp.latencies, 0.50),
		AcquireP90:       percentile(lp.latencies, 0.90),
		AcquireP99:       percentile(lp.latencies, 0.99),
		StaleRejected:    lp.staleRejected.Load(),
		HolderLapses:     lp.holderLapses.Load(),
		KilledSessions:   lp.killedSessions.Load(),
		DuplicateNames:   lp.duplicates.Load(),
		EarlyReissues:    lp.earlyReissues.Load(),
		LostReleases:     lp.lostReleases.Load(),
		UnexpectedStale:  lp.unexpectedStale.Load(),
		StaleAccepted:    lp.staleAccepted.Load(),
		ShortDeadlines:   lp.shortDeadlines.Load(),
		TokenRegressions: lp.tokenRegressions.Load(),
	}
	if n := len(lp.latencies); n > 0 {
		r.AcquireMax = lp.latencies[n-1]
	}
	return r
}

// acquired records one successful acquire's latency.
func (lp *Loop) acquired(sent time.Time) {
	lat := time.Since(sent)
	lp.latMu.Lock()
	lp.latencies = append(lp.latencies, lat)
	lp.latMu.Unlock()
}

// backoff paces a 503: the namespace is exhausted by not-yet-expired
// abandoned leases (or a partition is still warming), so wait for the
// server's retry hint, one expirer tick when it sent none, and saturated
// runs measure service time, not spin.
func (lp *Loop) backoff(hint time.Duration) {
	lp.fullRetries.Add(1)
	if hint <= 0 {
		hint = lp.cfg.Tick
	}
	time.Sleep(hint)
}

// draw reports whether a percent-probability event happens.
func draw(gen rng.Source, percent int) bool {
	return percent > 0 && gen.Intn(100) < percent
}

// round is one closed-loop iteration: acquire, hold, maybe renew, then
// crash or release.
func (lp *Loop) round(gen rng.Source) error {
	ttl := lp.cfg.TTL.Milliseconds()
	var (
		g    GrantResponse
		sent time.Time
	)
	for {
		sent = time.Now()
		var (
			status int
			hint   time.Duration
			err    error
		)
		g, status, hint, err = lp.cfg.Ops.Acquire(ttl)
		if err != nil {
			return fmt.Errorf("acquire: %w", err)
		}
		if status/100 == 2 {
			break
		}
		if status != http.StatusServiceUnavailable {
			return fmt.Errorf("acquire returned status %d", status)
		}
		lp.backoff(hint)
	}
	lp.acquired(sent)
	lp.Grant(g, sent, time.Now())
	s := session{g.Name, g.Token}

	hold(lp.cfg.HoldMean, gen)
	if draw(gen, lp.cfg.RenewPercent) {
		sent := time.Now()
		r, status, err := lp.cfg.Ops.Renew(g.Name, g.Token, ttl)
		switch {
		case err == nil && status/100 == 2:
			lp.renewed(s, sent, r)
		case lp.excuse(s, nil, sent, time.Now()):
			return nil
		case err != nil:
			return fmt.Errorf("renew: %w", err)
		default:
			lp.unexpectedStale.Add(1)
		}
		hold(lp.cfg.HoldMean, gen)
	}

	if draw(gen, lp.cfg.CrashPercent) {
		lp.abandon(s)
		return nil
	}
	return lp.Release(g.Name, g.Token)
}

// Release frees a held lease through the run's ops and judges the answer: a
// rejected release is excused only when the lease had died with its node
// or lapsed under its holder, and is a lost release otherwise.
func (lp *Loop) Release(name int, token uint64) error {
	s := session{name, token}
	h, ok := lp.beginRelease(s)
	if !ok {
		// A kill sweep or an observed lapse took the lease from under us.
		now := time.Now()
		lp.excuse(s, nil, now, now)
		return nil
	}
	sent := time.Now()
	status, err := lp.cfg.Ops.Release(name, token)
	switch {
	case err == nil && status/100 == 2:
		lp.releases.Add(1)
	case lp.excuse(s, &h, sent, time.Now()):
	case err != nil:
		return fmt.Errorf("release: %w", err)
	default:
		lp.lostReleases.Add(1)
	}
	return nil
}

// batchRound is one closed-loop batch iteration over n leases: one
// AcquireN, one bulk renew covering the whole set, a per-lease crash draw,
// then one batch release of the survivors.
func (lp *Loop) batchRound(n int, gen rng.Source) error {
	ttl := lp.cfg.TTL.Milliseconds()
	var (
		batch []GrantResponse
		sent  time.Time
	)
	for {
		sent = time.Now()
		var (
			status int
			hint   time.Duration
			err    error
		)
		batch, status, hint, err = lp.batch.AcquireBatch(n, ttl, batch[:0])
		if err != nil {
			return fmt.Errorf("batch acquire: %w", err)
		}
		if status/100 == 2 {
			break
		}
		if status != http.StatusServiceUnavailable {
			return fmt.Errorf("batch acquire returned status %d", status)
		}
		lp.backoff(hint)
	}
	lp.acquired(sent)
	now := time.Now()
	refs := make([]LeaseRef, 0, len(batch))
	for _, g := range batch {
		lp.Grant(g, sent, now)
		refs = append(refs, LeaseRef{Name: g.Name, Token: g.Token})
	}

	hold(lp.cfg.HoldMean, gen)
	if draw(gen, lp.cfg.RenewPercent) {
		sent := time.Now()
		results, status, err := lp.batch.RenewSession(refs, ttl, nil)
		if err != nil {
			return fmt.Errorf("batch renew: %w", err)
		}
		whole := status/100 == 2 && len(results) == len(refs)
		for i, ref := range refs {
			s := session{ref.Name, ref.Token}
			if whole && results[i].Status/100 == 2 {
				lp.renewed(s, sent, GrantResponse{Name: ref.Name, Token: ref.Token, DeadlineUnixMillis: results[i].DeadlineUnixMillis})
			} else if !lp.excuse(s, nil, sent, time.Now()) {
				lp.unexpectedStale.Add(1)
			}
		}
		hold(lp.cfg.HoldMean, gen)
	}

	release := make([]LeaseRef, 0, len(refs))
	taken := make([]heldLease, 0, len(refs))
	for _, ref := range refs {
		s := session{ref.Name, ref.Token}
		if draw(gen, lp.cfg.CrashPercent) {
			lp.abandon(s)
			continue
		}
		h, ok := lp.beginRelease(s)
		if !ok {
			now := time.Now()
			lp.excuse(s, nil, now, now)
			continue
		}
		release = append(release, ref)
		taken = append(taken, h)
	}
	if len(release) == 0 {
		return nil
	}
	relSent := time.Now()
	results, status, err := lp.batch.ReleaseBatch(release, nil)
	if err != nil {
		return fmt.Errorf("batch release: %w", err)
	}
	whole := status/100 == 2 && len(results) == len(release)
	for i, ref := range release {
		if whole && results[i].Status/100 == 2 {
			lp.releases.Add(1)
		} else if !lp.excuse(session{ref.Name, ref.Token}, &taken[i], relSent, time.Now()) {
			lp.lostReleases.Add(1)
		}
	}
	return nil
}

// hold sleeps for an exponential draw with the given mean, capped at 10x:
// one closed-loop client's hold time.
func hold(mean time.Duration, gen rng.Source) {
	if mean <= 0 {
		return
	}
	u := float64(gen.Uint64()>>11) / float64(1<<53)
	time.Sleep(min(time.Duration(-float64(mean)*math.Log(1-u)), 10*mean))
}

// percentile returns the q-quantile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
