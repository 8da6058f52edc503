package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/levelarray/levelarray/internal/rng"
	"github.com/levelarray/levelarray/internal/wire"
)

// LeaseAPI is the protocol-neutral client surface a load run drives: the
// HTTP Client and the wire-protocol WireClient both implement it with
// identical status and TTL semantics, so the same closed-loop verification
// applies to either protocol.
type LeaseAPI interface {
	Acquire(ttlMillis int64) (LeaseResponse, int, time.Duration, error)
	Renew(name int, token uint64, ttlMillis int64) (LeaseResponse, int, error)
	Release(name int, token uint64) (int, error)
	Stats() (StatsResponse, error)
}

// BatchLeaseAPI extends LeaseAPI with the batch operations of the wire
// protocol; a load run with Batch > 0 requires it.
type BatchLeaseAPI interface {
	LeaseAPI
	AcquireBatch(n int, ttlMillis int64, dst []LeaseResponse) ([]LeaseResponse, int, time.Duration, error)
	RenewSession(refs []LeaseRef, ttlMillis int64, dst []RenewResult) ([]RenewResult, int, error)
	ReleaseBatch(refs []LeaseRef, dst []RenewResult) ([]RenewResult, int, error)
}

// wireCounted is implemented by APIs backed by a pooled wire client; the
// load report uses it for syscall-efficiency stats.
type wireCounted interface {
	WireCounters() wire.Counters
}

// Client is a minimal JSON client for the lease API, safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for the service at base (e.g.
// "http://127.0.0.1:8080"). A nil hc selects a transport tuned for many
// concurrent loopback connections.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 0
		tr.MaxIdleConnsPerHost = 1024
		hc = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	return &Client{base: base, hc: hc}
}

// post sends one JSON request and decodes the response into out (on 2xx) or
// an ErrorResponse (otherwise). It returns the HTTP status and headers.
func (c *Client) post(path string, in, out any) (int, http.Header, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 == 2 && out != nil {
		return resp.StatusCode, resp.Header, json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, resp.Header, nil
}

// Acquire requests a lease; see AcquireRequest.TTLMillis for the encoding.
// On a 503 the returned duration carries the server's Retry-After pacing
// hint (zero otherwise, or when the server sent none).
func (c *Client) Acquire(ttlMillis int64) (LeaseResponse, int, time.Duration, error) {
	var l LeaseResponse
	status, header, err := c.post("/acquire", AcquireRequest{TTLMillis: ttlMillis}, &l)
	var hint time.Duration
	if status == http.StatusServiceUnavailable {
		hint = RetryAfterHint(header, 0)
	}
	return l, status, hint, err
}

// Renew extends a lease.
func (c *Client) Renew(name int, token uint64, ttlMillis int64) (LeaseResponse, int, error) {
	var l LeaseResponse
	status, _, err := c.post("/renew", RenewRequest{Name: name, Token: token, TTLMillis: ttlMillis}, &l)
	return l, status, err
}

// Release frees a lease.
func (c *Client) Release(name int, token uint64) (int, error) {
	status, _, err := c.post("/release", ReleaseRequest{Name: name, Token: token}, nil)
	return status, err
}

// Stats fetches the service statistics.
func (c *Client) Stats() (StatsResponse, error) {
	resp, err := c.hc.Get(c.base + "/stats")
	if err != nil {
		return StatsResponse{}, err
	}
	defer resp.Body.Close()
	var s StatsResponse
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// LoadConfig parameterizes one closed-loop load run against a lease service.
type LoadConfig struct {
	// BaseURL is the service address, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// API, when non-nil, overrides BaseURL with an explicit client — the way
	// a run is pointed at the wire protocol (or any future transport).
	API LeaseAPI
	// Batch, when > 0, switches the clients to batch rounds of that size:
	// one AcquireN per round, one bulk renew covering the whole set, then a
	// batch release of the non-crashed remainder. Requires an API
	// implementing BatchLeaseAPI. Bounded by wire.MaxBatch.
	Batch int
	// Clients is the number of concurrent closed-loop clients. Zero selects 16.
	Clients int
	// Acquires is the total number of acquire operations to perform across
	// all clients (renews and releases come on top). Zero selects 10000.
	Acquires int64
	// TTL is the lease TTL requested by every acquire. Zero selects 2s. It
	// should be comfortably longer than HoldMean so live leases never expire
	// mid-hold.
	TTL time.Duration
	// HoldMean is the mean of the exponential hold-time distribution between
	// acquire and release; zero holds for no time at all. Draws are capped
	// at 10x the mean.
	HoldMean time.Duration
	// CrashPercent is the percentage (0..100) of leases abandoned without
	// release, exercising server-side expiry.
	CrashPercent int
	// RenewPercent is the percentage (0..100) of held leases renewed once
	// mid-hold.
	RenewPercent int
	// Seed is the base seed for the per-client generators.
	Seed uint64
	// HTTPClient overrides the shared HTTP client; nil selects NewClient's
	// default loopback transport.
	HTTPClient *http.Client
	// ReclaimSlack pads the expiry-verification wait beyond the contractual
	// deadline + 2 expirer ticks, absorbing HTTP and scheduler latency.
	// Zero selects 500ms.
	ReclaimSlack time.Duration
}

func (c LoadConfig) withDefaults() (LoadConfig, error) {
	if c.BaseURL == "" && c.API == nil {
		return c, fmt.Errorf("loadgen: BaseURL or API must be set")
	}
	if c.Batch < 0 || c.Batch > wire.MaxBatch {
		return c, fmt.Errorf("loadgen: batch size %d outside 0..%d", c.Batch, wire.MaxBatch)
	}
	if c.Clients <= 0 {
		c.Clients = 16
	}
	if c.Acquires <= 0 {
		c.Acquires = 10000
	}
	if c.TTL <= 0 {
		c.TTL = 2 * time.Second
	}
	if c.CrashPercent < 0 || c.CrashPercent > 100 {
		return c, fmt.Errorf("loadgen: crash percent %d outside 0..100", c.CrashPercent)
	}
	if c.RenewPercent < 0 || c.RenewPercent > 100 {
		return c, fmt.Errorf("loadgen: renew percent %d outside 0..100", c.RenewPercent)
	}
	if c.ReclaimSlack <= 0 {
		c.ReclaimSlack = 500 * time.Millisecond
	}
	return c, nil
}

// LoadReport is the outcome of one load run: the traffic mix, the acquire
// latency distribution, and the verification ledger. A report with
// Violations() != nil means the service broke a lease-contract invariant.
type LoadReport struct {
	Acquires    uint64        `json:"acquires"`
	Renews      uint64        `json:"renews"`
	Releases    uint64        `json:"releases"`
	Crashes     uint64        `json:"crashes"`
	FullRetries uint64        `json:"full_retries"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	// WindowOps counts the verified operations completed inside Elapsed:
	// the stale-token probes that finish after the last client are left
	// out, so Throughput divides like by like.
	WindowOps uint64 `json:"window_ops"`

	AcquireP50 time.Duration `json:"acquire_p50_ns"`
	AcquireP90 time.Duration `json:"acquire_p90_ns"`
	AcquireP99 time.Duration `json:"acquire_p99_ns"`
	AcquireMax time.Duration `json:"acquire_max_ns"`

	// StaleRejected counts post-crash probes correctly bounced with 409:
	// the expected evidence that abandoned leases were reclaimed and fenced.
	StaleRejected uint64 `json:"stale_rejected"`

	// Violations.
	DuplicateNames  uint64 `json:"duplicate_names"`
	EarlyReissues   uint64 `json:"early_reissues"`
	LostReleases    uint64 `json:"lost_releases"`
	UnexpectedStale uint64 `json:"unexpected_stale"`
	StaleAccepted   uint64 `json:"stale_accepted"`
	Undrained       int64  `json:"undrained"`
	ExpiryMismatch  int64  `json:"expiry_mismatch"`
	// ShortRenewals counts bulk renewals that claimed success without
	// extending the deadline to at least request-time + TTL: a renew the
	// server acknowledged but did not actually honor.
	ShortRenewals uint64 `json:"short_renewals"`

	// Wire carries the syscall-efficiency counters of the run when the API
	// is backed by a pooled wire client (the deltas across the run): how
	// many operations each connection amortized and how many frames each
	// write syscall carried.
	Wire *WireEfficiency `json:"wire,omitempty"`

	FinalStats StatsResponse `json:"final_stats"`
}

// WireEfficiency is the syscall-amortization summary of a wire-backed run:
// the pooled client's own counters, as deltas over the run, so the report
// carries the client-side health that used to live only in exit logs.
type WireEfficiency struct {
	Dials      uint64 `json:"dials"`
	Ops        uint64 `json:"ops"`
	FramesSent uint64 `json:"frames_sent"`
	Flushes    uint64 `json:"flushes"`
	// Backoffs counts calls failed fast inside a redial-backoff window — a
	// nonzero value means the run was hitting a dead or flapping endpoint.
	Backoffs uint64 `json:"backoffs"`
}

// OpsPerConn returns completed operations per connection dialed.
func (w WireEfficiency) OpsPerConn() float64 {
	if w.Dials == 0 {
		return 0
	}
	return float64(w.Ops) / float64(w.Dials)
}

// FramesPerFlush returns request frames per write-side flush (syscall):
// the write-combining factor of the pipelined connection pool.
func (w WireEfficiency) FramesPerFlush() float64 {
	if w.Flushes == 0 {
		return 0
	}
	return float64(w.FramesSent) / float64(w.Flushes)
}

// Ops returns the total number of verified operations (acquires + renews +
// releases + post-crash stale probes).
func (r LoadReport) Ops() uint64 {
	return r.Acquires + r.Renews + r.Releases + r.StaleRejected
}

// Throughput returns the verified operations per second completed inside
// the timed window.
func (r LoadReport) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.WindowOps) / r.Elapsed.Seconds()
}

// Violations lists every broken invariant, or nil when the run was clean.
func (r LoadReport) Violations() []string {
	var v []string
	if r.DuplicateNames > 0 {
		v = append(v, fmt.Sprintf("%d duplicate names among concurrently held leases", r.DuplicateNames))
	}
	if r.EarlyReissues > 0 {
		v = append(v, fmt.Sprintf("%d names reissued before their abandoned lease's TTL elapsed", r.EarlyReissues))
	}
	if r.LostReleases > 0 {
		v = append(v, fmt.Sprintf("%d releases of live leases rejected (lost release)", r.LostReleases))
	}
	if r.UnexpectedStale > 0 {
		v = append(v, fmt.Sprintf("%d live renews rejected as stale", r.UnexpectedStale))
	}
	if r.StaleAccepted > 0 {
		v = append(v, fmt.Sprintf("%d stale-token operations accepted after reclaim deadline", r.StaleAccepted))
	}
	if r.Undrained != 0 {
		v = append(v, fmt.Sprintf("%d leases still active after every deadline passed", r.Undrained))
	}
	if r.ExpiryMismatch != 0 {
		v = append(v, fmt.Sprintf("expirations diverge from crashes by %d", r.ExpiryMismatch))
	}
	if r.ShortRenewals > 0 {
		v = append(v, fmt.Sprintf("%d bulk renewals acknowledged without extending the deadline", r.ShortRenewals))
	}
	return v
}

// staleProbe is one abandoned lease queued for fencing verification.
type staleProbe struct {
	name  int
	token uint64
	// earliestReissue is the client-side lower bound on when the name may
	// be granted again: the acquire (or last renew) timestamp plus the TTL.
	earliestReissue time.Time
}

// ledger is the shared verification state of one load run.
type ledger struct {
	held      sync.Map // name -> struct{}: leases some client currently holds
	abandoned sync.Map // name -> time.Time: earliest legitimate reissue

	duplicates      atomic.Uint64
	earlyReissues   atomic.Uint64
	lostReleases    atomic.Uint64
	unexpectedStale atomic.Uint64
	staleAccepted   atomic.Uint64
	staleRejected   atomic.Uint64
	fullRetries     atomic.Uint64
	shortRenewals   atomic.Uint64

	acquires atomic.Uint64
	renews   atomic.Uint64
	releases atomic.Uint64
	crashes  atomic.Uint64

	lastDeadline atomic.Int64 // UnixNano of the latest abandoned deadline
}

// RunLoad drives one closed-loop load run and verifies the lease contract
// end to end: no duplicate names among concurrently held leases, no reissue
// of an abandoned name before its TTL elapsed, no lost releases, and every
// abandoned lease reclaimed (with its stale token fenced out) within two
// expirer ticks of its deadline.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return LoadReport{}, err
	}
	var client LeaseAPI = cfg.API
	if client == nil {
		client = NewClient(cfg.BaseURL, cfg.HTTPClient)
	}
	var batchClient BatchLeaseAPI
	if cfg.Batch > 0 {
		var ok bool
		if batchClient, ok = client.(BatchLeaseAPI); !ok {
			return LoadReport{}, fmt.Errorf("loadgen: batch mode needs a batch-capable API (wire protocol)")
		}
	}
	var wireBase wire.Counters
	counted, hasCounters := client.(wireCounted)
	if hasCounters {
		wireBase = counted.WireCounters()
	}

	// The expirer tick comes from the server so the reclaim checks agree
	// with its actual granularity.
	initial, err := client.Stats()
	if err != nil {
		return LoadReport{}, fmt.Errorf("loadgen: fetching initial stats: %w", err)
	}
	tick := time.Duration(initial.TickMillis) * time.Millisecond
	if tick <= 0 {
		tick = 100 * time.Millisecond
	}
	baselineExpirations := initial.Lease.Expirations

	led := &ledger{}
	var (
		remaining atomic.Int64
		wg        sync.WaitGroup
		probeWG   sync.WaitGroup
		probes    = make(chan staleProbe, 4096)
		latMu     sync.Mutex
		latencies []time.Duration
		errOnce   sync.Once
		runErr    error
	)
	remaining.Store(cfg.Acquires)

	// Fencing verifiers: once an abandoned lease's deadline plus two ticks
	// (plus slack) has passed, its token must be dead — a Renew and a
	// Release with it must both bounce with 409.
	for i := 0; i < 4; i++ {
		probeWG.Add(1)
		go func() {
			defer probeWG.Done()
			for p := range probes {
				wait := time.Until(p.earliestReissue.Add(2*tick + cfg.ReclaimSlack))
				if wait > 0 {
					time.Sleep(wait)
				}
				if _, status, err := client.Renew(p.name, p.token, 0); err == nil {
					if status/100 == 2 {
						led.staleAccepted.Add(1)
					} else {
						led.staleRejected.Add(1)
					}
				}
				if status, err := client.Release(p.name, p.token); err == nil {
					if status/100 == 2 {
						led.staleAccepted.Add(1)
					} else {
						led.staleRejected.Add(1)
					}
				}
			}
		}()
	}

	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			gen := rng.New(rng.KindSplitMix, cfg.Seed+uint64(id)*0x9E3779B97F4A7C15+1)
			if cfg.Batch > 0 {
				for {
					left := remaining.Add(-int64(cfg.Batch))
					n := cfg.Batch
					if left < 0 {
						// Partial (or empty) tail of the acquire budget.
						n += int(left)
						if n <= 0 {
							return
						}
					}
					if err := loadBatchRound(batchClient, n, cfg, led, gen, tick, probes, &latMu, &latencies); err != nil {
						errOnce.Do(func() { runErr = err })
						remaining.Store(0)
						return
					}
					if left < 0 {
						return
					}
				}
			}
			for remaining.Add(-1) >= 0 {
				if err := loadRound(client, cfg, led, gen, tick, probes, &latMu, &latencies); err != nil {
					errOnce.Do(func() { runErr = err })
					remaining.Store(0)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	windowOps := led.acquires.Load() + led.renews.Load() + led.releases.Load() + led.staleRejected.Load()
	close(probes)
	probeWG.Wait()
	if runErr != nil {
		return LoadReport{}, fmt.Errorf("loadgen: %w", runErr)
	}

	report := LoadReport{
		Acquires:        led.acquires.Load(),
		Renews:          led.renews.Load(),
		Releases:        led.releases.Load(),
		Crashes:         led.crashes.Load(),
		FullRetries:     led.fullRetries.Load(),
		Elapsed:         elapsed,
		WindowOps:       windowOps,
		StaleRejected:   led.staleRejected.Load(),
		DuplicateNames:  led.duplicates.Load(),
		EarlyReissues:   led.earlyReissues.Load(),
		LostReleases:    led.lostReleases.Load(),
		UnexpectedStale: led.unexpectedStale.Load(),
		StaleAccepted:   led.staleAccepted.Load(),
		ShortRenewals:   led.shortRenewals.Load(),
	}
	if hasCounters {
		after := counted.WireCounters()
		report.Wire = &WireEfficiency{
			Dials:      after.Dials - wireBase.Dials,
			Ops:        after.Ops - wireBase.Ops,
			FramesSent: after.FramesSent - wireBase.FramesSent,
			Flushes:    after.Flushes - wireBase.Flushes,
			Backoffs:   after.Backoffs - wireBase.Backoffs,
		}
	}

	// Drain check: after the latest abandoned deadline plus two ticks plus
	// slack, no lease may remain active and every crash must have expired.
	if last := led.lastDeadline.Load(); last != 0 {
		if wait := time.Until(time.Unix(0, last).Add(2*tick + cfg.ReclaimSlack)); wait > 0 {
			time.Sleep(wait)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		final, err := client.Stats()
		if err != nil {
			return report, fmt.Errorf("loadgen: fetching final stats: %w", err)
		}
		report.FinalStats = final
		report.Undrained = final.Lease.Active
		report.ExpiryMismatch = int64(final.Lease.Expirations-baselineExpirations) - int64(report.Crashes)
		if report.Undrained == 0 && report.ExpiryMismatch == 0 {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	slices.Sort(latencies)
	report.AcquireP50 = Percentile(latencies, 0.50)
	report.AcquireP90 = Percentile(latencies, 0.90)
	report.AcquireP99 = Percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		report.AcquireMax = latencies[n-1]
	}
	return report, nil
}

// loadRound is one closed-loop iteration: acquire (with full-namespace
// backoff), verify uniqueness, hold, maybe renew, then release or crash.
func loadRound(client LeaseAPI, cfg LoadConfig, led *ledger, gen rng.Source, tick time.Duration, probes chan<- staleProbe, latMu *sync.Mutex, latencies *[]time.Duration) error {
	ttlMillis := cfg.TTL.Milliseconds()
	var (
		l      LeaseResponse
		status int
		t0     time.Time
	)
	for {
		t0 = time.Now()
		var err error
		var hint time.Duration
		l, status, hint, err = client.Acquire(ttlMillis)
		lat := time.Since(t0)
		if err != nil {
			return err
		}
		if status/100 == 2 {
			latMu.Lock()
			*latencies = append(*latencies, lat)
			latMu.Unlock()
			break
		}
		if status == http.StatusServiceUnavailable {
			// Namespace exhausted by not-yet-expired abandoned leases: back
			// off for the server's Retry-After pacing (one expirer tick as
			// the fallback) so saturation runs measure service time, not
			// spin. Expected at high crash fractions.
			led.fullRetries.Add(1)
			if hint <= 0 {
				hint = tick
			}
			time.Sleep(hint)
			continue
		}
		return fmt.Errorf("loadgen: acquire returned status %d", status)
	}
	led.acquires.Add(1)

	// Uniqueness among concurrently held leases, and no early reissue of an
	// abandoned name: the server may only grant a name again once its
	// previous lease was released or its TTL (measured from before our
	// request was sent) fully elapsed.
	if _, loaded := led.held.LoadOrStore(l.Name, struct{}{}); loaded {
		led.duplicates.Add(1)
	}
	if earliest, ok := led.abandoned.LoadAndDelete(l.Name); ok {
		if time.Now().Before(earliest.(time.Time)) {
			led.earlyReissues.Add(1)
		}
	}

	Hold(cfg.HoldMean, gen)
	extendedAt := t0
	if cfg.RenewPercent > 0 && gen.Intn(100) < cfg.RenewPercent {
		extendedAt = time.Now()
		_, status, err := client.Renew(l.Name, l.Token, ttlMillis)
		if err != nil {
			return err
		}
		if status/100 == 2 {
			led.renews.Add(1)
		} else {
			led.unexpectedStale.Add(1)
		}
		Hold(cfg.HoldMean, gen)
	}

	if cfg.CrashPercent > 0 && gen.Intn(100) < cfg.CrashPercent {
		// Crash: walk away. The name stays leased until its deadline; record
		// the earliest instant the server may legitimately reissue it, and
		// queue the dead token for fencing verification.
		led.crashes.Add(1)
		earliest := extendedAt.Add(cfg.TTL)
		led.held.Delete(l.Name)
		led.abandoned.Store(l.Name, earliest)
		for {
			last := led.lastDeadline.Load()
			if earliest.UnixNano() <= last || led.lastDeadline.CompareAndSwap(last, earliest.UnixNano()) {
				break
			}
		}
		select {
		case probes <- staleProbe{name: l.Name, token: l.Token, earliestReissue: earliest}:
		default:
			// Verifier backlog full; the drain check still covers this lease.
		}
		return nil
	}

	led.held.Delete(l.Name)
	status, err := client.Release(l.Name, l.Token)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		led.lostReleases.Add(1)
		return nil
	}
	led.releases.Add(1)
	return nil
}

// loadBatchRound is one closed-loop batch iteration: one AcquireN for n
// leases (with full-namespace backoff), distinctness verification across the
// batch and against every concurrently held lease, one bulk renew covering
// the whole set (verifying each acknowledged renewal actually extended its
// deadline), then a per-lease crash draw — crashed leases are abandoned to
// expiry with their tokens queued for fencing probes, the remainder is freed
// in one batch release.
func loadBatchRound(client BatchLeaseAPI, n int, cfg LoadConfig, led *ledger, gen rng.Source, tick time.Duration, probes chan<- staleProbe, latMu *sync.Mutex, latencies *[]time.Duration) error {
	ttlMillis := cfg.TTL.Milliseconds()
	var (
		batch []LeaseResponse
		t0    time.Time
	)
	for {
		t0 = time.Now()
		var err error
		var hint time.Duration
		var status int
		batch, status, hint, err = client.AcquireBatch(n, ttlMillis, batch[:0])
		lat := time.Since(t0)
		if err != nil {
			return err
		}
		if status/100 == 2 {
			latMu.Lock()
			*latencies = append(*latencies, lat)
			latMu.Unlock()
			break
		}
		if status == http.StatusServiceUnavailable {
			led.fullRetries.Add(1)
			if hint <= 0 {
				hint = tick
			}
			time.Sleep(hint)
			continue
		}
		return fmt.Errorf("loadgen: batch acquire returned status %d", status)
	}
	led.acquires.Add(uint64(len(batch)))

	// Distinctness within the batch is checked on top of the shared held
	// map: an AcquireN granting one name twice would otherwise look like a
	// single-grant round to per-round bookkeeping.
	seen := make(map[int]struct{}, len(batch))
	for _, l := range batch {
		if _, dup := seen[l.Name]; dup {
			led.duplicates.Add(1)
		}
		seen[l.Name] = struct{}{}
		if _, loaded := led.held.LoadOrStore(l.Name, struct{}{}); loaded {
			led.duplicates.Add(1)
		}
		if earliest, ok := led.abandoned.LoadAndDelete(l.Name); ok {
			if time.Now().Before(earliest.(time.Time)) {
				led.earlyReissues.Add(1)
			}
		}
	}

	Hold(cfg.HoldMean, gen)
	extendedAt := t0
	if cfg.RenewPercent > 0 && gen.Intn(100) < cfg.RenewPercent {
		refs := make([]LeaseRef, 0, len(batch))
		for _, l := range batch {
			refs = append(refs, LeaseRef{Name: l.Name, Token: l.Token})
		}
		renewedAt := time.Now()
		results, status, err := client.RenewSession(refs, ttlMillis, nil)
		if err != nil {
			return err
		}
		if status/100 != 2 || len(results) != len(refs) {
			led.unexpectedStale.Add(uint64(len(refs)))
		} else {
			extendedAt = renewedAt
			// Every acknowledged renewal must have pushed its deadline to at
			// least send-time + TTL (1ms slack for millisecond truncation) —
			// "extended every deadline it claims to".
			floor := renewedAt.Add(cfg.TTL).UnixMilli() - 1
			for i, res := range results {
				if res.Status/100 != 2 {
					led.unexpectedStale.Add(1)
					continue
				}
				led.renews.Add(1)
				if res.DeadlineUnixMillis < floor || res.DeadlineUnixMillis < batch[i].DeadlineUnixMillis {
					led.shortRenewals.Add(1)
				}
			}
		}
		Hold(cfg.HoldMean, gen)
	}

	// Per-lease crash draw, exactly as the single-op rounds, so expiry and
	// fencing are exercised under batch traffic too.
	release := make([]LeaseRef, 0, len(batch))
	for _, l := range batch {
		if cfg.CrashPercent > 0 && gen.Intn(100) < cfg.CrashPercent {
			led.crashes.Add(1)
			earliest := extendedAt.Add(cfg.TTL)
			led.held.Delete(l.Name)
			led.abandoned.Store(l.Name, earliest)
			for {
				last := led.lastDeadline.Load()
				if earliest.UnixNano() <= last || led.lastDeadline.CompareAndSwap(last, earliest.UnixNano()) {
					break
				}
			}
			select {
			case probes <- staleProbe{name: l.Name, token: l.Token, earliestReissue: earliest}:
			default:
			}
			continue
		}
		release = append(release, LeaseRef{Name: l.Name, Token: l.Token})
	}
	if len(release) == 0 {
		return nil
	}
	for _, ref := range release {
		led.held.Delete(ref.Name)
	}
	results, status, err := client.ReleaseBatch(release, nil)
	if err != nil {
		return err
	}
	if status/100 != 2 || len(results) != len(release) {
		led.lostReleases.Add(uint64(len(release)))
		return nil
	}
	for _, res := range results {
		if res.Status/100 == 2 {
			led.releases.Add(1)
		} else {
			led.lostReleases.Add(1)
		}
	}
	return nil
}

// Hold sleeps for an exponential draw with the given mean, capped at 10x:
// one closed-loop client's hold time, in RunLoad and in the cluster's chaos
// runner.
func Hold(mean time.Duration, gen rng.Source) {
	if mean <= 0 {
		return
	}
	u := float64(gen.Uint64()>>11) / float64(1<<53)
	time.Sleep(min(time.Duration(-float64(mean)*math.Log(1-u)), 10*mean))
}

// Percentile returns the q-quantile of sorted latencies (nearest-rank).
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
