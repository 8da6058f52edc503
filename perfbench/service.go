package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The service workloads share one traffic model: lease sessions that
// acquire, renew every TTL/3 while held, and release (or are abandoned and
// expire). An open-loop phase sends them on a seeded schedule at a fixed
// nominal rate, then a closed-loop phase saturates the stack.

// leaseAPI is one service workload's client: each method is one operation as
// a user of that deployment sends it. Any status other than success is an
// error.
type leaseAPI interface {
	acquire(ttl time.Duration) (grant, error)
	renew(name int, token uint64, ttl time.Duration) (grant, error)
	release(name int, token uint64) error
	// read sends the i-th read of the schedule (the workload alternates read
	// kinds by i).
	read(i int) error
}

// grant is a granted or renewed lease; deadline is in Unix milliseconds as
// the server states it.
type grant struct {
	name     int
	token    uint64
	deadline int64
}

type opKind uint8

const (
	opAcquire opKind = iota
	opRenew
	opRelease
	opRead
	numKinds
)

var kindNames = [numKinds]string{"acquire", "renew", "release", "read"}

// Both service workloads hold the same capacity at the same occupancy with
// the same session shape; they differ in the stack under it, the nominal
// rate, and reads.
const (
	serviceCapacity = 4096
	// serviceTick is laserve's expirer tick.
	serviceTick = 100 * time.Millisecond
)

// sessionMix is a service workload's traffic at a nominal rate of lease
// writes per second, with the TTL that keeps 85% occupancy reachable at that
// rate, and readRate reads per second.
func sessionMix(rate float64, ttl time.Duration, readRate float64) *mix {
	return &mix{
		capacity:  serviceCapacity,
		occupancy: 0.85,
		ttl:       ttl,
		rate:      rate,
		abandon:   0.10,
		readRate:  readRate,
		tick:      serviceTick,
		openShare: 0.65,
		inflight:  16,
	}
}

// mix is a service workload's traffic definition.
type mix struct {
	capacity int
	// occupancy is the held share of capacity the session mix is solved for.
	occupancy float64
	ttl       time.Duration
	// rate is the nominal lease-write rate (acquire+renew+release per second)
	// of the open-loop phase: a constant well below the saturation ops_s
	// measured when the workload was defined, so that latency is compared
	// at one fixed load across commits. At half of saturation, seeds of one
	// commit differed by 15-40% in p50 latency.
	rate     float64
	abandon  float64
	readRate float64
	tick     time.Duration
	// openShare is the part of --seconds spent in the open-loop phase; the
	// rest is the closed-loop saturation phase.
	openShare float64
	// inflight is the closed-loop session count of the saturation phase.
	inflight int

	// Solved by solve: mean hold time and session arrival rate.
	hold     time.Duration
	arrivals float64
}

// renewEvery is the renew period of a held lease.
func (m *mix) renewEvery() time.Duration { return m.ttl / 3 }

// fillLimit is the longest the population fill may take: a lease acquired
// at the start of the fill must still be live, with an expirer tick to
// spare, when its first renew comes due up to one renew period into the
// open loop.
func (m *mix) fillLimit() time.Duration { return m.ttl - m.renewEvery() - m.tick }

// renewsPer is the expected number of renews of a session with exponential
// hold of mean h: E[floor(X/P)] = 1/(e^(P/h) - 1).
func (m *mix) renewsPer(h float64) float64 {
	return 1 / math.Expm1(m.renewEvery().Seconds()/h)
}

// solve picks the mean hold so that the nominal write rate holds the target
// occupancy: occupancy = arrivals * held-per-session and rate = arrivals *
// writes-per-session, where an abandoned lease stays held from its last renew
// until TTL later plus half an expirer tick.
func (m *mix) solve() error {
	p, ttl, a := m.renewEvery().Seconds(), m.ttl.Seconds(), m.abandon
	heldPer := func(h float64) float64 {
		return (1-a)*h + a*(p*m.renewsPer(h)+ttl+m.tick.Seconds()/2)
	}
	writesPer := func(h float64) float64 { return 1 + m.renewsPer(h) + (1 - a) }
	target := m.occupancy * float64(m.capacity) / m.rate
	lo, hi := 1e-4, 1e3
	if heldPer(lo)/writesPer(lo) > target || heldPer(hi)/writesPer(hi) < target {
		return fmt.Errorf("no session hold time reaches %.0f%% occupancy at %.0f writes/s with TTL %v", m.occupancy*100, m.rate, m.ttl)
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if heldPer(mid)/writesPer(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	m.hold = time.Duration(lo * float64(time.Second))
	m.arrivals = m.rate / writesPer(lo)
	return nil
}

// session is one lease session of the traffic. Its operations run in
// schedule order even when two fall due together: each waits its turn.
type session struct {
	hold    time.Duration
	abandon bool
	ttl     time.Duration

	mu   sync.Mutex
	turn sync.Cond // signalled when done advances
	done int       // operations of this session completed (or failed)
	ok   bool      // holds a lease
	g    grant
}

func newSession(hold time.Duration, abandon bool, ttl time.Duration) *session {
	s := &session{hold: hold, abandon: abandon, ttl: ttl}
	s.turn.L = &s.mu
	return s
}

// event is one scheduled operation of the open-loop phase; seq is its place
// among its session's operations.
type event struct {
	due  time.Duration // offset from the phase start
	kind opKind
	s    *session
	seq  int
	read int
}

// population is the steady-state lease population built during setup: live
// sessions mid-hold and abandoned leases awaiting expiry.
type population struct {
	live, abandoned []*session
}

// newPopulation draws the steady state the mix converges to: arrivals*hold
// sessions mid-hold (exponential holds are memoryless, so residual holds
// share the distribution) plus the abandoned leases still awaiting expiry,
// acquired with their residual TTL.
func newPopulation(m *mix, gen *rand.Rand) *population {
	h := m.hold.Seconds()
	p := m.renewEvery().Seconds()
	nLive := int(m.arrivals * h)
	postHold := m.ttl.Seconds() - (h - p*m.renewsPer(h)) // TTL minus E[hold mod P]
	nAband := int(m.arrivals * m.abandon * postHold)
	pop := &population{}
	for i := 0; i < nLive; i++ {
		hold := time.Duration(gen.ExpFloat64() * h * float64(time.Second))
		pop.live = append(pop.live, newSession(hold, gen.Float64() < m.abandon, m.ttl))
	}
	for i := 0; i < nAband; i++ {
		residual := (0.05 + 0.95*gen.Float64()) * postHold
		pop.abandoned = append(pop.abandoned, newSession(0, true, time.Duration(residual*float64(time.Second))))
	}
	return pop
}

// fill acquires the population's leases with inflight concurrent callers.
func (pop *population) fill(api leaseAPI, led *ledger, inflight int) error {
	all := append(append([]*session(nil), pop.live...), pop.abandoned...)
	var next atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(all) {
					return
				}
				s := all[i]
				g, err := api.acquire(s.ttl)
				if err == nil {
					err = led.acquired(g)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("fill acquire: %w", err) })
					return
				}
				s.g, s.ok = g, true
				if s.abandon {
					led.abandonedAt(g)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// schedule lays out the open-loop phase of length d: the population's
// renews and releases, fresh arrivals with their own ops, and the reads.
func schedule(m *mix, pop *population, d time.Duration, gen *rand.Rand) []event {
	var evs []event
	p := m.renewEvery()
	add := func(s *session, seq int, first, end time.Duration) {
		for t := first; t < end && t < d; t += p {
			evs = append(evs, event{due: t, kind: opRenew, s: s, seq: seq})
			seq++
		}
		if !s.abandon && end < d {
			evs = append(evs, event{due: end, kind: opRelease, s: s, seq: seq})
		}
	}
	for _, s := range pop.live {
		add(s, 0, time.Duration(gen.Float64()*float64(p)), s.hold)
	}
	mean := float64(time.Second) / m.arrivals
	for t := time.Duration(gen.ExpFloat64() * mean); t < d; t += time.Duration(gen.ExpFloat64() * mean) {
		s := newSession(time.Duration(gen.ExpFloat64()*float64(m.hold)), gen.Float64() < m.abandon, m.ttl)
		evs = append(evs, event{due: t, kind: opAcquire, s: s})
		add(s, 1, t+p, t+s.hold)
	}
	if m.readRate > 0 {
		every := time.Duration(float64(time.Second) / m.readRate)
		i := 0
		for t := time.Duration(gen.Float64() * float64(every)); t < d; t += every {
			evs = append(evs, event{due: t, kind: opRead, read: i})
			i++
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

// phaseResult is what one traffic phase measured.
type phaseResult struct {
	ops     [numKinds]uint64
	lat     [numKinds]*samples // us from due time (open loop only)
	late    *samples           // generator dispatch lateness, us
	backlog []float64          // queued-op samples
	rates   []float64          // writes per second of each closed-loop window
	failed  uint64
	err     error
}

func (r *phaseResult) writes() uint64 { return r.ops[opAcquire] + r.ops[opRenew] + r.ops[opRelease] }

// meanWriteUS is the mean latency of the phase's lease writes, in us.
func (r *phaseResult) meanWriteUS() float64 {
	var all []float64
	for _, k := range []opKind{opAcquire, opRenew, opRelease} {
		all = append(all, r.lat[k].sorted()...)
	}
	return mean(all)
}

// writesNow is writes for a phase still running.
func (r *phaseResult) writesNow() uint64 {
	return atomic.LoadUint64(&r.ops[opAcquire]) + atomic.LoadUint64(&r.ops[opRenew]) + atomic.LoadUint64(&r.ops[opRelease])
}

// newPhaseResult sizes the latency buffers for the operations expected, so
// their growth does not set the run's peak memory.
func newPhaseResult(expect [numKinds]int) *phaseResult {
	r := &phaseResult{late: &samples{}}
	for k := range r.lat {
		r.lat[k] = newSamples(expect[k])
	}
	return r
}

// fail records the first failed operation; the workload fails the run on it.
func (r *phaseResult) fail(mu *sync.Mutex, err error) {
	mu.Lock()
	r.failed++
	if r.err == nil {
		r.err = err
	}
	mu.Unlock()
}

// openLoopWorkers executes scheduled operations. Its size only bounds
// concurrency: at the nominal rate a handful are busy at once, and a pool
// that runs dry shows up as backlog.
const openLoopWorkers = 64

// workQueue is deep enough that a generator never blocks on a healthy
// stack; a stack that falls this far behind has a growing backlog and the
// run is invalid anyway.
const workQueue = 8192

// timerSlack is the kernel timer slack the generator thread asks for: the
// 50us default would make every scheduled send that late.
const timerSlack = time.Microsecond

// runOpenLoop sends the schedule's operations at their due times and times
// each from its due time to its completion.
func runOpenLoop(api leaseAPI, led *ledger, evs []event) *phaseResult {
	var expect [numKinds]int
	for _, ev := range evs {
		expect[ev.kind]++
	}
	res := newPhaseResult(expect)
	res.late = newSamples(len(evs))
	var mu sync.Mutex
	work := make(chan event, workQueue)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < openLoopWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range work {
				if err := execute(api, led, ev); err != nil {
					res.fail(&mu, fmt.Errorf("%s: %w", kindNames[ev.kind], err))
					continue
				}
				done := time.Since(start)
				res.lat[ev.kind].add(us(done - ev.due))
				atomic.AddUint64(&res.ops[ev.kind], 1)
			}
		}()
	}

	// Backlog monitor: queued operations, sampled every 5 ms.
	stopMon := make(chan struct{})
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopMon:
				return
			case <-t.C:
				res.backlog = append(res.backlog, float64(len(work)))
			}
		}
	}()

	// The generator owns a thread with a fine timer slack and sleeps in the
	// kernel until each due time; Go's runtime timers round short sleeps up
	// to a millisecond.
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setTimerSlack(timerSlack)
		for _, ev := range evs {
			if wait := ev.due - time.Since(start); wait > 0 {
				sleepPrecise(wait)
			}
			now := time.Since(start)
			res.late.add(us(now - ev.due))
			work <- ev
		}
	}()
	<-genDone
	close(work)
	wg.Wait()
	close(stopMon)
	<-monDone
	return res
}

// execute runs one scheduled operation of a session (or a read).
func execute(api leaseAPI, led *ledger, ev event) error {
	if ev.kind == opRead {
		return api.read(ev.read)
	}
	s := ev.s
	s.mu.Lock()
	for s.done != ev.seq {
		s.turn.Wait()
	}
	defer func() {
		s.done++
		s.turn.Broadcast()
		s.mu.Unlock()
	}()
	switch ev.kind {
	case opAcquire:
		g, err := api.acquire(s.ttl)
		if err != nil {
			return err
		}
		s.g, s.ok = g, true
		if err := led.acquired(g); err != nil {
			return err
		}
		if s.abandon {
			led.abandonedAt(g)
		}
		return nil
	case opRenew:
		if !s.ok {
			return errors.New("session never acquired")
		}
		g, err := api.renew(s.g.name, s.g.token, s.ttl)
		if err != nil {
			return err
		}
		s.g.deadline = g.deadline
		if s.abandon {
			led.abandonedAt(s.g)
		}
		return nil
	default:
		if !s.ok {
			return errors.New("session never acquired")
		}
		if err := led.released(s.g); err != nil {
			return err
		}
		if err := api.release(s.g.name, s.g.token); err != nil {
			return err
		}
		s.ok = false
		return nil
	}
}

// releaseLive releases every session still holding a lease after the
// open-loop phase, so the saturation phase starts from abandoned leases
// only.
func releaseLive(api leaseAPI, led *ledger, sessions []*session, inflight int) error {
	var next atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sessions) {
					return
				}
				s := sessions[i]
				if s.abandon || !s.ok {
					continue
				}
				err := led.released(s.g)
				if err == nil {
					err = api.release(s.g.name, s.g.token)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("release after open loop: %w", err) })
					return
				}
				s.ok = false
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// runSaturation drives inflight closed-loop sessions for d: each session
// acquires, renews as many times as a hold drawn from the mix would, then
// releases. No session is abandoned here: abandoned leases stay held for a
// TTL, so their number would grow with the write rate and ops_s would be read
// at an occupancy that ops_s itself sets.
func runSaturation(api leaseAPI, led *ledger, m *mix, d time.Duration, seed uint64) *phaseResult {
	res := newPhaseResult([numKinds]int{})
	var mu sync.Mutex
	var wg sync.WaitGroup
	stopRates := make(chan struct{})
	rates := sampleRates(func() uint64 { return res.writesNow() }, stopRates)
	start := time.Now()
	end := start.Add(d)
	time.AfterFunc(d, func() { close(stopRates) })
	count := func(k opKind, at time.Time) {
		if at.Before(end) {
			atomic.AddUint64(&res.ops[k], 1)
		}
	}
	for c := 0; c < m.inflight; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := rand.New(rand.NewPCG(seed, uint64(c)+0x5A7))
			for time.Now().Before(end) {
				renews := int(gen.ExpFloat64() * float64(m.hold) / float64(m.renewEvery()))
				if err := closedSession(api, led, m.ttl, renews, count); err != nil {
					res.fail(&mu, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	res.rates = <-rates
	return res
}

func closedSession(api leaseAPI, led *ledger, ttl time.Duration, renews int, count func(opKind, time.Time)) error {
	g, err := api.acquire(ttl)
	if err != nil {
		return fmt.Errorf("acquire: %w", err)
	}
	count(opAcquire, time.Now())
	if err := led.acquired(g); err != nil {
		return err
	}
	for i := 0; i < renews; i++ {
		r, err := api.renew(g.name, g.token, ttl)
		if err != nil {
			return fmt.Errorf("renew: %w", err)
		}
		count(opRenew, time.Now())
		g.deadline = r.deadline
	}
	if err := led.released(g); err != nil {
		return err
	}
	if err := api.release(g.name, g.token); err != nil {
		return fmt.Errorf("release: %w", err)
	}
	count(opRelease, time.Now())
	return nil
}

// ledger is the cheap check on the timed traffic: no name is granted while
// another live session holds it, and an abandoned name is not granted again
// before its deadline.
type ledger struct {
	mu   sync.Mutex
	held map[int]heldName
}

type heldName struct {
	token     uint64
	abandoned bool
	deadline  int64 // Unix ms, set when abandoned
}

func newLedger() *ledger { return &ledger{held: map[int]heldName{}} }

func (l *ledger) acquired(g grant) error {
	now := time.Now().UnixMilli()
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.held[g.name]; ok {
		if !prev.abandoned {
			return fmt.Errorf("name %d granted (token %d) while token %d holds it", g.name, g.token, prev.token)
		}
		if now < prev.deadline {
			return fmt.Errorf("abandoned name %d reissued %d ms before its deadline", g.name, prev.deadline-now)
		}
	}
	l.held[g.name] = heldName{token: g.token}
	return nil
}

// abandonedAt marks a lease whose session will stop renewing it, with its
// latest stated deadline; such a session records every renew here.
func (l *ledger) abandonedAt(g grant) {
	l.mu.Lock()
	l.held[g.name] = heldName{token: g.token, abandoned: true, deadline: g.deadline}
	l.mu.Unlock()
}

// released removes a live lease before its release is sent: once the server
// frees the name it may grant it again at once.
func (l *ledger) released(g grant) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.held[g.name]; !ok || prev.token != g.token || prev.abandoned {
		return fmt.Errorf("release of name %d token %d that the ledger does not hold live", g.name, g.token)
	}
	delete(l.held, g.name)
	return nil
}

// ticker runs fn every interval until the returned stop is called; stop
// waits for an in-flight call to finish.
func ticker(every time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	quit := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// setTimerSlack sets the calling thread's kernel timer slack (PR_SET_TIMERSLACK).
func setTimerSlack(d time.Duration) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, uintptr(d.Nanoseconds()), 0) // best effort: the default slack only makes sends later, which the lateness metric shows
}

// sleepPrecise blocks the calling thread in the kernel for d.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
