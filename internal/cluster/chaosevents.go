package cluster

// The chaos event-journal watcher: alongside the metrics watcher, this
// scraper reads every member's /debug/events on the same cadence and builds
// the cluster-wide timeline while the run is still killing nodes (a killed
// member's in-memory ring dies with it, so the pre-kill sweeps are the only
// complete record). At the end of the run the timeline is audited against
// the ledger: every epoch bump must carry a cause, every steward reassign
// must be preceded by a recorded failover decision at that epoch, and a run
// whose metrics saw quarantines must have journaled their starts. Observer
// only; a 404 on the first sweep (events disabled by some future deployment
// shape) turns the watcher off rather than failing the run.

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
)

// eventsWatcher accumulates the deduplicated cluster timeline.
type eventsWatcher struct {
	targets []string
	hc      *http.Client
	logf    func(format string, args ...any)

	mu       sync.Mutex
	disabled bool
	sweeps   int
	seen     map[string]bool
	events   []trace.Event

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func startEventsWatcher(targets []string, hc *http.Client, logf func(string, ...any)) *eventsWatcher {
	if hc == nil {
		hc = &http.Client{Timeout: 2 * time.Second}
	}
	w := &eventsWatcher{
		targets: targets,
		hc:      hc,
		logf:    logf,
		seen:    make(map[string]bool),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go w.loop()
	return w
}

func (w *eventsWatcher) loop() {
	defer close(w.done)
	if !w.sweep() {
		return
	}
	ticker := time.NewTicker(chaosScrapeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
		}
		if !w.sweep() {
			return
		}
	}
}

// sweep fetches every member's journal once, folding unseen events into the
// timeline; false when the watcher decided events are disabled.
func (w *eventsWatcher) sweep() bool {
	for _, target := range w.targets {
		resp, status, err := w.fetch(target)
		if err != nil || status/100 != 2 {
			if status == http.StatusNotFound {
				w.mu.Lock()
				first := w.sweeps == 0
				if first {
					w.disabled = true
				}
				w.mu.Unlock()
				if first {
					if w.logf != nil {
						w.logf("chaos: %s/debug/events returned 404; events watcher disabled", target)
					}
					return false
				}
			}
			continue
		}
		w.mu.Lock()
		w.sweeps++
		for _, ev := range resp.Events {
			// A restarted member reuses node IDs and restarts its sequence, so
			// the wall-clock stamp disambiguates incarnations.
			key := fmt.Sprintf("%d/%d/%d", ev.Node, ev.Seq, ev.TimeUnixNano)
			if w.seen[key] {
				continue
			}
			w.seen[key] = true
			w.events = append(w.events, ev)
		}
		w.mu.Unlock()
	}
	return true
}

func (w *eventsWatcher) fetch(target string) (trace.EventsResponse, int, error) {
	var out trace.EventsResponse
	status, err := server.GetJSON(w.hc, target+"/debug/events", &out)
	return out, status, err
}

// finalize stops the sweeps and audits the assembled timeline into the
// report. The audit is structural — it needs no knowledge of which node was
// killed when, only that the journal is internally complete.
func (w *eventsWatcher) finalize(report *ChaosReport) {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done

	w.mu.Lock()
	defer w.mu.Unlock()
	report.EventsDisabled = w.disabled
	report.EventsCaptured = len(w.events)
	if w.disabled || len(w.events) == 0 {
		return
	}
	w.events = trace.MergeEvents(w.events)

	counts := make(map[string]int)
	decisionEpochs := make(map[uint64]bool)
	for _, ev := range w.events {
		counts[ev.Type]++
		if ev.Type == trace.EvFailoverDecision {
			decisionEpochs[ev.Epoch] = true
		}
	}
	report.EventCounts = counts
	for _, ev := range w.events {
		if ev.Type != trace.EvEpochBump {
			continue
		}
		if ev.Cause == "" {
			report.EventsUnexplainedBumps++
		}
		if ev.Cause == "steward_reassign" && !decisionEpochs[ev.Epoch] {
			report.EventsDecisionlessFailovers++
		}
	}
}
