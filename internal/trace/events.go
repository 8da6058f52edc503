package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event types: every control-plane transition the cluster can take. The
// chaos ledger asserts that each ledger-relevant transition (epoch bump,
// failover, quarantine) is explained by one of these in the merged timeline.
const (
	// EvEpochBump records a node adopting a table with a higher epoch.
	EvEpochBump = "epoch_bump"
	// EvFailoverDecision records the steward marking a member down: the
	// cause (missed probes) and the vote set (suspects vs live members).
	EvFailoverDecision = "failover_decision"
	// EvQuorumHold records the steward declining to fail over for lack of
	// a live majority.
	EvQuorumHold = "quorum_hold"
	// EvQuarantineStart / EvQuarantineEnd bracket an adoption quarantine.
	EvQuarantineStart = "quarantine_start"
	EvQuarantineEnd   = "quarantine_end"
	// EvPartitionDrop records a node dropping a partition it no longer owns.
	EvPartitionDrop = "partition_drop"
	// EvReplay summarizes a restart's WAL replay (sessions, records, RTO).
	EvReplay = "restart_replay"
	// EvStaleEpoch records a write rejected by the epoch fence (412).
	EvStaleEpoch = "stale_epoch_reject"
	// EvMemberJoin records the steward admitting a new member (joining),
	// and its later promotion to live once it answers probes.
	EvMemberJoin = "member_join"
	// EvMemberRejoin records the steward re-upping a down member whose
	// probes recovered.
	EvMemberRejoin = "member_rejoin"
	// EvMemberDrain records a member entering draining, and its retirement
	// (left) once the planner has migrated it empty.
	EvMemberDrain = "member_drain"
	// EvMigrationPlan records the steward deciding to move one partition
	// (the plan's source, target and reason).
	EvMigrationPlan = "migration_plan"
	// EvMigrationStaged records a source shipping a fenced partition's
	// snapshot to the target, which staged it for the cutover.
	EvMigrationStaged = "migration_staged"
	// EvMigrationCutover records a target installing a shipped snapshot and
	// taking over a migrated partition without quarantine.
	EvMigrationCutover = "migration_cutover"
	// EvMigrationAbort records a migration unwound before cutover (ship
	// failure or steward loss); the source unfences and resumes serving.
	EvMigrationAbort = "migration_abort"
)

// Levels order event severity for the structured-log mirror.
const (
	LevelDebug = "debug"
	LevelInfo  = "info"
	LevelWarn  = "warn"
)

// Event is one structured control-plane journal entry.
type Event struct {
	// Seq orders events within one node's journal (monotonic per node).
	Seq uint64 `json:"seq"`
	// TimeUnixNano is the event time.
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Node is the recording node (-1 standalone).
	Node int `json:"node"`
	// Epoch is the cluster epoch the event applies to (the *new* epoch for
	// an epoch bump or failover decision).
	Epoch uint64 `json:"epoch,omitempty"`
	// Type is one of the Ev* constants.
	Type string `json:"type"`
	// Level is the log severity (info when empty).
	Level string `json:"level,omitempty"`
	// Partition is the partition concerned (-1 when node-wide).
	Partition int `json:"partition"`
	// Cause names why the transition happened (e.g. "probe_timeout",
	// "kill", "restart") — the field the chaos ledger check keys on.
	Cause string `json:"cause,omitempty"`
	// Detail is a human-readable elaboration (vote sets, counts, timings).
	Detail string `json:"detail,omitempty"`
	// RID correlates the event with a request trace, when one applies.
	RID string `json:"rid,omitempty"`
}

// EventsResponse is the /debug/events wire shape.
type EventsResponse struct {
	Node   int     `json:"node"`
	Events []Event `json:"events"`
}

// EventConfig parameterizes an EventLog.
type EventConfig struct {
	// Node stamps every event (-1 standalone).
	Node int
	// RingSize bounds the in-memory journal (0 selects 1024).
	RingSize int
	// Sink, when set, receives each event as one formatted log line — the
	// printf hook the ad-hoc Logf logging is funneled through, so existing
	// stdout/test logging keeps working underneath the structured journal.
	Sink func(format string, args ...any)
	// Dir, when set, appends every event as one JSON line to
	// Dir/events.jsonl so the journal survives the process.
	Dir string
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// EventLog is one node's control-plane journal: a bounded in-memory ring,
// lifetime totals per event type, an optional durable JSONL file, and a
// leveled line-log mirror. Emit is cheap and safe for concurrent use; all
// methods tolerate a nil receiver.
type EventLog struct {
	node  int
	sink  func(format string, args ...any)
	clock func() time.Time

	mu     sync.Mutex
	seq    uint64
	ring   []Event
	count  int               // total emitted; ring[count % len] is the next slot
	totals map[string]uint64 // emitted per type, ring overwrites included
	file   *os.File
	enc    *json.Encoder
}

// NewEventLog builds an EventLog. A Dir that cannot be created degrades to
// memory-only journaling rather than failing the node.
func NewEventLog(cfg EventConfig) *EventLog {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	l := &EventLog{
		node:   cfg.Node,
		sink:   cfg.Sink,
		clock:  cfg.Clock,
		ring:   make([]Event, cfg.RingSize),
		totals: make(map[string]uint64),
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err == nil {
			f, err := os.OpenFile(filepath.Join(cfg.Dir, "events.jsonl"),
				os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err == nil {
				l.file = f
				l.enc = json.NewEncoder(f)
			}
		}
	}
	return l
}

// Close releases the durable file, if any.
func (l *EventLog) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file != nil {
		_ = l.file.Close()
		l.file, l.enc = nil, nil
	}
}

// Emit journals one event, filling Seq, TimeUnixNano and Node, mirroring a
// formatted line to the sink, and appending to the durable file when
// configured. Nil-safe: a nil log drops the event.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	if e.Level == "" {
		e.Level = LevelInfo
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	e.TimeUnixNano = l.clock().UnixNano()
	e.Node = l.node
	l.ring[l.count%len(l.ring)] = e
	l.count++
	l.totals[e.Type]++
	if l.enc != nil {
		_ = l.enc.Encode(e) // best effort; a full disk must not stop the node
	}
	sink := l.sink
	l.mu.Unlock()
	if sink != nil {
		sink("%s", formatEventLine(e))
	}
}

// Eventf is Emit with a printf Detail.
func (l *EventLog) Eventf(typ string, epoch uint64, partition int, cause, format string, args ...any) {
	if l == nil {
		return
	}
	l.Emit(Event{Type: typ, Epoch: epoch, Partition: partition, Cause: cause,
		Detail: fmt.Sprintf(format, args...)})
}

// Count returns how many events of type typ the log has journaled, the ones
// the ring has since overwritten included: the one count of a transition
// that a node's /stats and /metrics read.
func (l *EventLog) Count(typ string) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totals[typ]
}

// Events snapshots the in-memory journal, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.ring)
	start := 0
	if l.count > n {
		start = l.count - n
	}
	out := make([]Event, 0, l.count-start)
	for i := start; i < l.count; i++ {
		out = append(out, l.ring[i%n])
	}
	return out
}

// formatEventLine renders the structured event as one greppable log line:
//
//	level=info node=2 epoch=5 type=failover_decision part=- cause=probe_timeout detail="..."
func formatEventLine(e Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "level=%s node=%d", e.Level, e.Node)
	if e.Epoch != 0 {
		fmt.Fprintf(&b, " epoch=%d", e.Epoch)
	}
	fmt.Fprintf(&b, " type=%s", e.Type)
	if e.Partition >= 0 {
		fmt.Fprintf(&b, " partition=%d", e.Partition)
	}
	if e.Cause != "" {
		fmt.Fprintf(&b, " cause=%s", e.Cause)
	}
	if e.RID != "" {
		fmt.Fprintf(&b, " rid=%s", e.RID)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " detail=%q", e.Detail)
	}
	return b.String()
}

// MergeEvents interleaves several nodes' journals into one causally-ordered
// timeline: by timestamp, then node, then per-node sequence — the view
// `lactl events` renders and the chaos watcher asserts over.
func MergeEvents(journals ...[]Event) []Event {
	var out []Event
	for _, j := range journals {
		out = append(out, j...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TimeUnixNano != b.TimeUnixNano {
			return a.TimeUnixNano < b.TimeUnixNano
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out
}
