package lease

import (
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wal"
)

// Barrier defers the durability wait of single-lease writes. A Manager
// handed one (AcquireSpan, RenewSpan, ReleaseSpan) applies the transition,
// queues its journal record and releases the entry lock at once; Wait then
// blocks until every record queued on the barrier is durable, with one
// segment write and one fsync per journal however many writes it covers. A
// caller answers none of those writes before Wait returns nil. When Wait
// fails, none of them is acknowledged, yet each stays applied in memory: a
// latched journal takes no further writes, and a restart replays what is
// durable.
//
// Deferring is safe because each manager's journal is one ordered stream. A
// later transition of the same name is queued under the entry lock after
// the earlier one, so it holds a later ticket, and whoever waits for that
// ticket also waits for every record its answer could depend on.
//
// A journal that cannot queue (one without Enqueue and WaitDurable, such as
// a test double or a timing decorator) is appended to and waited for inside
// the operation, as without a barrier. A Barrier belongs to one goroutine;
// it is empty again after Wait.
type Barrier struct {
	waits []barrierWait
}

type barrierWait struct {
	j      queuedJournal
	ticket uint64
}

// queuedJournal is the optional Journal extension a Barrier defers through:
// *wal.Store queues a record without waiting and waits for its ticket later.
type queuedJournal interface {
	Enqueue(sp *trace.Op, op wal.Op, name uint32, token uint64, deadline int64) (uint64, error)
	WaitDurable(ticket uint64) error
}

// add records that ticket on j must be durable before Wait returns. A
// journal's tickets are ordered, so only its highest one is kept.
func (b *Barrier) add(j queuedJournal, ticket uint64) {
	for i := range b.waits {
		if b.waits[i].j == j {
			b.waits[i].ticket = max(b.waits[i].ticket, ticket)
			return
		}
	}
	b.waits = append(b.waits, barrierWait{j: j, ticket: ticket})
}

// Wait blocks until every record queued on the barrier is durable, journal
// by journal, and returns the first failure; the barrier is then empty.
func (b *Barrier) Wait() error {
	var first error
	for _, w := range b.waits {
		if err := w.j.WaitDurable(w.ticket); err != nil && first == nil {
			first = err
		}
	}
	clear(b.waits)
	b.waits = b.waits[:0]
	return first
}
