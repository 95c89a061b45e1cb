package obs

import (
	"fmt"
	"sync"
	"time"

	"mnemo/internal/simclock"
)

// EventKind classifies a journal event.
type EventKind string

// The journal's event vocabulary. Instrumented layers append these in
// the order they happen, so a journal read back is the timeline of one
// profiling run.
const (
	// EventMeasureStart / EventMeasureEnd bracket one measurement run
	// (a full trace replay against one deployment).
	EventMeasureStart EventKind = "measurement_started"
	EventMeasureEnd   EventKind = "measurement_finished"
	// EventSpanStart / EventSpanEnd bracket a pipeline stage span.
	EventSpanStart EventKind = "span_started"
	EventSpanEnd   EventKind = "span_finished"
	// EventCacheHit records a Session stage served from its cached
	// artifact instead of recomputing.
	EventCacheHit EventKind = "cache_hit"
	// EventCurveBuilt records an estimate curve being materialized.
	EventCurveBuilt EventKind = "curve_built"
	// EventPlacement records a placement being emitted.
	EventPlacement EventKind = "placement_emitted"
	// EventPanic records a worker-pool job panic that was contained.
	EventPanic EventKind = "panic_recovered"
)

// Event is one journal entry. Wall is process wall-clock time; Sim, when
// non-zero, is the simulated duration the event reports (a run's
// simulated runtime, a span's simulated cost).
type Event struct {
	Seq    int64
	Wall   time.Time
	Kind   EventKind
	Stage  string // originating stage or subsystem ("measure", "client", "pool", …)
	Detail string
	Sim    simclock.Duration
}

// String renders the event for logs.
func (e Event) String() string {
	if e.Sim != 0 {
		return fmt.Sprintf("#%d %s %s: %s (sim %v)", e.Seq, e.Stage, e.Kind, e.Detail, e.Sim)
	}
	return fmt.Sprintf("#%d %s %s: %s", e.Seq, e.Stage, e.Kind, e.Detail)
}

// defaultJournalCap bounds journal memory: a full paper-scale profiling
// session emits tens of events, a chaotic matrix sweep a few thousand;
// beyond the cap events are counted but not retained.
const defaultJournalCap = 4096

// Journal is an append-only, bounded, ordered event log. The nil journal
// is a valid no-op. Appends are concurrency-safe; sequence numbers are
// assigned under the same lock that orders the slice, so Seq is strictly
// increasing in Events() order.
type Journal struct {
	mu      sync.Mutex
	events  []Event
	next    int64
	cap     int
	dropped int64
}

// NewJournal creates a journal retaining at most the default 4096 events.
func NewJournal() *Journal { return &Journal{cap: defaultJournalCap} }

// Append adds one event, stamping its sequence number and wall time
// (no-op on nil). Events past the retention cap are counted as dropped.
func (j *Journal) Append(kind EventKind, stage, detail string, sim simclock.Duration) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	seq := j.next
	j.next++
	if len(j.events) >= j.cap {
		j.dropped++
		return
	}
	j.events = append(j.events, Event{
		Seq: seq, Wall: time.Now(), Kind: kind, Stage: stage, Detail: detail, Sim: sim,
	})
}

// Events returns a copy of the retained events in append order
// (nil on a nil journal).
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// Dropped reports how many events the retention cap discarded.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Len reports the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}
