package obs

import (
	"sync"
	"time"
)

// TimelineEvent is one structured lifecycle or anomaly event on a
// session's diagnostic timeline.
type TimelineEvent struct {
	Wall   time.Time `json:"at"`
	Type   string    `json:"type"`
	Detail string    `json:"detail,omitempty"`
}

// Timeline event types. Kept as plain strings on the wire; these
// constants exist so producers and tests agree on spelling.
const (
	EventCreate       = "create"
	EventRecover      = "recover"
	EventPark         = "park"
	EventResume       = "resume"
	EventRetrace      = "retrace"
	EventWALRotate    = "wal_rotate"
	EventResync       = "resync"
	EventShed         = "shed"
	EventLeaderSwitch = "leader_switch"
	EventTierChange   = "tier_change"
	EventEngineFailed = "engine_failed"
)

// TimelineCapacity bounds each session's event ring.
const TimelineCapacity = 128

// Timeline is a bounded ring of diagnostic events. Producers are
// lifecycle paths (not per-report), so a mutex is fine.
type Timeline struct {
	mu     sync.Mutex
	events [TimelineCapacity]TimelineEvent
	next   int
	total  uint64
}

// Record appends an event, evicting the oldest when full.
func (t *Timeline) Record(typ, detail string) {
	t.mu.Lock()
	t.events[t.next%TimelineCapacity] = TimelineEvent{Wall: time.Now(), Type: typ, Detail: detail}
	t.next++
	t.total++
	t.mu.Unlock()
}

// Snapshot returns the retained events, oldest first.
func (t *Timeline) Snapshot() []TimelineEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if n > TimelineCapacity {
		n = TimelineCapacity
	}
	out := make([]TimelineEvent, 0, n)
	start := t.next - n
	for i := start; i < t.next; i++ {
		out = append(out, t.events[i%TimelineCapacity])
	}
	return out
}

// Total counts every event ever recorded, including evicted ones.
func (t *Timeline) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Last returns the most recent event and true, or false when empty.
func (t *Timeline) Last() (TimelineEvent, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next == 0 {
		return TimelineEvent{}, false
	}
	return t.events[(t.next-1)%TimelineCapacity], true
}
