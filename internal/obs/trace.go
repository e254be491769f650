package obs

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// EventKind is the type tag of a trace event.
type EventKind uint8

// Trace event kinds, one per instrumented simulated action.
const (
	// EvActivate: robot Robot was activated at instant T (recorded in
	// activation order on the stepping goroutine).
	EvActivate EventKind = iota
	// EvMove: robot Robot changed position at instant T; Val is the
	// world-space distance covered.
	EvMove
	// EvSend: a message was submitted on the movement channel
	// (Robot=sender, Peer=recipient, Val=payload bytes).
	EvSend
	// EvDeliver: a message was decoded and delivered (Robot=recipient,
	// Peer=sender, Val=payload bytes).
	EvDeliver
	// EvRetry: the self-healing messenger re-attempted a radio send
	// (Robot=sender, Peer=recipient).
	EvRetry
	// EvFailover: a sender's traffic switched radio→movement.
	EvFailover
	// EvFailback: a sender's traffic switched movement→radio.
	EvFailback
	// EvImplicitAck: a failed-over message was confirmed from observed
	// swarm motion (Lemma 4.1); Robot=sender, Peer=recipient.
	EvImplicitAck
	// EvExpired: a pending radio message hit its deadline and failed
	// over (Robot=sender, Peer=recipient).
	EvExpired
	// EvCrash: a crash-stopped robot was dropped from the activation
	// set at instant T.
	EvCrash
	// EvDisplace: robot Robot was teleported; Val is the displacement
	// length.
	EvDisplace
	// EvNoise: observation noise was applied to Robot's view.
	EvNoise
	// EvDropSight: Robot's sighting of Peer was dropped.
	EvDropSight
	// EvMoveError: Robot's move was scaled by Val (truncation or
	// overshoot).
	EvMoveError
	// EvOutageStart / EvOutageEnd: the injector broke / repaired
	// Robot's radio transmitter.
	EvOutageStart
	EvOutageEnd
	// EvJam: the injector set the radio jamming probability to Val
	// (Robot is -1: environment-wide).
	EvJam

	numEventKinds // sentinel
)

var eventKindNames = [numEventKinds]string{
	"activate", "move", "send", "deliver", "retry", "failover",
	"failback", "implicit-ack", "expired", "crash", "displace", "noise",
	"drop-sight", "move-error", "outage-start", "outage-end", "jam",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// MarshalText implements encoding.TextMarshaler, so JSON carries the
// stable string form instead of the internal ordinal.
func (k EventKind) MarshalText() ([]byte, error) {
	if int(k) >= len(eventKindNames) {
		return nil, fmt.Errorf("obs: unknown event kind %d", int(k))
	}
	return []byte(eventKindNames[k]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *EventKind) UnmarshalText(b []byte) error {
	for i, n := range eventKindNames {
		if n == string(b) {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", b)
}

// Event is one structured trace record. Events carry the simulated
// instant T, never a wall-clock timestamp — wall time differs between
// runs and engines, and the trace is compared in golden tests.
type Event struct {
	// T is the simulated instant the event belongs to.
	T int `json:"t"`
	// Kind tags the event (serialized as its string form).
	Kind EventKind `json:"kind"`
	// Robot is the primary robot index, or -1 for environment-wide
	// events (jamming).
	Robot int `json:"robot"`
	// Peer is the secondary robot index (recipient, dropped target), or
	// -1 when the event has none.
	Peer int `json:"peer"`
	// Val is the event's magnitude (distance, payload bytes, scale
	// factor, probability), 0 when the event has none.
	Val float64 `json:"val"`
}

// compare is the canonical (T, Robot, Kind, Peer, Val) order trace
// snapshots are normalized to. Within one instant a robot's events are
// emitted concurrently under the parallel engine; sorting by this total
// order makes the snapshot engine-independent, because the *set* of
// events per instant is deterministic even when the emission order is
// not.
func (e Event) compare(o Event) int {
	return cmp.Or(cmp.Compare(e.T, o.T), cmp.Compare(e.Robot, o.Robot),
		cmp.Compare(e.Kind, o.Kind), cmp.Compare(e.Peer, o.Peer), cmp.Compare(e.Val, o.Val))
}

// SortEvents sorts events into the canonical (T, Robot, Kind, Peer,
// Val) trace order — the same normalization Ring.Events applies — so a
// step record's fault events are engine-independent. It does not
// allocate.
func SortEvents(evs []Event) {
	slices.SortFunc(evs, Event.compare)
}

// Ring is a bounded ring buffer of trace events: the newest capacity
// events are retained, older ones are overwritten. Appends take a
// mutex — events are emitted from worker goroutines under the parallel
// engine — and cost no allocation after construction.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	next    int // total events ever appended
	dropped int64
}

// DefaultRingCapacity is the trace depth of an observer built with
// capacity 0.
const DefaultRingCapacity = 8192

// NewRing creates a ring retaining the newest capacity events
// (DefaultRingCapacity when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Append records one event, overwriting the oldest when full.
func (r *Ring) Append(e Event) {
	r.mu.Lock()
	r.buf[r.next%len(r.buf)] = e
	r.next++
	if r.next > len(r.buf) {
		r.dropped++
	}
	r.mu.Unlock()
}

// Capacity returns how many events the ring retains.
func (r *Ring) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many events have been overwritten.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns the retained events, normalized for deterministic
// comparison: sorted by (T, Robot, Kind, Peer, Val), and — when the
// ring has wrapped — with every event of the oldest retained instant
// discarded. Appends are monotone in T across instants, so a wrap
// evicts a prefix that can cut at most one instant in half; which of
// that instant's events survive depends on the engine's intra-step
// emission order, so the whole instant is dropped to keep the snapshot
// engine-independent.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	var out []Event
	wrapped := r.next > len(r.buf)
	if !wrapped {
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	r.mu.Unlock()
	if len(out) == 0 {
		return out
	}
	if wrapped {
		minT := out[0].T
		for _, e := range out[1:] {
			if e.T < minT {
				minT = e.T
			}
		}
		kept := out[:0]
		for _, e := range out {
			if e.T != minT {
				kept = append(kept, e)
			}
		}
		out = kept
	}
	SortEvents(out)
	return out
}
