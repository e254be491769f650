package protocol

import (
	"errors"
	"fmt"

	"waggle/internal/encoding"
)

// ErrSelfSend is returned when a robot addresses a message to itself.
var ErrSelfSend = errors.New("protocol: cannot send to self")

// queuedMessage is an outbound message awaiting transmission.
type queuedMessage struct {
	to      int
	payload []byte
}

// Endpoint is the application-facing mailbox of one robot. The
// simulation is single-goroutine (the SSM model is sequential), so
// Endpoint performs no locking; Send must not be called concurrently
// with World.Step.
type Endpoint struct {
	self      int
	n         int
	outbox    []queuedMessage
	inbox     []Received
	overheard []Received
	sentBits  int
	inflight  bool
}

// newEndpoint creates the endpoint of robot self in an n-robot system.
func newEndpoint(self, n int) *Endpoint {
	return &Endpoint{self: self, n: n}
}

// Self returns the robot's home index.
func (e *Endpoint) Self() int { return e.self }

// Send queues a message for the robot with home index to.
func (e *Endpoint) Send(to int, payload []byte) error {
	if to == e.self {
		return ErrSelfSend
	}
	if to < 0 || to >= e.n {
		return fmt.Errorf("protocol: recipient %d out of range [0,%d)", to, e.n)
	}
	if len(payload) > encoding.MaxMessageLen {
		return encoding.ErrMessageTooLong
	}
	msg := make([]byte, len(payload))
	copy(msg, payload)
	e.outbox = append(e.outbox, queuedMessage{to: to, payload: msg})
	return nil
}

// SendAll queues one broadcast transmission: the message goes out once
// on the sender's own diameter and every robot delivers it (the §1
// efficient one-to-all). Cost: one frame, versus n-1 frames for
// Broadcast. Supported by the n-robot protocols; the two-robot
// protocols treat it as a unicast to the peer.
func (e *Endpoint) SendAll(payload []byte) error {
	if len(payload) > encoding.MaxMessageLen {
		return encoding.ErrMessageTooLong
	}
	msg := make([]byte, len(payload))
	copy(msg, payload)
	e.outbox = append(e.outbox, queuedMessage{to: ToAll, payload: msg})
	return nil
}

// Broadcast queues the same message for every other robot as n-1
// unicasts. SendAll achieves the same delivery with a single
// transmission; Broadcast remains for recipient-specific payloads and
// for measuring the §1 efficiency gap (experiment C11).
func (e *Endpoint) Broadcast(payload []byte) error {
	for to := 0; to < e.n; to++ {
		if to == e.self {
			continue
		}
		if err := e.Send(to, payload); err != nil {
			return err
		}
	}
	return nil
}

// Receive drains and returns the messages addressed to this robot, in
// delivery order.
func (e *Endpoint) Receive() []Received {
	out := e.inbox
	e.inbox = nil
	return out
}

// Overheard drains and returns the messages this robot decoded that were
// addressed to other robots. Every robot observes every movement, so
// every robot can reconstruct all traffic — the fault-tolerance
// redundancy remarked in §3.4.
func (e *Endpoint) Overheard() []Received {
	out := e.overheard
	e.overheard = nil
	return out
}

// Idle reports whether the endpoint has nothing queued and nothing in
// flight.
func (e *Endpoint) Idle() bool { return len(e.outbox) == 0 && !e.inflight }

// PendingMessages returns how many messages are queued (excluding any
// partially-transmitted one).
func (e *Endpoint) PendingMessages() int { return len(e.outbox) }

// SentBits returns how many bits (or symbols, for level coding) the
// robot has transmitted — the step-cost metric of the experiments.
func (e *Endpoint) SentBits() int { return e.sentBits }

// pop dequeues the next outbound message.
func (e *Endpoint) pop() (queuedMessage, bool) {
	if len(e.outbox) == 0 {
		return queuedMessage{}, false
	}
	m := e.outbox[0]
	e.outbox = e.outbox[1:]
	return m, true
}

// deliver routes a decoded message into the inbox or the overheard log.
func (e *Endpoint) deliver(r Received) {
	if r.To == e.self {
		e.inbox = append(e.inbox, r)
	} else {
		e.overheard = append(e.overheard, r)
	}
}
