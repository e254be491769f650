package protocol

import (
	"fmt"

	"waggle/internal/encoding"
	"waggle/internal/sim"
)

// asyncCoder maps outbound messages to excursion sequences and, on the
// observing side, excursions back into messages. Protocol Asyncn uses
// the direct §4.2 coder (one diameter per recipient); the §5
// bounded-slice variant prepends the recipient's index on a small set of
// shared diameters.
type asyncCoder interface {
	// encode turns one message into the excursion sequence transmitting
	// it.
	encode(geo *swarmGeometry, msg queuedMessage) ([]txBit, error)
	// newSink builds the per-sender excursion consumer.
	newSink(geo *swarmGeometry, sender int) excursionSink
}

// excursionSink consumes the classified excursions of one sender,
// returning each completed message once.
type excursionSink interface {
	consume(k int, side sideOf) (Received, bool)
}

// standardCoder is the §4.2 scheme: a bit's diameter identifies the
// recipient, its side the value.
type standardCoder struct{}

var _ asyncCoder = standardCoder{}

func (standardCoder) encode(geo *swarmGeometry, msg queuedMessage) ([]txBit, error) {
	frame, err := encoding.EncodeFrame(msg.payload)
	if err != nil {
		return nil, err
	}
	diameter := geo.recipientDiameter(geo.txLabel(msg.to))
	bits := make([]txBit, len(frame))
	for i, b := range frame {
		side := sideOf(0)
		if b {
			side = 1
		}
		bits[i] = txBit{diameter: diameter, side: side}
	}
	return bits, nil
}

func (standardCoder) newSink(geo *swarmGeometry, sender int) excursionSink {
	return &standardSink{geo: geo, sender: sender, rx: make(map[int]*encoding.FrameDecoder)}
}

// standardSink demultiplexes a sender's bits by recipient diameter.
type standardSink struct {
	geo    *swarmGeometry
	sender int
	rx     map[int]*encoding.FrameDecoder
}

func (s *standardSink) consume(k int, side sideOf) (Received, bool) {
	label, ok := s.geo.diameterRecipient(k)
	if !ok {
		return Received{}, false
	}
	to, ok := s.geo.rxRecipient(s.sender, label)
	if !ok {
		return Received{}, false
	}
	dec := s.rx[to]
	if dec == nil {
		dec = encoding.NewFrameDecoder()
		s.rx[to] = dec
	}
	if msg, done := dec.Push(side == 1); done {
		return Received{From: s.sender, To: to, Payload: msg}, true
	}
	return Received{}, false
}

// boundedCoder is the §5 scheme for granulars with a bounded number of
// distinguishable directions: diameter 0 is κ, diameter 1 carries the
// payload bits (side = value), and diameters 2..K+1 carry base-K digits
// of the recipient's index, sent as a ⌈log_K n⌉-symbol prelude before
// every message. It trades slices for steps: the prelude costs
// ⌈log_K n⌉ extra excursions per message (experiment C4).
type boundedCoder struct {
	k int
}

var _ asyncCoder = boundedCoder{}

func (c boundedCoder) encode(geo *swarmGeometry, msg queuedMessage) ([]txBit, error) {
	digits, err := encoding.EncodeIndex(geo.txLabel(msg.to), len(geo.p0), c.k)
	if err != nil {
		return nil, err
	}
	frame, err := encoding.EncodeFrame(msg.payload)
	if err != nil {
		return nil, err
	}
	bits := make([]txBit, 0, len(digits)+len(frame))
	for _, d := range digits {
		bits = append(bits, txBit{diameter: 2 + d, side: 0})
	}
	for _, b := range frame {
		side := sideOf(0)
		if b {
			side = 1
		}
		bits = append(bits, txBit{diameter: 1, side: side})
	}
	return bits, nil
}

func (c boundedCoder) newSink(geo *swarmGeometry, sender int) excursionSink {
	return &boundedSink{
		geo:        geo,
		sender:     sender,
		k:          c.k,
		needDigits: encoding.IndexCodeLen(len(geo.p0), c.k),
		rx:         encoding.NewFrameDecoder(),
	}
}

// boundedSink reassembles index prelude + payload frame.
type boundedSink struct {
	geo        *swarmGeometry
	sender     int
	k          int
	needDigits int
	digits     []int
	rx         *encoding.FrameDecoder
}

func (s *boundedSink) consume(k int, side sideOf) (Received, bool) {
	if k >= 2 {
		// Index digit. A fresh prelude resets any stale state.
		if len(s.digits) >= s.needDigits {
			s.digits = s.digits[:0]
		}
		s.digits = append(s.digits, k-2)
		return Received{}, false
	}
	// Payload bit (diameter 1).
	msg, done := s.rx.Push(side == 1)
	if !done {
		return Received{}, false
	}
	label, err := encoding.DecodeIndex(s.digits, s.k)
	s.digits = s.digits[:0]
	if err != nil {
		return Received{}, false
	}
	to, ok := s.geo.rxRecipient(s.sender, label)
	if !ok {
		return Received{}, false
	}
	return Received{From: s.sender, To: to, Payload: msg}, true
}

// NewAsyncBounded builds the §5 bounded-slice asynchronous protocol:
// like Protocol Asyncn but with only K+2 diameters (κ, one payload
// diameter, K index diameters) regardless of the swarm size, with the
// recipient's index transmitted as a ⌈log_K n⌉-symbol prelude. K must be
// at least 2.
func NewAsyncBounded(n, k int, cfg AsyncNConfig) ([]sim.Behavior, []*Endpoint, error) {
	if k < 2 {
		return nil, nil, fmt.Errorf("protocol: bounded-slice base %d too small", k)
	}
	behaviors, endpoints, err := NewAsyncN(n, cfg)
	if err != nil {
		return nil, nil, err
	}
	sectors := newSectorTable(k+2, n)
	for _, b := range behaviors {
		robot, ok := b.(*asyncNRobot)
		if !ok {
			return nil, nil, fmt.Errorf("protocol: unexpected behavior type %T", b)
		}
		robot.coder = boundedCoder{k: k}
		robot.sectors = sectors
	}
	return behaviors, endpoints, nil
}
