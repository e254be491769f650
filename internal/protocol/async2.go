package protocol

import (
	"fmt"

	"waggle/internal/encoding"
	"waggle/internal/geom"
	"waggle/internal/sim"
)

// Async2Drift selects what a robot does on the horizon line between
// bits.
type Async2Drift int

const (
	// DriftAway is the paper's base Protocol Async2: always move away
	// from the other robot, so the pair drifts apart forever (the
	// drawback discussed at the end of §4.1).
	DriftAway Async2Drift = iota + 1
	// DriftAlternate is the §4.1 variant: alternate the direction on H
	// between waiting phases so the robots neither separate unboundedly
	// nor collide. The robot confines itself to a corridor on H
	// extending away from the peer; within one waiting phase the
	// direction stays constant (Lemma 4.1's hypothesis) and steps decay
	// geometrically near the corridor boundary — the paper's
	// "divide the covered distance by x > 1" trick, whose
	// infinitesimally-small-movement drawback experiment C6 measures.
	DriftAlternate
)

// Async2Config configures the two-robot asynchronous protocol of §4.1.
type Async2Config struct {
	// Drift selects the on-horizon behavior (default DriftAway).
	Drift Async2Drift
	// StepFrac is the basic movement quantum as a fraction of the
	// initial separation (default 0.05).
	StepFrac float64
	// StepDivisor is the x > 1 of §4.1's alternating variant: near the
	// corridor boundary each move covers the remaining distance divided
	// by StepDivisor, so the boundary is approached but never reached
	// (default 2). Ignored under DriftAway.
	StepDivisor float64
	// CorridorFrac is the length of the alternating variant's corridor
	// on H, as a fraction of the initial separation (default 0.25).
	CorridorFrac float64
	// SigmaLocal bounds each robot's per-activation move in its own
	// frame units (0 = effectively unbounded).
	SigmaLocal [2]float64
}

// async2Phase is the sender-side state machine.
type async2Phase int

const (
	// phaseHorizon: moving on H (probing / separating); allowed to start
	// an excursion once the peer has been seen to change twice.
	phaseHorizon async2Phase = iota + 1
	// phaseOut: moving perpendicular to H, transmitting a bit, waiting
	// for the implicit acknowledgement.
	phaseOut
	// phaseReturn: moving back to the departure point on H.
	phaseReturn
)

const defaultAsync2StepFrac = 0.05

// NewAsync2 builds the behaviors and endpoints of Protocol Async2. The
// two robots may run under any fair scheduler; the first instant must
// activate both robots (the paper's "all robots awake at t0" — wrap the
// scheduler in sim.FirstSync).
func NewAsync2(cfg Async2Config) ([]sim.Behavior, []*Endpoint, error) {
	if cfg.Drift == 0 {
		cfg.Drift = DriftAway
	}
	if cfg.StepFrac == 0 {
		cfg.StepFrac = defaultAsync2StepFrac
	}
	if cfg.StepFrac <= 0 || cfg.StepFrac >= 0.5 {
		return nil, nil, fmt.Errorf("protocol: step fraction %v outside (0, 0.5)", cfg.StepFrac)
	}
	if cfg.StepDivisor == 0 {
		cfg.StepDivisor = 2
	}
	if cfg.Drift == DriftAlternate && cfg.StepDivisor <= 1 {
		return nil, nil, fmt.Errorf("protocol: step divisor %v must exceed 1", cfg.StepDivisor)
	}
	if cfg.CorridorFrac == 0 {
		cfg.CorridorFrac = 0.25
	}
	if cfg.CorridorFrac <= 0 || cfg.CorridorFrac >= 0.5 {
		return nil, nil, fmt.Errorf("protocol: corridor fraction %v outside (0, 0.5)", cfg.CorridorFrac)
	}
	endpoints := []*Endpoint{newEndpoint(0, 2), newEndpoint(1, 2)}
	behaviors := make([]sim.Behavior, 2)
	for i := 0; i < 2; i++ {
		behaviors[i] = &async2Robot{
			cfg:      cfg,
			endpoint: endpoints[i],
			sigma:    cfg.SigmaLocal[i],
		}
	}
	return behaviors, endpoints, nil
}

// async2Robot is one robot of Protocol Async2. Between bits it moves
// along the horizon line H (the line through the two initial positions);
// to send a bit it departs perpendicular to H — East of its own North
// for 0, West for 1 — keeps going until it has seen the peer's position
// change twice (Lemma 4.1 then guarantees the peer saw the excursion),
// returns to H, and separates along H until the peer changed twice again
// so consecutive equal bits stay distinguishable.
type async2Robot struct {
	cfg      Async2Config
	endpoint *Endpoint
	sigma    float64

	rk    reckoner
	north geom.Vec // unit: away from the peer's initial position
	east  geom.Vec // unit: north rotated -90° (chirality-shared right)
	step  float64  // current movement quantum (local units)
	tol   float64  // movement-detection tolerance

	peerHome geom.Point // init-local
	peerLast geom.Point // last observed peer position (init-local)
	peerSeen bool
	changes  int // peer position changes observed since last reset

	phase      async2Phase
	handshaken bool    // peer observed to change twice at least once
	outSign    float64 // +1 east, -1 west for the current excursion
	foot       geom.Point
	horizonDir float64 // +1 away / current drift sign on H
	corridor   float64 // DriftAlternate: corridor length on H (local units)

	tx *txQueueBits

	// Decoder state.
	rx        *encoding.FrameDecoder
	rxWasOn   bool
	peerNorth geom.Vec
	peerEast  geom.Vec
}

var _ sim.Behavior = (*async2Robot)(nil)

// txQueueBits streams the frame bits of queued messages.
type txQueueBits struct {
	endpoint *Endpoint
	bits     []bool
}

// next pops the next bit, refilling from the endpoint's outbox.
func (q *txQueueBits) next() (bool, bool) {
	for len(q.bits) == 0 {
		msg, ok := q.endpoint.pop()
		if !ok {
			q.endpoint.inflight = false
			return false, false
		}
		frame, err := encoding.EncodeFrame(msg.payload)
		if err != nil {
			continue
		}
		q.bits = frame
		q.endpoint.inflight = true
	}
	b := q.bits[0]
	q.bits = q.bits[1:]
	return b, true
}

// Step implements sim.Behavior.
func (r *async2Robot) Step(view sim.View) geom.Point {
	if !r.rk.initialized() {
		r.initFrom(view)
	}
	r.observePeer(view)
	r.decode(view)

	switch r.phase {
	case phaseOut:
		if r.changes >= 2 {
			// Implicit acknowledgement received: the peer has observed
			// this excursion (Lemma 4.1), so a drained queue means the
			// message arrived. Come back to H.
			if len(r.tx.bits) == 0 && r.endpoint.PendingMessages() == 0 {
				r.endpoint.inflight = false
			}
			r.phase = phaseReturn
			return r.stepReturn()
		}
		return r.outMove()
	case phaseReturn:
		return r.stepReturn()
	default:
		return r.stepHorizon()
	}
}

func (r *async2Robot) initFrom(view sim.View) {
	r.rk.init()
	r.peerHome = view.Points[view.Other()]
	toPeer := r.peerHome.Sub(geom.Point{})
	r.north = toPeer.Neg().Unit()
	r.east = r.north.Rotate(-halfPi)
	sep := toPeer.Len()
	r.step = r.cfg.StepFrac * sep
	if r.sigma > 0 && r.step > r.sigma {
		r.step = r.sigma
	}
	r.corridor = r.cfg.CorridorFrac * sep
	r.tol = 1e-9 * sep
	r.phase = phaseHorizon
	r.horizonDir = 1
	r.tx = &txQueueBits{endpoint: r.endpoint}
	r.rx = encoding.NewFrameDecoder()
	r.rxWasOn = true
	// The peer's axes, for decoding its excursions: its North is the
	// opposite of ours; its East is its North rotated -90° in the shared
	// chirality.
	r.peerNorth = r.north.Neg()
	r.peerEast = r.peerNorth.Rotate(-halfPi)
}

// observePeer updates the peer-change counter (the Lemma 4.1 predicate).
func (r *async2Robot) observePeer(view sim.View) {
	cur := r.rk.toInit(view.Points[view.Other()])
	if !r.peerSeen {
		r.peerSeen = true
		r.peerLast = cur
		return
	}
	if geom.NewBand(r.tol).Beyond(cur.X-r.peerLast.X, cur.Y-r.peerLast.Y) {
		r.changes++
		r.peerLast = cur
	}
}

// resetChanges starts a new waiting phase: the change baseline becomes
// the peer position observed at this activation.
func (r *async2Robot) resetChanges() { r.changes = 0 }

// stepHorizon moves along H and starts excursions once allowed.
func (r *async2Robot) stepHorizon() geom.Point {
	if r.changes >= 2 {
		r.handshaken = true
	}
	if r.handshaken && r.changes >= 2 {
		if bit, ok := r.tx.next(); ok {
			// Depart perpendicular to H.
			r.outSign = 1
			if bit {
				r.outSign = -1
			}
			r.foot = r.rk.selfInit()
			r.phase = phaseOut
			r.resetChanges()
			r.endpoint.sentBits++
			return r.outMove()
		}
	}
	// Keep moving on H. Remark 4.3: an active robot always moves.
	if r.cfg.Drift == DriftAlternate {
		if r.handshaken && r.changes >= 2 {
			// A waiting phase completed with nothing to send: flip the
			// drift direction for the next phase.
			r.horizonDir = -r.horizonDir
			r.resetChanges()
		}
		return r.rk.moveBy(r.north.Scale(r.horizonDir * r.corridorStep()))
	}
	return r.rk.moveBy(r.north.Scale(r.horizonDir * r.step))
}

// corridorStep returns the next on-H move length under DriftAlternate:
// the full quantum while far from the corridor boundary, then the
// remaining distance divided by StepDivisor so the boundary is never
// reached while the direction stays constant.
func (r *async2Robot) corridorStep() float64 {
	axial := geom.V(r.rk.selfInit().X, r.rk.selfInit().Y).Dot(r.north)
	remaining := r.corridor - axial
	if r.horizonDir < 0 {
		remaining = axial
	}
	if remaining <= 0 {
		return 0 // defensive: outside the corridor, stand still this turn
	}
	decayed := remaining / r.cfg.StepDivisor
	if decayed < r.step {
		return decayed
	}
	return r.step
}

// outMove continues the perpendicular excursion (same direction every
// activation, as Lemma 4.1 requires).
func (r *async2Robot) outMove() geom.Point {
	return r.rk.moveBy(r.east.Scale(r.outSign * r.step))
}

// stepReturn moves back towards the departure foot, re-entering the
// horizon phase upon arrival.
func (r *async2Robot) stepReturn() geom.Point {
	self := r.rk.selfInit()
	maxStep := r.step
	if r.sigma > 0 && r.sigma < maxStep {
		maxStep = r.sigma
	}
	next := moveToward(self, r.foot, maxStep)
	if next.Eq(r.foot) {
		r.phase = phaseHorizon
		r.resetChanges()
	}
	return r.rk.moveBy(next.Sub(self))
}

// decode watches the peer's perpendicular offset from H and emits a bit
// at every on-H -> off-H transition.
func (r *async2Robot) decode(view sim.View) {
	peer := r.rk.toInit(view.Points[view.Other()])
	// H passes through both initial positions with direction north; the
	// peer's perpendicular offset is the east-component of its
	// displacement from its own home.
	d := peer.Sub(r.peerHome)
	e := d.Dot(r.peerEast)
	onH := !(e > r.offTol() || e < -r.offTol())
	if onH {
		r.rxWasOn = true
		return
	}
	if !r.rxWasOn {
		return // still the same excursion
	}
	r.rxWasOn = false
	bit := e < 0 // peer moved to ITS west => bit 1
	if msg, done := r.rx.Push(bit); done {
		r.endpoint.deliver(Received{From: view.Other(), To: view.Self, Payload: msg})
	}
}

// offTol is the off-horizon classification threshold: a small multiple
// of the movement-detection tolerance — safely below the perpendicular
// reach of any excursion (movements in the simulation are exact), safely
// above accumulated float noise.
func (r *async2Robot) offTol() float64 {
	return 10 * r.tol
}
