package protocol

import (
	"errors"
	"fmt"

	"waggle/internal/encoding"
	"waggle/internal/geom"
	"waggle/internal/sim"
)

// Sync2Config configures the two-robot synchronous protocol of §3.1.
type Sync2Config struct {
	// Levels selects the amplitude-level extension (§3.1 remark): a
	// power of two >= 2. Zero means plain one-bit-per-move coding
	// (equivalent to Levels == 2 in efficiency accounting but using the
	// full swing). Using k levels transmits log2(k) bits per excursion.
	Levels int
	// AmplitudeFrac is the maximum swing as a fraction of the initial
	// separation (default 0.25). Both robots derive the same world-space
	// amplitude from their own views, so the value is unit-free.
	AmplitudeFrac float64
	// SigmaLocal bounds each robot's per-activation move in its own
	// frame units, index-aligned with the two behaviors. The amplitude
	// must not exceed it; NewSync2 cannot check (the separation is only
	// observed at run time), so the behavior verifies at its first
	// activation and records a configuration error on its endpoint.
	SigmaLocal [2]float64
}

// ErrAmplitudeExceedsSigma is recorded on an endpoint when the
// configured swing cannot be covered in one activation, which would
// desynchronise the parity-based coding.
var ErrAmplitudeExceedsSigma = errors.New("protocol: amplitude exceeds sigma")

const (
	defaultAmplitudeFrac = 0.25
	// sync2EventFrac is the decoder's movement-detection threshold as a
	// fraction of the swing amplitude.
	sync2EventFrac = 0.02
)

// NewSync2 builds the behaviors and endpoints for the two-robot
// synchronous protocol. Behavior i drives robot i; the robots must be
// run under a synchronous scheduler.
func NewSync2(cfg Sync2Config) ([]sim.Behavior, []*Endpoint, error) {
	if cfg.AmplitudeFrac == 0 {
		cfg.AmplitudeFrac = defaultAmplitudeFrac
	}
	if cfg.AmplitudeFrac < 0 || cfg.AmplitudeFrac >= 0.5 {
		return nil, nil, fmt.Errorf("protocol: amplitude fraction %v outside (0, 0.5)", cfg.AmplitudeFrac)
	}
	levels := cfg.Levels
	if levels == 0 {
		levels = 2
	}
	codec, err := encoding.NewLevels(levels)
	if err != nil {
		return nil, nil, err
	}
	endpoints := []*Endpoint{newEndpoint(0, 2), newEndpoint(1, 2)}
	behaviors := make([]sim.Behavior, 2)
	for i := 0; i < 2; i++ {
		behaviors[i] = &sync2Robot{
			cfg:      cfg,
			codec:    codec,
			endpoint: endpoints[i],
			sigma:    cfg.SigmaLocal[i],
		}
	}
	return behaviors, endpoints, nil
}

// sync2Robot is one robot of the §3.1 protocol: on even activations it
// swings perpendicular to the robot-robot axis (right of the direction
// towards the peer = symbol high bit 0, per the shared chirality), on
// odd activations it returns home. It simultaneously decodes the peer's
// swings.
type sync2Robot struct {
	cfg      Sync2Config
	codec    encoding.Levels
	endpoint *Endpoint
	sigma    float64

	rk          reckoner
	activations int

	// Geometry fixed at init (init-local coordinates).
	peerHome  geom.Point
	rightAxis geom.Vec // unit vector: "right of the direction towards the peer"
	amplitude float64
	cfgErr    error

	// Transmit state.
	txSymbols []int

	// Receive state.
	rx *encoding.FrameDecoder
}

var _ sim.Behavior = (*sync2Robot)(nil)

// Step implements sim.Behavior.
func (r *sync2Robot) Step(view sim.View) geom.Point {
	count := r.activations
	r.activations++
	if !r.rk.initialized() {
		r.initFrom(view)
	}
	if count%2 == 1 {
		// Odd step: observe the peer's swing, then come back home. A
		// transmission completes here: the swing of the previous even
		// step has now been observed by the peer.
		r.decode(view)
		if len(r.txSymbols) == 0 && r.endpoint.PendingMessages() == 0 {
			r.endpoint.inflight = false
		}
		return r.rk.moveBy(geom.Point{}.Sub(r.rk.selfInit()))
	}
	// Even step: optionally transmit one symbol. (The peer is home on
	// even observations; nothing to decode.)
	if r.cfgErr != nil {
		return r.rk.stay()
	}
	sym, ok := r.nextSymbol()
	if !ok {
		return r.rk.stay() // silent: no movement without pending messages
	}
	off, err := r.codec.Offset(sym)
	if err != nil {
		// Unreachable: symbols come from the codec itself.
		return r.rk.stay()
	}
	delta := r.rightAxis.Scale(off * r.amplitude)
	r.endpoint.sentBits += r.codec.BitsPerSymbol()
	return r.rk.moveBy(delta)
}

// Err returns the configuration error detected at init, if any.
func (r *sync2Robot) Err() error { return r.cfgErr }

func (r *sync2Robot) initFrom(view sim.View) {
	r.rk.init()
	r.peerHome = view.Points[view.Other()]
	toPeer := r.peerHome.Sub(geom.Point{}).Unit()
	// Right of the direction towards the peer; chirality makes both
	// robots agree on this half-plane.
	r.rightAxis = toPeer.Rotate(-halfPi)
	r.amplitude = r.cfg.AmplitudeFrac * r.peerHome.Sub(geom.Point{}).Len()
	if r.sigma > 0 && r.amplitude > r.sigma {
		r.cfgErr = fmt.Errorf("%w: swing %v > sigma %v", ErrAmplitudeExceedsSigma, r.amplitude, r.sigma)
	}
	r.rx = encoding.NewFrameDecoder()
}

// nextSymbol produces the next symbol to transmit, pulling a new message
// from the outbox when the current one is exhausted.
func (r *sync2Robot) nextSymbol() (int, bool) {
	for len(r.txSymbols) == 0 {
		msg, ok := r.endpoint.pop()
		if !ok {
			r.endpoint.inflight = false
			return 0, false
		}
		bits, err := encoding.EncodeFrame(msg.payload)
		if err != nil {
			continue // reject oversized message (validated at Send; defensive)
		}
		_ = msg.to // two-robot protocol: the recipient is always the peer
		r.txSymbols = r.codec.SymbolsFromBits(bits)
		r.endpoint.inflight = true
	}
	sym := r.txSymbols[0]
	r.txSymbols = r.txSymbols[1:]
	return sym, true
}

// decode inspects the peer's current displacement from its home and, if
// it is swinging, recovers the transmitted symbol.
func (r *sync2Robot) decode(view sim.View) {
	peer := view.Points[view.Other()]
	d := peer.Sub(r.rk.toCurrent(r.peerHome))
	if geom.NewBand(sync2EventFrac*r.amplitude).Within(d.X, d.Y) {
		return
	}
	// The peer swings relative to ITS axis: right of the direction from
	// the peer towards us.
	peerRight := geom.Point{}.Sub(r.peerHome).Unit().Rotate(-halfPi)
	norm := d.Dot(peerRight) / r.amplitude
	sym := r.codec.Symbol(norm)
	for _, bit := range r.codec.BitsFromSymbols([]int{sym}) {
		msg, ok := r.rx.Push(bit)
		if !ok {
			continue
		}
		r.endpoint.deliver(Received{
			From:    view.Other(),
			To:      view.Self,
			Payload: msg,
		})
		// The sender pads the final symbol of a frame with zero bits;
		// discard the rest of this symbol so the padding cannot bleed
		// into the next frame's header.
		break
	}
}

// halfPi is π/2; rotating by -halfPi is the chirality-shared "to the
// right of" operator.
const halfPi = 1.5707963267948966
