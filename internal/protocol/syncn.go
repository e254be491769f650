package protocol

import (
	"fmt"

	"waggle/internal/encoding"
	"waggle/internal/geom"
	"waggle/internal/sim"
)

// SyncNConfig configures the n-robot synchronous protocols: §3.2
// (observable IDs + sense of direction), §3.3 (anonymous + sense of
// direction) and §3.4 (anonymous, chirality only), selected by Naming.
type SyncNConfig struct {
	// Naming selects the recipient-addressing scheme.
	Naming Naming
	// AmplitudeFrac is the excursion length as a fraction of the
	// sender's granular radius (default 0.6, keeping every excursion
	// strictly inside the granular for collision avoidance).
	AmplitudeFrac float64
	// Levels composes the §3.1 amplitude-level remark with the n-robot
	// routing: a signed excursion length on the recipient's diameter
	// carries log2(Levels) bits per excursion instead of one. Must be a
	// power of two; 0 selects the paper's plain one-bit coding. Assumes
	// the robots share the protocol configuration (in particular the
	// amplitude fraction), the n-robot analogue of §3.1's "each robot
	// knows the maximum distance the other robot can cover".
	Levels int
	// SigmaLocal optionally bounds each robot's per-activation move in
	// its own frame units (0 or missing = effectively unbounded). The
	// excursion amplitude is capped to it.
	SigmaLocal []float64
}

// normalizeSyncNConfig fills defaults and validates.
func normalizeSyncNConfig(n int, cfg SyncNConfig) (SyncNConfig, error) {
	if n < 2 {
		return cfg, fmt.Errorf("protocol: SyncN needs >= 2 robots, got %d", n)
	}
	if cfg.Naming == 0 {
		cfg.Naming = NamingSEC
	}
	if cfg.AmplitudeFrac == 0 {
		cfg.AmplitudeFrac = defaultSyncNAmplitudeFrac
	}
	if cfg.AmplitudeFrac <= 0 || cfg.AmplitudeFrac >= 1 {
		return cfg, fmt.Errorf("protocol: amplitude fraction %v outside (0, 1)", cfg.AmplitudeFrac)
	}
	if cfg.Levels != 0 {
		if _, err := encoding.NewLevels(cfg.Levels); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

const (
	defaultSyncNAmplitudeFrac = 0.6
	// eventTolFrac is the decoder's movement-detection threshold as a
	// fraction of the sender's granular radius. Movements in the SSM
	// simulation are exact, so the threshold only needs to clear float
	// noise while staying below any plausible amplitude.
	eventTolFrac = 1e-7
)

// NewSyncN builds behaviors and endpoints for an n-robot synchronous
// swarm. The robots must run under a synchronous scheduler; frames must
// share handedness (chirality), and for the IDs and Lex schemes they
// must also share the +y direction (sense of direction).
func NewSyncN(n int, cfg SyncNConfig) ([]sim.Behavior, []*Endpoint, error) {
	cfg, err := normalizeSyncNConfig(n, cfg)
	if err != nil {
		return nil, nil, err
	}
	behaviors := make([]sim.Behavior, n)
	endpoints := make([]*Endpoint, n)
	sectors := newSectorTable(n, n)
	for i := 0; i < n; i++ {
		endpoints[i] = newEndpoint(i, n)
		var sigma float64
		if i < len(cfg.SigmaLocal) {
			sigma = cfg.SigmaLocal[i]
		}
		behaviors[i] = &syncNRobot{cfg: cfg, endpoint: endpoints[i], sigma: sigma, sectors: sectors}
	}
	return behaviors, endpoints, nil
}

// txBit is one queued excursion: a value on a diameter. mag scales the
// excursion amplitude for level coding (0 means the full amplitude —
// plain one-bit coding).
type txBit struct {
	diameter int
	side     sideOf
	mag      float64
}

// syncNRobot is one robot of the synchronous n-robot protocols. On even
// activations it performs at most one excursion (diameter = recipient,
// side = bit) inside its granular; on odd activations it returns home
// and decodes every other robot's visible excursion.
type syncNRobot struct {
	cfg      SyncNConfig
	endpoint *Endpoint
	sigma    float64

	rk      reckoner
	sectors *sectorTable // the swarm's shared sector table, n diameters
	geo     *swarmGeometry
	// decodable[j] reports whether the robot decodes robot j's
	// excursions: j is another robot with a label and a horizon.
	decodable   []bool
	activations int
	amplitude   float64
	cfgErr      error
	codec       encoding.Levels
	hasLevels   bool

	txBits []txBit
	rx     map[[2]int]*encoding.FrameDecoder
}

var _ sim.Behavior = (*syncNRobot)(nil)

// Step implements sim.Behavior.
func (r *syncNRobot) Step(view sim.View) geom.Point {
	count := r.activations
	r.activations++
	if !r.rk.initialized() {
		r.initFrom(view)
	}
	if count%2 == 1 {
		// The previous even step's excursion has now been observed by
		// every robot; a drained transmit queue means delivery.
		r.decodeAll(view)
		if len(r.txBits) == 0 && r.endpoint.PendingMessages() == 0 {
			r.endpoint.inflight = false
		}
		return r.rk.moveBy(geom.Point{}.Sub(r.rk.selfInit()))
	}
	if r.cfgErr != nil {
		return r.rk.stay()
	}
	bit, ok := r.nextBit()
	if !ok {
		return r.rk.stay() // silent
	}
	dir := r.geo.slicers[r.geo.self].direction(bit.diameter, bit.side, r.geo.sectors)
	mag := bit.mag
	if mag == 0 {
		mag = 1
	}
	if r.hasLevels {
		r.endpoint.sentBits += r.codec.BitsPerSymbol()
	} else {
		r.endpoint.sentBits++
	}
	return r.rk.moveBy(dir.Scale(r.amplitude * mag))
}

// Err returns the configuration error detected at init, if any.
func (r *syncNRobot) Err() error { return r.cfgErr }

func (r *syncNRobot) initFrom(view sim.View) {
	r.rk.init()
	r.geo = buildSwarmGeometry(view, r.cfg.Naming, false, r.sectors)
	r.cfgErr = r.geo.err
	r.decodable = make([]bool, view.N())
	for j := range r.decodable {
		r.decodable[j] = j != view.Self && r.geo.canDecode(j)
	}
	radius := r.geo.radii[view.Self]
	r.amplitude = r.cfg.AmplitudeFrac * radius
	if r.sigma > 0 && r.amplitude > r.sigma {
		r.amplitude = r.sigma
	}
	if r.cfg.Levels != 0 {
		codec, err := encoding.NewLevels(r.cfg.Levels)
		if err != nil {
			r.cfgErr = err
		} else {
			r.codec, r.hasLevels = codec, true
		}
	}
	minMag := 1.0
	if r.hasLevels {
		minMag = 1 / float64(2*r.cfg.Levels)
	}
	if r.cfgErr == nil && r.amplitude*minMag < 10*eventTolFrac*radius {
		r.cfgErr = fmt.Errorf("%w: amplitude %v invisible against granular %v",
			ErrAmplitudeExceedsSigma, r.amplitude*minMag, radius)
	}
	r.rx = make(map[[2]int]*encoding.FrameDecoder)
}

// nextBit produces the next excursion, refilling from the outbox.
func (r *syncNRobot) nextBit() (txBit, bool) {
	for len(r.txBits) == 0 {
		msg, ok := r.endpoint.pop()
		if !ok {
			r.endpoint.inflight = false
			return txBit{}, false
		}
		frame, err := encoding.EncodeFrame(msg.payload)
		if err != nil {
			continue
		}
		diameter := r.geo.recipientDiameter(r.geo.txLabel(msg.to))
		if r.hasLevels {
			for _, sym := range r.codec.SymbolsFromBits(frame) {
				off, err := r.codec.Offset(sym)
				if err != nil {
					continue
				}
				bit := txBit{diameter: diameter, mag: off}
				if off < 0 {
					bit.side, bit.mag = 1, -off
				}
				r.txBits = append(r.txBits, bit)
			}
		} else {
			r.txBits = make([]txBit, len(frame))
			for i, b := range frame {
				side := sideOf(0)
				if b {
					side = 1
				}
				r.txBits[i] = txBit{diameter: diameter, side: side}
			}
		}
		r.endpoint.inflight = true
	}
	bit := r.txBits[0]
	r.txBits = r.txBits[1:]
	return bit, true
}

// decodeAll scans every other robot for a visible excursion. In the
// synchronous protocol all robots share the even/odd parity, so every
// excursion is visible at exactly one odd instant.
func (r *syncNRobot) decodeAll(view sim.View) {
	for j, ok := range r.decodable {
		if !ok {
			continue
		}
		d := view.Points[j].Sub(r.rk.toCurrent(r.geo.p0[j]))
		if geom.NewBand(eventTolFrac*r.geo.radii[j]).Within(d.X, d.Y) {
			continue
		}
		k, side := r.geo.slicers[j].classify(d, r.geo.sectors)
		label, ok := r.geo.diameterRecipient(k)
		if !ok {
			continue
		}
		to, ok := r.geo.rxRecipient(j, label)
		if !ok {
			continue
		}
		key := [2]int{j, to}
		dec := r.rx[key]
		if dec == nil {
			dec = encoding.NewFrameDecoder()
			r.rx[key] = dec
		}
		if !r.hasLevels {
			if msg, done := dec.Push(side == 1); done {
				r.endpoint.deliver(Received{From: j, To: to, Payload: msg})
			}
			continue
		}
		// Level coding: the signed excursion length along the diameter
		// carries a whole symbol. Amplitudes are ratios against the
		// sender's granular radius, hence frame-invariant.
		signed := d.Len() / (r.cfg.AmplitudeFrac * r.geo.radii[j])
		if side == 1 {
			signed = -signed
		}
		sym := r.codec.Symbol(signed)
		for _, bit := range r.codec.BitsFromSymbols([]int{sym}) {
			msg, done := dec.Push(bit)
			if !done {
				continue
			}
			r.endpoint.deliver(Received{From: j, To: to, Payload: msg})
			// Discard the zero-padding of the frame's final symbol.
			break
		}
	}
}
