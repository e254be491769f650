package protocol

import (
	"fmt"

	"waggle/internal/geom"
	"waggle/internal/sim"
)

// AsyncNConfig configures the n-robot asynchronous protocol of §4.2.
type AsyncNConfig struct {
	// Naming selects the recipient-addressing scheme (default NamingSEC,
	// the weakest capability set of §4.2).
	Naming Naming
	// AmplitudeFrac is the never-reached excursion extent as a fraction
	// of the granular radius (default 0.9; must stay below 1 so robots
	// remain strictly inside their granulars).
	AmplitudeFrac float64
	// StepFrac is the basic movement quantum as a fraction of the
	// robot's granular radius (default 0.1).
	StepFrac float64
	// StepDivisor is the x > 1 of §4.2: approaching a boundary that must
	// never be reached, each move covers the remaining distance divided
	// by StepDivisor (default 8).
	StepDivisor float64
	// SigmaLocal optionally bounds each robot's per-activation move in
	// its own frame units (0 = effectively unbounded).
	SigmaLocal []float64
	// DirectionResolution models §5's round-off limitation: robots can
	// only realise and recognise this many equally-spaced directions
	// (0 = unlimited, the paper's infinite-precision default). Senders
	// snap their movement directions to the resolution grid and decoders
	// snap observed directions before classifying. When the protocol
	// needs more diameters than the resolution can separate, distinct
	// recipients collapse — which is precisely why §5 proposes the
	// bounded-slice variant (NewAsyncBounded).
	DirectionResolution int
}

// asyncNPhase is the sender-side state machine of Protocol Asyncn.
type asyncNPhase int

const (
	// phaseKappa: moving on the idle slice κ (idling between legs, or
	// the post-bit separator leg).
	phaseKappa asyncNPhase = iota + 1
	// phaseToCenter: returning to the granular centre before an
	// excursion.
	phaseToCenter
	// phaseSlice: excursing on the recipient's diameter, transmitting a
	// bit, waiting until every robot's position changed twice.
	phaseSlice
	// phaseBackToCenter: returning from the excursion to the centre.
	phaseBackToCenter
)

// observed is the 24-byte record a robot keeps of each robot it
// observes: where it last counted the robot's position as changed, how
// often since the last reset, and where it last classified it.
type observed struct {
	// last is the robot's position, in init-local coordinates, at its
	// last counted change.
	last geom.Point
	// changes counts the robot's position changes since the last reset,
	// up to 2: the §4.2 predicate only asks whether it changed twice.
	changes int32
	// sector is the sector m = k + side·D in which the robot's
	// displacement from home was last classified, atCentre when it was
	// last seen at home, or undecodable for the observer itself and for
	// a robot whose movements it cannot classify.
	sector int32
}

const (
	atCentre    = -1
	undecodable = -2
)

const (
	defaultAsyncNAmplitudeFrac = 0.9
	defaultAsyncNStepFrac      = 0.1
	defaultAsyncNStepDivisor   = 8
	// centerTolFrac classifies a sender within this fraction of its
	// granular radius of its home as "at the centre".
	centerTolFrac = 1e-7
	// changeFrac counts a robot's position as changed once it lies more
	// than this fraction of its granular radius from the position of
	// its last counted change.
	changeFrac = 1e-9
)

// NewAsyncN builds behaviors and endpoints for Protocol Asyncn: n
// robots, any fair scheduler (wrapped in sim.FirstSync so everyone
// records P(t0)), chirality only under the default SEC naming.
func NewAsyncN(n int, cfg AsyncNConfig) ([]sim.Behavior, []*Endpoint, error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("protocol: AsyncN needs >= 2 robots, got %d", n)
	}
	if cfg.Naming == 0 {
		cfg.Naming = NamingSEC
	}
	if cfg.AmplitudeFrac == 0 {
		cfg.AmplitudeFrac = defaultAsyncNAmplitudeFrac
	}
	if cfg.AmplitudeFrac <= 0 || cfg.AmplitudeFrac >= 1 {
		return nil, nil, fmt.Errorf("protocol: amplitude fraction %v outside (0, 1)", cfg.AmplitudeFrac)
	}
	if cfg.StepFrac == 0 {
		cfg.StepFrac = defaultAsyncNStepFrac
	}
	if cfg.StepFrac <= 0 || cfg.StepFrac >= cfg.AmplitudeFrac {
		return nil, nil, fmt.Errorf("protocol: step fraction %v outside (0, amplitude)", cfg.StepFrac)
	}
	if cfg.StepDivisor == 0 {
		cfg.StepDivisor = defaultAsyncNStepDivisor
	}
	if cfg.StepDivisor <= 1 {
		return nil, nil, fmt.Errorf("protocol: step divisor %v must exceed 1", cfg.StepDivisor)
	}
	behaviors := make([]sim.Behavior, n)
	endpoints := make([]*Endpoint, n)
	sectors := newSectorTable(n+1, n)
	for i := 0; i < n; i++ {
		endpoints[i] = newEndpoint(i, n)
		var sigma float64
		if i < len(cfg.SigmaLocal) {
			sigma = cfg.SigmaLocal[i]
		}
		behaviors[i] = &asyncNRobot{cfg: cfg, endpoint: endpoints[i], sigma: sigma, coder: standardCoder{}, sectors: sectors}
	}
	return behaviors, endpoints, nil
}

// asyncNRobot is one robot of Protocol Asyncn. Idle robots oscillate on
// their κ slice so that every active robot moves (Remark 4.3) and
// waiting senders always make progress. To transmit a bit the robot
// returns to its granular centre, excurses along the recipient's
// diameter on the bit's side until every robot's position has changed
// twice (so everyone, in particular the recipient, has observed the
// excursion), returns to the centre, and performs one κ leg as a
// separator before the next bit.
type asyncNRobot struct {
	cfg      AsyncNConfig
	endpoint *Endpoint
	sigma    float64

	rk     reckoner
	geo    *swarmGeometry
	cfgErr error

	amp  float64 // excursion extent (local units)
	step float64 // movement quantum (local units)

	phase   asyncNPhase
	kappaU  geom.Vec // unit direction of κ's positive half
	kDir    float64  // current κ leg direction (+1 / -1)
	outDir  geom.Vec // current excursion direction
	pending *txBit   // bit to transmit once centred

	txBits []txBit

	// sectors is the swarm's shared sector table; its diameter count is
	// the §4.2 default of n+1, or k+2 in the §5 bounded-slice variant.
	sectors *sectorTable
	// coder maps messages to excursion sequences and back (§4.2 direct
	// addressing, or §5 index preludes).
	coder asyncCoder

	// Decoder state, allocated at the first activation and never
	// before: a swarm that is only checkpointed never pays for it. obs
	// holds one record per robot. below counts the robots other than
	// this one with fewer than two changes since the last reset, so the
	// "every robot changed twice" predicate of §4.2 is below == 0.
	// sinks holds each sender's excursion sink; the slice and each sink
	// in it are built on the first slice excursion that needs them.
	obs   []observed
	below int
	sinks []excursionSink
}

var _ sim.Behavior = (*asyncNRobot)(nil)

// Step implements sim.Behavior.
func (r *asyncNRobot) Step(view sim.View) geom.Point {
	if !r.rk.initialized() {
		r.initFrom(view)
	}
	r.observeAll(view)

	if r.cfgErr != nil {
		// A robot that cannot participate (e.g. at the SEC centre) still
		// oscillates so it never blocks the others' change counters.
		if r.allChangedTwice() {
			r.kDir = -r.kDir
			r.resetChanges()
		}
		return r.legMove(geom.V(1, 0))
	}
	switch r.phase {
	case phaseToCenter:
		return r.stepToCenter()
	case phaseSlice:
		if r.allChangedTwice() {
			// Everyone — in particular the recipient — has observed this
			// excursion; a drained queue means the message arrived.
			if r.pending == nil && len(r.txBits) == 0 && r.endpoint.PendingMessages() == 0 {
				r.endpoint.inflight = false
			}
			r.phase = phaseBackToCenter
			return r.stepBackToCenter()
		}
		return r.axisMove(r.outDir, 1)
	case phaseBackToCenter:
		return r.stepBackToCenter()
	default:
		return r.stepKappa()
	}
}

// Err returns the configuration error detected at init, if any.
func (r *asyncNRobot) Err() error { return r.cfgErr }

func (r *asyncNRobot) initFrom(view sim.View) {
	r.rk.init()
	r.geo = buildSwarmGeometry(view, r.cfg.Naming, true, r.sectors)
	r.cfgErr = r.geo.err
	radius := r.geo.radii[view.Self]
	r.amp = r.cfg.AmplitudeFrac * radius
	r.step = r.cfg.StepFrac * radius
	if r.sigma > 0 && r.step > r.sigma {
		r.step = r.sigma
	}
	if r.cfgErr == nil && r.step < 100*centerTolFrac*radius {
		r.cfgErr = fmt.Errorf("%w: step %v invisible against granular %v",
			ErrAmplitudeExceedsSigma, r.step, radius)
	}
	r.obs = make([]observed, view.N())
	for j, p := range view.Points {
		o := &r.obs[j]
		o.last = r.rk.toInit(p)
		o.sector = atCentre
		if j == view.Self || !r.geo.canDecode(j) {
			o.sector = undecodable
		}
	}
	r.below = len(r.obs) - 1
	r.phase = phaseKappa
	if r.cfgErr == nil {
		r.kappaU = quantizeDir(r.geo.kappaDir(view.Self), r.cfg.DirectionResolution).Unit()
	}
	r.kDir = 1
}

// observeAll reads every other robot's position once, in init-local
// coordinates, in one pass over the records. It counts the robot's
// position changes (the "every robot changed twice" predicate of §4.2)
// and classifies its displacement from home, emitting a bit on every
// transition into a recipient-slice sector. Both thresholds scale with
// the robot's granular radius, read once per robot. The classification
// tries the robot's previous sector first.
func (r *asyncNRobot) observeAll(view sim.View) {
	g, pts := r.geo, view.Points
	obs, radii := r.obs[:len(pts)], g.radii[:len(pts)]
	p0, slicers := g.p0[:len(pts)], g.slicers[:len(pts)]
	sectors, res := g.sectors, r.cfg.DirectionResolution
	for j, p := range pts {
		if j == view.Self {
			continue
		}
		o := &obs[j]
		cur := r.rk.toInit(p)
		rad := radii[j]
		dx, dy := cur.X-o.last.X, cur.Y-o.last.Y
		// Both thresholds are Band's exact tests with the fast
		// comparison inlined, as in the sensor loops of internal/sim:
		// Beyond and Within (and their math.Hypot) run only inside the
		// rounding band.
		change := geom.NewBand(changeFrac * rad)
		if in, ok := change.Fast(dx, dy); !in && (ok || change.Beyond(dx, dy)) {
			o.last = cur
			if o.changes < 2 {
				o.changes++
				if o.changes == 2 {
					r.below--
				}
			}
		}
		prev := o.sector
		if prev == undecodable {
			continue
		}
		d := cur.Sub(p0[j])
		centre := geom.NewBand(centerTolFrac * rad)
		m := int32(atCentre)
		if in, ok := centre.Fast(d.X, d.Y); !in && (ok || !centre.Within(d.X, d.Y)) {
			// §5: a resolution-limited sensor only distinguishes so many
			// directions; the observed displacement snaps to the grid
			// before classification.
			if res > 0 {
				d = quantizeDir(d, res)
			}
			m = int32(slicers[j].sector(d, sectors, int(prev)))
		}
		o.sector = m
		if m == prev || m == atCentre {
			continue
		}
		k, side := sectors.split(int(m))
		if _, isRecipient := g.diameterRecipient(k); isRecipient {
			r.consume(j, k, side)
		}
	}
}

// consume passes sender j's excursion on diameter k to j's sink,
// building the sink on its first excursion, and delivers the message
// it completes.
func (r *asyncNRobot) consume(j, k int, side sideOf) {
	if r.sinks == nil {
		r.sinks = make([]excursionSink, len(r.obs))
	}
	sink := r.sinks[j]
	if sink == nil {
		sink = r.coder.newSink(r.geo, j)
		r.sinks[j] = sink
	}
	if rec, done := sink.consume(k, side); done {
		r.endpoint.deliver(rec)
	}
}

// resetChanges starts a new waiting phase with the current observations
// as baseline. (observeAll has already run this activation, so every
// record's last position is current.)
func (r *asyncNRobot) resetChanges() {
	for j := range r.obs {
		r.obs[j].changes = 0
	}
	r.below = len(r.obs) - 1
}

// allChangedTwice reports whether every other robot's position has
// changed at least twice since the last reset.
func (r *asyncNRobot) allChangedTwice() bool { return r.below == 0 }

// stepKappa idles (or separates) on κ: same direction within a leg,
// flipping when every robot has changed twice; a pending message
// redirects the robot to its centre instead of flipping.
func (r *asyncNRobot) stepKappa() geom.Point {
	if r.allChangedTwice() {
		if r.refillBits() {
			r.phase = phaseToCenter
			r.resetChanges()
			return r.stepToCenter()
		}
		r.kDir = -r.kDir
		r.resetChanges()
	}
	return r.legMove(r.kappaU)
}

// legMove advances along the axis towards kDir*amp with boundary decay.
func (r *asyncNRobot) legMove(axis geom.Vec) geom.Point {
	self := geom.V(r.rk.selfInit().X, r.rk.selfInit().Y)
	s := self.Dot(axis)
	delta := r.kDir*r.amp - s
	mag := delta
	if mag < 0 {
		mag = -mag
	}
	move := mag / r.cfg.StepDivisor
	if move > r.step {
		move = r.step
	}
	if delta < 0 {
		move = -move
	}
	return r.rk.moveBy(axis.Scale(move))
}

// axisMove advances away from the centre along dir towards amp with
// boundary decay (the §4.2 excursion movement).
func (r *asyncNRobot) axisMove(dir geom.Vec, sign float64) geom.Point {
	self := geom.V(r.rk.selfInit().X, r.rk.selfInit().Y)
	s := self.Dot(dir)
	remaining := r.amp - s
	if remaining < 0 {
		remaining = 0
	}
	move := remaining / r.cfg.StepDivisor
	if move > r.step {
		move = r.step
	}
	return r.rk.moveBy(dir.Scale(sign * move))
}

// stepToCenter returns to the granular centre, then launches the pending
// excursion.
func (r *asyncNRobot) stepToCenter() geom.Point {
	self := r.rk.selfInit()
	if self.Eq(geom.Point{}) {
		// Centred: begin the excursion now (this activation must move).
		bit := r.pending
		r.pending = nil
		if bit == nil {
			r.phase = phaseKappa
			return r.legMove(r.kappaU)
		}
		dir := r.geo.slicers[r.geo.self].direction(bit.diameter, bit.side, r.geo.sectors)
		r.outDir = quantizeDir(dir, r.cfg.DirectionResolution).Unit()
		r.phase = phaseSlice
		r.resetChanges()
		r.endpoint.sentBits++
		return r.axisMove(r.outDir, 1)
	}
	next := moveToward(self, geom.Point{}, r.maxStep())
	return r.rk.moveBy(next.Sub(self))
}

// stepBackToCenter returns from an excursion; on arrival the κ separator
// leg begins.
func (r *asyncNRobot) stepBackToCenter() geom.Point {
	self := r.rk.selfInit()
	next := moveToward(self, geom.Point{}, r.maxStep())
	if next.Eq(geom.Point{}) {
		r.phase = phaseKappa
		r.kDir = 1
		r.resetChanges()
	}
	return r.rk.moveBy(next.Sub(self))
}

func (r *asyncNRobot) maxStep() float64 {
	if r.sigma > 0 && r.sigma < r.step {
		return r.sigma
	}
	return r.step
}

// refillBits ensures a pending bit exists, pulling frames from the
// outbox; it reports whether a bit is ready.
func (r *asyncNRobot) refillBits() bool {
	if r.pending != nil {
		return true
	}
	for len(r.txBits) == 0 {
		msg, ok := r.endpoint.pop()
		if !ok {
			r.endpoint.inflight = false
			return false
		}
		bits, err := r.coder.encode(r.geo, msg)
		if err != nil {
			continue
		}
		r.txBits = bits
		r.endpoint.inflight = true
	}
	bit := r.txBits[0]
	r.txBits = r.txBits[1:]
	r.pending = &bit
	return true
}
