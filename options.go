package waggle

import (
	"math"
	"math/rand"

	"waggle/internal/geom"
	"waggle/internal/sim"
)

// SchedulerKind selects the activation scheduler for asynchronous
// swarms.
type SchedulerKind int

// Scheduler kinds for WithScheduler.
const (
	// SchedulerRandomFair activates each robot with probability 1/2 per
	// instant under a fairness bound (the default asynchronous
	// scheduler, modelling the paper's uniform fair scheduler).
	SchedulerRandomFair SchedulerKind = iota
	// SchedulerRoundRobin activates exactly one robot per instant.
	SchedulerRoundRobin
	// SchedulerStarver adversarially delays one robot as long as
	// fairness allows.
	SchedulerStarver
)

// options is the resolved configuration of a swarm.
type options struct {
	synchronous      bool
	identified       bool
	senseOfDirection bool
	leftHanded       bool
	protocol         Protocol
	levels           int
	boundedSlices    int
	alternateDrift   bool
	seed             int64
	sigma            float64
	trace            bool
	flock            *Point
	scheduler        SchedulerKind
	starveVictim     int
	starveDelay      int
	activationProb   float64
	stabilizeEpoch   int
	faultPlan        *FaultPlan
	faultRadio       *Radio
	observer         *Observer
	streamPath       string
}

func defaultOptions() options {
	return options{
		sigma: math.MaxFloat64 / 4,
	}
}

// Option configures NewSwarm.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithSynchronous runs the swarm in the paper's synchronous setting:
// every robot is active at every instant (§3). The default is the
// asynchronous setting of §4.
func WithSynchronous() Option {
	return optionFunc(func(o *options) { o.synchronous = true })
}

// WithIdentifiedRobots gives the robots observable identifiers (§3.2).
// It implies addressing by ID; without it the robots are anonymous.
func WithIdentifiedRobots() Option {
	return optionFunc(func(o *options) { o.identified = true })
}

// WithSenseOfDirection aligns all local frames on a common North
// (compasses). Anonymous robots then use the §3.3 lexicographic naming;
// without it they fall back to the §3.4 SEC-relative naming.
func WithSenseOfDirection() Option {
	return optionFunc(func(o *options) { o.senseOfDirection = true })
}

// WithLeftHandedFrames flips every robot's frame to left-handed. The
// protocols only require that handedness is SHARED (chirality), so this
// must not change any behaviour — it exists to test exactly that.
func WithLeftHandedFrames() Option {
	return optionFunc(func(o *options) { o.leftHanded = true })
}

// WithProtocol forces a specific protocol instead of automatic
// selection.
func WithProtocol(p Protocol) Option {
	return optionFunc(func(o *options) { o.protocol = p })
}

// WithLevels enables the §3.1 amplitude-level coding for synchronous
// swarms (two robots, or its n-robot composition on signed excursion
// lengths): k must be a power of two; each excursion carries log2(k)
// bits.
func WithLevels(k int) Option {
	return optionFunc(func(o *options) { o.levels = k })
}

// WithBoundedSlices selects the §5 bounded-slice asynchronous protocol:
// only k+2 movement directions are used regardless of swarm size, with
// the recipient index transmitted as a base-k prelude. k must lie in
// [2, n]: base n already sends every recipient index as one digit.
func WithBoundedSlices(k int) Option {
	return optionFunc(func(o *options) { o.boundedSlices = k })
}

// WithAlternatingDrift selects the §4.1 bounded-separation variant of
// the two-robot asynchronous protocol.
func WithAlternatingDrift() Option {
	return optionFunc(func(o *options) { o.alternateDrift = true })
}

// WithSeed seeds the swarm's randomness (frames, schedulers). Swarms
// with equal seeds and options behave identically.
func WithSeed(seed int64) Option {
	return optionFunc(func(o *options) { o.seed = seed })
}

// WithSigma bounds every robot's per-activation movement to the given
// world-space distance (the paper's σ_r). It must be positive; +Inf
// lifts the bound.
func WithSigma(sigma float64) Option {
	return optionFunc(func(o *options) { o.sigma = sigma })
}

// WithTrace records the full execution (positions, moves) enabling
// TotalDistance and MinPairwiseDistance.
func WithTrace() Option {
	return optionFunc(func(o *options) { o.trace = true })
}

// WithFlocking makes the whole swarm drift by the given world vector per
// instant while communicating (§5). Requires a synchronous swarm.
func WithFlocking(dx, dy float64) Option {
	return optionFunc(func(o *options) { o.flock = &Point{X: dx, Y: dy} })
}

// WithScheduler selects the asynchronous activation scheduler. The
// starver parameters are only used by SchedulerStarver.
func WithScheduler(kind SchedulerKind) Option {
	return optionFunc(func(o *options) { o.scheduler = kind })
}

// WithActivationProbability sets the per-robot activation probability
// of the random fair scheduler, in [0,1]; 0 keeps the default 0.5.
// Lower values model sparser, slower robots; fairness is still enforced
// by the scheduler's lag bound. Only meaningful for asynchronous swarms.
func WithActivationProbability(p float64) Option {
	return optionFunc(func(o *options) { o.activationProb = p })
}

// WithStream attaches a waggle-stream/v1 movement stream writing to
// path (see Swarm.NewStreamWriter) as soon as the swarm is built.
// Streaming is a preference about how state is written, not part of the
// run's identity: it is not recorded in the input log.
func WithStream(path string) Option {
	return optionFunc(func(o *options) { o.streamPath = path })
}

// WithStarver selects the adversarial scheduler delaying the given robot
// for `delay` consecutive instants per cycle.
func WithStarver(victim, delay int) Option {
	return optionFunc(func(o *options) {
		o.scheduler = SchedulerStarver
		o.starveVictim = victim
		o.starveDelay = delay
	})
}

// buildFrames derives the per-robot private coordinate systems implied
// by the capability options.
func buildFrames(o options, n int) []geom.Frame {
	rng := rand.New(rand.NewSource(o.seed ^ 0x5747A661E))
	hand := geom.RightHanded
	if o.leftHanded {
		hand = geom.LeftHanded
	}
	frames := make([]geom.Frame, n)
	for i := range frames {
		theta := 0.0
		if !o.senseOfDirection && !o.identified {
			theta = rng.Float64() * 2 * math.Pi
		}
		scale := 0.5 + rng.Float64()*2
		frames[i] = geom.NewFrame(geom.Point{}, theta, scale, hand)
	}
	return frames
}

// buildScheduler derives the activation scheduler implied by the
// options.
func buildScheduler(o options) sim.Scheduler {
	if o.synchronous {
		return sim.Synchronous{}
	}
	var inner sim.Scheduler
	switch o.scheduler {
	case SchedulerRoundRobin:
		inner = sim.RoundRobin{}
	case SchedulerStarver:
		delay := o.starveDelay
		if delay <= 0 {
			delay = 8
		}
		inner = sim.Starver{Victim: o.starveVictim, Delay: delay}
	default:
		rf := sim.NewRandomFair(o.seed)
		if o.activationProb > 0 {
			rf.P = o.activationProb
		}
		inner = rf
	}
	return sim.FirstSync{Inner: inner}
}
