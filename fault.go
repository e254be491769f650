package waggle

import (
	"fmt"

	"waggle/internal/fault"
	"waggle/internal/geom"
)

// FaultKind enumerates the fault families a swarm-level FaultPlan can
// schedule. The movement faults apply to the swarm itself; the radio
// faults drive the Radio passed with WithFaultRadio, so one plan can
// break both channels of a BackupMessenger at scripted instants.
type FaultKind int

// Fault kinds for FaultEvent. The zero value is invalid, so a forgotten
// Kind fails NewSwarm instead of silently picking a family.
const (
	// FaultCrash stops the robot being activated during [At, Until);
	// Until 0 means it never recovers.
	FaultCrash FaultKind = iota + 1
	// FaultDisplace teleports the robot by (DX, DY) world units at
	// instant At — the transient fault of the §5 stabilization sketch.
	FaultDisplace
	// FaultObserveNoise adds Gaussian noise with standard deviation Mag
	// (world units) to every sighting by the affected observers during
	// [At, Until).
	FaultObserveNoise
	// FaultDropSight makes every sighting by the affected observers
	// vanish with probability Mag during [At, Until).
	FaultDropSight
	// FaultMoveError scales every applied move of the affected robots
	// by a factor drawn uniformly from [Min, Max] during [At, Until) —
	// truncation below 1, overshoot above it.
	FaultMoveError
	// FaultRadioOutage breaks the affected robots' radio transmitters
	// during [At, Until) and repairs them after; requires WithFaultRadio.
	FaultRadioOutage
	// FaultJamRamp sweeps the radio jamming probability linearly from
	// Min to Max over [At, Until), restoring 0 after; requires
	// WithFaultRadio.
	FaultJamRamp
)

// FaultEvent is one scheduled fault of a FaultPlan.
type FaultEvent struct {
	// Kind selects the fault family.
	Kind FaultKind
	// At is the first affected instant; Until ends the window
	// (exclusive) for the windowed kinds.
	At, Until int
	// Robot is the affected robot, or -1 for every robot.
	Robot int
	// Mag is the noise standard deviation (FaultObserveNoise) or drop
	// probability (FaultDropSight).
	Mag float64
	// Min and Max bound the move scale factor (FaultMoveError).
	Min, Max float64
	// DX and DY are the displacement (FaultDisplace), world units.
	DX, DY float64
}

// FaultPlan is a declarative, deterministic schedule of fault events
// applied to a swarm's execution. The randomness of noise, dropped
// sightings and movement errors is keyed by the swarm seed (WithSeed):
// equal seeds and plans reproduce byte-identical executions, on the
// step engine's sequential and parallel compute paths alike.
type FaultPlan struct {
	Events []FaultEvent
}

// WithFaultPlan attaches a fault-injection plan to the swarm. Protocols
// do not expect faults; combine with WithStabilization to measure
// recovery (EXPERIMENTS.md chaos table), or run plain protocols under a
// plan to measure how they break.
func WithFaultPlan(plan FaultPlan) Option {
	return optionFunc(func(o *options) { o.faultPlan = &plan })
}

// WithFaultRadio couples a radio to the swarm's fault plan: the plan's
// FaultRadioOutage and FaultJamRamp events drive this radio's Break,
// Repair and SetJamming at their window edges. The injector owns the
// radio state the plan names; manual control outside the plan's windows
// is left alone.
func WithFaultRadio(r *Radio) Option {
	return optionFunc(func(o *options) { o.faultRadio = r })
}

// WithStabilization wraps the synchronous n-robot protocol in the §5
// epoch-based self-stabilization: every epoch instants of the global
// clock, each robot discards and recomputes all protocol state, so any
// transient fault is flushed within one epoch. In-flight transmissions
// at an epoch boundary are lost; the epoch must comfortably exceed the
// longest transmission (two instants per frame bit). Requires
// WithSynchronous and the SyncN protocol.
func WithStabilization(epoch int) Option {
	return optionFunc(func(o *options) { o.stabilizeEpoch = epoch })
}

// buildFaultPlan converts the public plan into the internal fault
// vocabulary, validating it against the swarm size.
func buildFaultPlan(plan FaultPlan, n int) (fault.Plan, error) {
	events := make([]fault.Event, len(plan.Events))
	for i, e := range plan.Events {
		var kind fault.Kind
		switch e.Kind {
		case FaultCrash:
			kind = fault.Crash
		case FaultDisplace:
			kind = fault.Displace
		case FaultObserveNoise:
			kind = fault.ObserveNoise
		case FaultDropSight:
			kind = fault.DropSight
		case FaultMoveError:
			kind = fault.MoveError
		case FaultRadioOutage:
			kind = fault.RadioOutage
		case FaultJamRamp:
			kind = fault.JamRamp
		default:
			return fault.Plan{}, fmt.Errorf("waggle: fault event %d has unknown kind %d", i, int(e.Kind))
		}
		events[i] = fault.Event{
			Kind:  kind,
			At:    e.At,
			Until: e.Until,
			Robot: e.Robot,
			Mag:   e.Mag,
			Min:   e.Min,
			Max:   e.Max,
			Delta: geom.V(e.DX, e.DY),
		}
	}
	p := fault.Plan{Events: events}
	if err := p.Validate(n); err != nil {
		return fault.Plan{}, fmt.Errorf("waggle: %w", err)
	}
	return p, nil
}
