package fault

import (
	"fmt"

	"waggle/internal/geom"
	"waggle/internal/obs"
	"waggle/internal/sim"
)

// RadioControl is the slice of a radio the injector drives for
// RadioOutage and JamRamp events. Both core.Radio and the public
// waggle.Radio implement it.
type RadioControl interface {
	Break(i int) error
	Repair(i int) error
	SetJamming(p float64) error
}

// Injector compiles a Plan into the simulator's fault hooks. Attach it
// with World.SetInjector; radio events additionally need AttachRadio.
//
// The injector owns the fault state of whatever the plan names: robots
// listed in RadioOutage events are broken and repaired by the injector
// (manual Break calls on them will be overridden at window edges), and
// JamRamp windows overwrite the jamming probability.
type Injector struct {
	plan Plan
	n    int
	seed int64

	radio RadioControl

	crashed []bool
	// prevOutage and prevJam track the injector's own last-applied radio
	// state so Break/Repair/SetJamming fire only at window transitions,
	// leaving manual radio control outside the plan's windows alone.
	prevOutage []bool
	prevJam    bool

	// dropMask holds one full-visibility mask per robot for DropSight
	// perturbations of views that had no Visible slice of their own.
	// Robot i's mask is allocated the first time a DropSight event
	// reaches such a view of robot i, so a plan without DropSight events
	// allocates none. Only robot i's PerturbView touches slot i, so
	// concurrent calls never share one.
	dropMask [][]bool

	// events buffers the fault events raised since BeginStep for the
	// world's record: slot i holds observer i's PerturbView events (the
	// parallel engine runs observers concurrently), slot n the rest.
	events [][]obs.Event

	// obs is the optional observability hook for the per-family
	// counters: atomic adds, safe from concurrent PerturbView calls.
	obs *obs.Observer
}

var _ sim.Injector = (*Injector)(nil)

// NewInjector validates the plan against a system of n robots and
// compiles it. The seed drives every randomized perturbation; equal
// (plan, n, seed) triples produce byte-identical fault schedules.
func NewInjector(plan Plan, n int, seed int64) (*Injector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fault: injector for %d robots", n)
	}
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	inj := &Injector{
		plan:       plan,
		n:          n,
		seed:       seed,
		crashed:    make([]bool, n),
		prevOutage: make([]bool, n),
		dropMask:   make([][]bool, n),
		events:     make([][]obs.Event, n+1),
	}
	return inj, nil
}

// AttachRadio couples the radio the plan's RadioOutage/JamRamp events
// drive. Returns an error if the plan has radio events and r is nil.
func (inj *Injector) AttachRadio(r RadioControl) error {
	if r == nil && inj.plan.NeedsRadio() {
		return fmt.Errorf("fault: plan schedules radio events but no radio is attached")
	}
	inj.radio = r
	return nil
}

// Plan returns the compiled plan.
func (inj *Injector) Plan() Plan { return inj.plan }

// SetObserver attaches (or, with nil, detaches) the observability hook.
func (inj *Injector) SetObserver(o *obs.Observer) { inj.obs = o }

// Observer returns the attached observer, or nil.
func (inj *Injector) Observer() *obs.Observer { return inj.obs }

// WindowState reports the injector's last-applied radio window state —
// which robots it currently holds broken and whether a jam window was
// active — for checkpoint capture. The outage slice is a copy. Restoring
// this state lets the injector's edge-triggered Break/Repair/SetJamming
// logic resume mid-window without re-firing transitions.
func (inj *Injector) WindowState() (outage []bool, jam bool) {
	return append([]bool(nil), inj.prevOutage...), inj.prevJam
}

// RestoreWindowState reinstates a previously captured radio window
// state. A nil outage slice leaves all robots unbroken; a wrong-length
// slice is an error.
func (inj *Injector) RestoreWindowState(outage []bool, jam bool) error {
	if outage != nil && len(outage) != inj.n {
		return fmt.Errorf("fault: window state for %d robots, injector has %d", len(outage), inj.n)
	}
	for i := range inj.prevOutage {
		inj.prevOutage[i] = false
	}
	copy(inj.prevOutage, outage)
	inj.prevJam = jam
	return nil
}

// Crashed reports whether robot i is crash-stopped at instant t.
func (inj *Injector) Crashed(t, i int) bool {
	for _, e := range inj.plan.Events {
		if e.Kind == Crash && e.active(t) && e.hits(i) {
			return true
		}
	}
	return false
}

// BeginStep implements sim.Injector: displacements, crash bookkeeping,
// and the coupled radio's window transitions.
func (inj *Injector) BeginStep(t int, w *sim.World) {
	for i := range inj.crashed {
		inj.crashed[i] = false
	}
	for i := range inj.events {
		inj.events[i] = inj.events[i][:0]
	}
	jam, jamActive := 0.0, false
	for _, e := range inj.plan.Events {
		switch e.Kind {
		case Displace:
			if t == e.At {
				inj.forEachTarget(func(i int) {
					// Teleport validates the index; plan validation
					// already guaranteed it.
					_ = w.Teleport(i, w.Position(i).Add(e.Delta))
					inj.emit(inj.n, obs.Event{T: t, Kind: obs.EvDisplace, Robot: i, Peer: -1, Val: e.Delta.Len()})
					if o := inj.obs; o != nil {
						o.Fault.Displacements.Inc()
					}
				}, e)
			}
		case Crash:
			if e.active(t) {
				inj.forEachTarget(func(i int) { inj.crashed[i] = true }, e)
			}
		case JamRamp:
			if e.active(t) {
				jamActive = true
				span := e.Until - 1 - e.At
				frac := 1.0
				if span > 0 {
					frac = float64(t-e.At) / float64(span)
				}
				jam = e.Min + (e.Max-e.Min)*frac
			}
		}
	}
	if inj.radio == nil {
		return
	}
	// Outage windows: fire Break/Repair only on transitions so manual
	// radio control outside the plan's windows is left alone.
	for i := 0; i < inj.n; i++ {
		want := false
		for _, e := range inj.plan.Events {
			if e.Kind == RadioOutage && e.active(t) && e.hits(i) {
				want = true
				break
			}
		}
		if want && !inj.prevOutage[i] {
			_ = inj.radio.Break(i)
			inj.emit(inj.n, obs.Event{T: t, Kind: obs.EvOutageStart, Robot: i, Peer: -1})
			if o := inj.obs; o != nil {
				o.Fault.Outages.Inc()
			}
		}
		if !want && inj.prevOutage[i] {
			_ = inj.radio.Repair(i)
			inj.emit(inj.n, obs.Event{T: t, Kind: obs.EvOutageEnd, Robot: i, Peer: -1})
		}
		inj.prevOutage[i] = want
	}
	if jamActive {
		p := clamp01(jam)
		_ = inj.radio.SetJamming(p)
		inj.prevJam = true
		inj.emit(inj.n, obs.Event{T: t, Kind: obs.EvJam, Robot: -1, Peer: -1, Val: p})
		if o := inj.obs; o != nil {
			o.Fault.JamSets.Inc()
		}
	} else if inj.prevJam {
		_ = inj.radio.SetJamming(0)
		inj.prevJam = false
		inj.emit(inj.n, obs.Event{T: t, Kind: obs.EvJam, Robot: -1, Peer: -1, Val: 0})
		if o := inj.obs; o != nil {
			o.Fault.JamSets.Inc()
		}
	}
}

// FilterActive implements sim.Injector: crash-stopped robots drop out
// of the activation set in place, preserving order. The crash counter
// and events therefore count suppressed activations, one per crashed
// robot per step it would have been activated.
func (inj *Injector) FilterActive(t int, active []int) []int {
	out := active[:0]
	for _, i := range active {
		if !inj.crashed[i] {
			out = append(out, i)
			continue
		}
		inj.emit(inj.n, obs.Event{T: t, Kind: obs.EvCrash, Robot: i, Peer: -1})
		if o := inj.obs; o != nil {
			o.Fault.Crashes.Inc()
		}
	}
	return out
}

// PerturbView implements sim.Injector: sensor noise and dropped
// sightings, rewritten in place into the view's slices, which the
// observer's worker owns until its Step returns. Safe under the
// parallel engine — every random draw is keyed by
// (seed, t, observer, target, event) and the only injector state
// touched is the observer's own.
func (inj *Injector) PerturbView(t, observer int, frame geom.Frame, view sim.View) sim.View {
	for idx, e := range inj.plan.Events {
		if !e.active(t) || !e.hits(observer) {
			continue
		}
		switch e.Kind {
		case ObserveNoise:
			if e.Mag == 0 {
				continue
			}
			noised := 0
			for j := range view.Points {
				if j == view.Self || !visibleIn(view, j) {
					continue
				}
				gx, gy := gauss2(key(inj.seed, t, observer, j, idx))
				noise := frame.VecToLocal(geom.V(gx*e.Mag, gy*e.Mag))
				view.Points[j] = view.Points[j].Add(noise)
				noised++
			}
			if noised > 0 {
				// One event per noised view, not per point — per-point
				// events would flood the record at n² per instant. The
				// counter still counts points.
				inj.emit(observer, obs.Event{T: t, Kind: obs.EvNoise, Robot: observer, Peer: -1, Val: e.Mag})
				if o := inj.obs; o != nil {
					o.Fault.Noise.Add(int64(noised))
				}
			}
		case DropSight:
			if e.Mag == 0 {
				continue
			}
			if view.Visible == nil {
				if inj.dropMask[observer] == nil {
					inj.dropMask[observer] = make([]bool, inj.n)
				}
				mask := inj.dropMask[observer]
				for j := range mask {
					mask[j] = true
				}
				view.Visible = mask
			}
			for j := range view.Points {
				if j == view.Self || !view.Visible[j] {
					continue
				}
				if unit(key(inj.seed, t, observer, j, ^idx)) < e.Mag {
					// The sensor reports nothing there: same convention
					// as limited visibility — the slot holds the
					// observer's own position.
					view.Visible[j] = false
					view.Points[j] = view.Points[view.Self]
					inj.emit(observer, obs.Event{T: t, Kind: obs.EvDropSight, Robot: observer, Peer: j})
					if o := inj.obs; o != nil {
						o.Fault.DropSights.Inc()
					}
				}
			}
		}
	}
	return view
}

// PerturbMove implements sim.Injector: movement truncation/overshoot.
func (inj *Injector) PerturbMove(t, robot int, from, dest geom.Point) geom.Point {
	for idx, e := range inj.plan.Events {
		if e.Kind != MoveError || !e.active(t) || !e.hits(robot) {
			continue
		}
		f := e.Min + unit(key(inj.seed, t, robot, robot, idx))*(e.Max-e.Min)
		dest = from.Add(dest.Sub(from).Scale(f))
		inj.emit(inj.n, obs.Event{T: t, Kind: obs.EvMoveError, Robot: robot, Peer: -1, Val: f})
		if o := inj.obs; o != nil {
			o.Fault.MoveErrors.Inc()
		}
	}
	return dest
}

// AppendEvents implements sim.Injector: every fault event raised since
// BeginStep, for the world's record to sort.
func (inj *Injector) AppendEvents(dst []obs.Event) []obs.Event {
	for _, evs := range inj.events {
		dst = append(dst, evs...)
	}
	return dst
}

// emit raises a fault event into slot (see Injector.events).
func (inj *Injector) emit(slot int, e obs.Event) {
	inj.events[slot] = append(inj.events[slot], e)
}

func (inj *Injector) forEachTarget(fn func(i int), e Event) {
	if e.Robot == AllRobots {
		for i := 0; i < inj.n; i++ {
			fn(i)
		}
		return
	}
	fn(e.Robot)
}

func visibleIn(v sim.View, j int) bool {
	return v.Visible == nil || v.Visible[j]
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
