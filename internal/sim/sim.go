// Package sim implements the paper's execution model: the
// semi-synchronous model (SSM) of Suzuki and Yamashita, in which time is
// a sequence of instants t0, t1, ...; at each instant a scheduler
// activates a non-empty subset of robots; each active robot observes the
// instantaneous configuration (through its own local coordinate frame),
// computes a destination, and moves towards it, covering at most its
// private distance bound sigma per activation. All moves of an instant
// are computed from the same snapshot and applied simultaneously.
//
// Robots are non-oblivious: a Behavior keeps arbitrary private state
// between activations. There is no communication medium of any kind —
// the only inter-robot channel is the observed configuration, which is
// exactly the premise of the paper.
package sim

import (
	"errors"
	"fmt"
	"time"

	"waggle/internal/geom"
	"waggle/internal/obs"
	"waggle/internal/spatial"
)

// Behavior is a robot's deterministic algorithm. Step is invoked at
// every activation with the robot's local view of the configuration and
// must return the destination point in the robot's local coordinates.
// Returning the robot's own local position (always the local origin,
// since frames are egocentric) means "stay put".
//
// Behaviors may retain state across calls (the robots are
// non-oblivious), but not the view: its slices are valid only until Step
// returns, as in the SSM an activation observes, computes and moves
// within one instant. A behavior copies what it keeps.
type Behavior interface {
	Step(view View) geom.Point
}

// BehaviorFunc adapts a function to the Behavior interface.
type BehaviorFunc func(view View) geom.Point

// Step implements Behavior.
func (f BehaviorFunc) Step(view View) geom.Point { return f(view) }

var _ Behavior = BehaviorFunc(nil)

// View is what an activated robot perceives: the instantaneous positions
// of all robots expressed in its own frame. In the default dense layout,
// positions are index-aligned with the world's robot slice, and the
// anonymous protocols use that slot index as the robot across
// activations. That stands in for the paper's geometric
// re-identification, and equals it while every robot stays inside its
// granular (DESIGN.md §3). Self is the observer's own slot, which
// every robot trivially knows (its own position is the local origin).
// In a *compact* view (World.SetCompactViews), Points holds only the
// robots inside the sensor disc and Indices maps slots back to robot
// indices.
//
// A view is valid until Behavior.Step returns: the world builds it in
// buffers owned by the worker that steps the robot, and that worker
// reuses them for the next robot it steps.
type View struct {
	// Time is the index of the current instant.
	Time int
	// Self is the observer's own slot in Points. In a dense view this is
	// the observer's robot index; in a compact view it is the slot whose
	// Indices entry is the observer.
	Self int
	// Points holds robot positions in the observer's local frame: every
	// robot in a dense view, only the visible ones in a compact view.
	Points []geom.Point
	// IDs holds the observable identifiers slot-aligned with Points, or
	// nil in an anonymous system (§2 of the paper: "identified or
	// anonymous").
	IDs []int
	// Visible, when non-nil, marks which robots the observer can
	// actually see (limited visibility, the §5 open problem). Points of
	// invisible robots hold the observer's own position — the sensor
	// reports nothing there. Nil means unlimited visibility (the
	// paper's base model) or a compact view (where everything present is
	// visible by construction). The shipped protocols assume full
	// visibility and do not consult this field; the visibility
	// experiments measure what that assumption costs.
	Visible []bool
	// Indices, when non-nil, marks the view as compact: Points[k] is the
	// local position of robot Indices[k], ascending in robot index. Nil
	// means the dense layout.
	Indices []int
}

// N returns the number of robots in the view.
func (v View) N() int { return len(v.Points) }

// Other returns the index of the unique robot that is not the observer.
// It panics unless the view contains exactly two robots; it exists for
// the two-robot protocols.
func (v View) Other() int {
	if len(v.Points) != 2 {
		panic(fmt.Sprintf("sim: View.Other on %d robots", len(v.Points)))
	}
	return 1 - v.Self
}

// Robot is one mobile robot: a frame (its private coordinate system,
// carried along as it moves), a per-activation distance bound, and its
// algorithm.
type Robot struct {
	// Frame is the robot's private coordinate system. Its origin always
	// tracks the robot's current position (frames are egocentric); theta,
	// scale and handedness are fixed at creation.
	Frame geom.Frame
	// Sigma is the maximum distance covered in one activation. Must be
	// positive.
	Sigma float64
	// VisRadius limits how far the robot's sensors reach (world units);
	// 0 means unlimited (the paper's base model).
	VisRadius float64
	// Behavior is the robot's algorithm.
	Behavior Behavior
}

// World is a running SSM system.
type World struct {
	robots []*Robot
	pos    []geom.Point
	ids    []int // nil when anonymous
	time   int
	trace  *Trace
	engine EngineMode

	// Reusable per-step buffers (see engine.go): the configuration
	// snapshot shared by every view, the destination/error slot per
	// active robot, and one scratch per compute worker, in which that
	// worker builds every view it hands to a behavior. They make the hot
	// loop allocation-free after warm-up.
	snapshot []geom.Point
	dests    []geom.Point
	errs     []error
	workers  []cellBatch
	seen     []bool // duplicate-activation detector

	// Structure-of-arrays mirrors of the per-robot hot fields, refreshed
	// once per step by syncSoA (see engine.go) so the compute phase
	// streams over flat slices instead of chasing robots[i] pointers.
	// anyLimited caches whether any robot has a bounded sensor.
	sigmas     []float64
	visRadii   []float64
	frames     []geom.Frame
	behaviors  []Behavior
	anyLimited bool

	// viewIndex is a spatial grid over the snapshot, kept in sync by
	// prepareStep when any robot has limited visibility and the swarm is
	// large enough to amortise indexing: incrementally spliced when few
	// robots moved since the previous instant, rebuilt otherwise. It is
	// read-only during the compute phase, so parallel workers share it
	// safely. viewIndexActive marks it in use this instant; gridSynced
	// marks its contents current (the object is retained, warm, across
	// instants that do not index). viewIndexOff forces the brute sensor
	// scan, for the in-package parity tests and benchmarks: indexing
	// never changes a computed view, since the grid only culls
	// candidates ahead of the exact sensor predicate. movedScratch is
	// the diff buffer.
	viewIndex       *spatial.Grid
	viewIndexOff    bool
	viewIndexActive bool
	gridSynced      bool
	movedScratch    []int32

	// compact enables compact views (SetCompactViews); activeSlot maps
	// robot index to destination slot during batched view construction
	// (-1 when inactive).
	compact    bool
	activeSlot []int32

	// touchedAt, when non-nil (EnableTouchTracking), records per robot
	// the instant-plus-one of its last position write (0 = never moved
	// since tracking began), so a delta checkpointer can ask for exactly
	// the robots that moved since its previous capture.
	touchedAt []int

	// inject is the optional fault-injection hook surface (see
	// inject.go); nil means a fault-free world.
	inject Injector

	// obs is the optional observability hook (internal/obs). Nil means
	// disabled; every site guards with a single nil check.
	obs *obs.Observer

	// stream is the optional external record consumer.
	stream StreamSink

	// rec is the reusable record of the instant in progress; recording
	// caches whether any consumer is attached, and stepping marks an
	// open instant, which a Teleport from BeginStep joins.
	rec       Record
	recording bool
	stepping  bool
}

// Record reports one unit of execution to every consumer from one
// dispatch site. Step closes an instant's record (InStep) after its
// apply loop; a Teleport between instants, and an instant that fails
// after its injector moved robots, close their writes out of step. The
// buffers are reused: consumers copy what they keep.
type Record struct {
	Time   int
	InStep bool
	// Active is the activation set after crash filtering (nil out of
	// step).
	Active []int
	// Moves are the position writes in application order: injector
	// displacements first, then one per active robot.
	Moves []Move
	// Events are the fault events in canonical (T, Robot, Kind, Peer,
	// Val) order.
	Events []obs.Event
}

// StreamSink is the world's external record consumer (the facade's
// movement stream, benchmark taps). EndStep runs on the stepping
// goroutine whenever a record closes — once per instant after its moves
// are applied, and once per out-of-step record — and reads the record
// through World.Record; t and active repeat its Time and Active.
type StreamSink interface {
	EndStep(t int, active []int)
}

// Config configures a World.
type Config struct {
	// Positions are the initial robot positions (world coordinates). At
	// least one robot; positions must be pairwise distinct.
	Positions []geom.Point
	// Robots supplies frame, sigma and behavior per robot, index-aligned
	// with Positions. Frames' origins are overwritten with the positions.
	Robots []*Robot
	// Identified makes the robots carry observable IDs 0..n-1. When
	// false, views carry no IDs (anonymous system).
	Identified bool
	// RecordTrace enables full move recording (used by tests, figures
	// and benchmarks; protocols never read the trace).
	RecordTrace bool
	// Engine selects the step-engine mode (see EngineMode). The zero
	// value EngineAuto parallelises large activation sets on multi-core
	// hosts and stays sequential otherwise; every mode computes the
	// identical execution.
	Engine EngineMode
}

var (
	// ErrNoRobots is returned for an empty configuration.
	ErrNoRobots = errors.New("sim: no robots")
	// ErrMismatchedRobots is returned when Positions and Robots differ
	// in length.
	ErrMismatchedRobots = errors.New("sim: positions and robots length mismatch")
	// ErrCoincidentRobots is returned when two robots start at the same
	// point, which the model forbids.
	ErrCoincidentRobots = errors.New("sim: coincident initial positions")
	// ErrBadSigma is returned when a robot's sigma is not positive
	// (NaN included).
	ErrBadSigma = errors.New("sim: sigma must be positive")
	// ErrEmptyActivation is returned when a scheduler activates nobody,
	// violating the model ("at least one robot is active at each
	// instant").
	ErrEmptyActivation = errors.New("sim: scheduler activated no robot")
)

// NewWorld validates the configuration and builds a world at instant 0.
func NewWorld(cfg Config) (*World, error) {
	n := len(cfg.Positions)
	if n == 0 {
		return nil, ErrNoRobots
	}
	if len(cfg.Robots) != n {
		return nil, ErrMismatchedRobots
	}
	for i := 0; i < n; i++ {
		if cfg.Robots[i] == nil || cfg.Robots[i].Behavior == nil {
			return nil, fmt.Errorf("sim: robot %d has no behavior", i)
		}
		if !(cfg.Robots[i].Sigma > 0) { // NaN fails every comparison
			return nil, fmt.Errorf("robot %d: %w", i, ErrBadSigma)
		}
	}
	if err := checkDistinctPositions(cfg.Positions); err != nil {
		return nil, err
	}
	w := &World{
		robots:     make([]*Robot, n),
		pos:        make([]geom.Point, n),
		engine:     cfg.Engine,
		seen:       make([]bool, n),
		sigmas:     make([]float64, n),
		visRadii:   make([]float64, n),
		frames:     make([]geom.Frame, n),
		behaviors:  make([]Behavior, n),
		activeSlot: make([]int32, n),
	}
	for i := range w.activeSlot {
		w.activeSlot[i] = -1
	}
	copy(w.pos, cfg.Positions)
	for i, r := range cfg.Robots {
		rr := *r // copy so callers can reuse template robots
		rr.Frame = rr.Frame.WithOrigin(w.pos[i])
		if rr.Frame.Scale <= 0 {
			rr.Frame.Scale = 1
		}
		if rr.Frame.Hand != geom.LeftHanded {
			rr.Frame.Hand = geom.RightHanded
		}
		w.robots[i] = &rr
	}
	if cfg.Identified {
		w.ids = make([]int, n)
		for i := range w.ids {
			w.ids[i] = i
		}
	}
	if cfg.RecordTrace {
		w.trace = NewTrace(cfg.Positions)
	}
	return w, nil
}

// coincidentGridMinN is the robot count from which NewWorld checks
// initial-position distinctness through a throwaway spatial grid instead
// of the ascending all-pairs scan; below it the grid build costs more
// than the quadratic loop it avoids.
const coincidentGridMinN = 256

// checkDistinctPositions rejects coincident initial positions, which the
// model forbids. Large sets use a grid, whose FirstCoincident reports
// the same pair as the quadratic scan, at expected O(n).
func checkDistinctPositions(pts []geom.Point) error {
	n := len(pts)
	if n < coincidentGridMinN {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if pts[i].Eq(pts[j]) {
					return fmt.Errorf("robots %d and %d: %w", i, j, ErrCoincidentRobots)
				}
			}
		}
		return nil
	}
	if i, j, ok := spatial.NewGrid(pts).FirstCoincident(); ok {
		return fmt.Errorf("robots %d and %d: %w", i, j, ErrCoincidentRobots)
	}
	return nil
}

// N returns the number of robots.
func (w *World) N() int { return len(w.robots) }

// Time returns the current instant index.
func (w *World) Time() int { return w.time }

// Positions returns a copy of the current configuration.
func (w *World) Positions() []geom.Point {
	out := make([]geom.Point, len(w.pos))
	copy(out, w.pos)
	return out
}

// Position returns robot i's current position.
func (w *World) Position(i int) geom.Point { return w.pos[i] }

// Robot returns robot i.
func (w *World) Robot(i int) *Robot { return w.robots[i] }

// Trace returns the recorded trace, or nil when recording is off.
func (w *World) Trace() *Trace { return w.trace }

// SetObserver attaches (or, with nil, detaches) the observability hook.
// Safe between steps only. Attaching seeds the static gauges (swarm
// size, current instant).
func (w *World) SetObserver(o *obs.Observer) {
	w.obs = o
	if o != nil {
		o.Sim.Robots.Set(float64(len(w.robots)))
		o.Sim.Time.Set(float64(w.time))
	}
}

// Observer returns the attached observer, or nil.
func (w *World) Observer() *obs.Observer { return w.obs }

// SetStreamSink attaches (or, with nil, detaches) the external record
// consumer. Safe between steps only.
func (w *World) SetStreamSink(s StreamSink) { w.stream = s }

// Step advances the world by one instant using the scheduler's
// activation set. It returns the set of activated robots.
//
// The observe–compute–clamp phase runs under the configured EngineMode
// (sequential, or fanned out over a GOMAXPROCS-sized worker pool): all
// active robots observe the same immutable snapshot, each behavior
// mutates only its own private state, and the moves are applied
// simultaneously — in activation order — after a barrier, so every mode
// computes the identical execution. A behavior returning a NaN or
// infinite destination yields a descriptive error instead of silently
// corrupting the configuration (NaN survives the sigma clamp).
func (w *World) Step(s Scheduler) ([]int, error) {
	var stepStart time.Time
	if w.obs != nil {
		stepStart = time.Now()
	}
	active := s.Next(w.time, len(w.robots))
	if len(active) == 0 {
		return nil, ErrEmptyActivation
	}
	for _, i := range active {
		if i < 0 || i >= len(w.robots) {
			w.resetSeen(active)
			return nil, fmt.Errorf("sim: scheduler activated robot %d of %d", i, len(w.robots))
		}
		if w.seen[i] {
			w.resetSeen(active)
			return nil, fmt.Errorf("sim: scheduler activated robot %d twice in one instant", i)
		}
		w.seen[i] = true
	}
	w.resetSeen(active)
	w.openRecord(true)
	active, err := w.runInstant(active)
	// A failed instant's writes (its injector's displacements) and fault
	// events close out of step, so no consumer misses a position write.
	w.rec.InStep = err == nil
	if w.recording {
		w.rec.Active = active
		if w.inject != nil {
			w.rec.Events = w.inject.AppendEvents(w.rec.Events)
			obs.SortEvents(w.rec.Events)
		}
	}
	w.dispatch(stepStart)
	if err != nil {
		return nil, err
	}
	w.time++
	return active, nil
}

// runInstant runs one instant for a validated activation set — the
// injector's hooks, the compute phase and the apply loop — and returns
// the activation set after crash filtering.
func (w *World) runInstant(active []int) ([]int, error) {
	if w.inject != nil {
		// Faults first mutate the world (displacements, coupled radio
		// state), then may crash-stop robots out of the activation set.
		w.inject.BeginStep(w.time, w)
		active = w.inject.FilterActive(w.time, active)
		if len(active) == 0 {
			// Every activated robot is crash-stopped: the instant
			// passes with no observations and no moves.
			return active, nil
		}
	}
	// All active robots observe the same snapshot.
	w.prepareStep(len(active))
	w.computeMoves(active)
	for _, err := range w.errs {
		if err != nil {
			return nil, err
		}
	}
	if w.inject != nil {
		// Movement faults rewrite the faithful destinations before any
		// move is applied, so a non-finite perturbation cannot leave the
		// configuration half-updated.
		for k, i := range active {
			d := w.inject.PerturbMove(w.time, i, w.pos[i], w.dests[k])
			if !isFinite(d) {
				return nil, fmt.Errorf("sim: injector produced non-finite destination %v for robot %d", d, i)
			}
			w.dests[k] = d
		}
	}
	// Apply simultaneously.
	for k, i := range active {
		w.move(i, w.dests[k])
	}
	return active, nil
}

// resetSeen clears the duplicate-activation marks set for this instant;
// only marks for valid indices can have been set.
func (w *World) resetSeen(active []int) {
	for _, i := range active {
		if i >= 0 && i < len(w.seen) {
			w.seen[i] = false
		}
	}
}

// Record returns the record the world closed last, filled only while a
// consumer is attached; the next Step or Teleport reuses its buffers.
func (w *World) Record() *Record { return &w.rec }

// openRecord starts a record at the current instant and decides, once
// per record, whether any consumer is attached: a world without one
// pays a single predictable branch per position write.
func (w *World) openRecord(inStep bool) {
	w.recording = w.trace != nil || w.obs != nil || w.touchedAt != nil || w.stream != nil
	w.stepping = inStep
	w.rec.Time, w.rec.InStep, w.rec.Active = w.time, inStep, nil
	w.rec.Moves = w.rec.Moves[:0]
	w.rec.Events = w.rec.Events[:0]
}

// move writes robot i's position, moves its frame along, and logs the
// write in the open record.
func (w *World) move(i int, to geom.Point) {
	if w.recording {
		w.rec.Moves = append(w.rec.Moves, Move{Time: w.time, Robot: i, From: w.pos[i], To: to})
	}
	w.pos[i] = to
	w.robots[i].Frame = w.robots[i].Frame.WithOrigin(to)
}

// dispatch closes the open record and hands it to every consumer in a
// fixed order on the stepping goroutine, so what each sees is
// engine-independent: the touch set, the trace, the stream sink, and
// last the observer (fault, activation and move events, then the step
// metrics, whose latency thus covers the other consumers; stepStart is
// valid only with an observer).
func (w *World) dispatch(stepStart time.Time) {
	w.stepping = false
	rec := &w.rec
	if !w.recording || !rec.InStep && len(rec.Moves) == 0 && len(rec.Events) == 0 {
		return
	}
	if w.touchedAt != nil {
		for _, m := range rec.Moves {
			w.touchedAt[m.Robot] = rec.Time + 1
		}
	}
	if w.trace != nil {
		w.trace.add(rec, w.pos)
	}
	if w.stream != nil {
		w.stream.EndStep(rec.Time, rec.Active)
	}
	if o := w.obs; o != nil {
		for _, e := range rec.Events {
			o.Record(e)
		}
		if rec.InStep {
			for _, m := range rec.Moves[len(rec.Moves)-len(rec.Active):] {
				o.Record(obs.Event{T: rec.Time, Kind: obs.EvActivate, Robot: m.Robot, Peer: -1})
				if d := m.Dist(); d > 0 {
					o.Record(obs.Event{T: rec.Time, Kind: obs.EvMove, Robot: m.Robot, Peer: -1, Val: d})
				}
			}
			o.Sim.Steps.Inc()
			o.Sim.Activations.Add(int64(len(rec.Active)))
			o.Sim.ActivationsPerStep.Observe(float64(len(rec.Active)))
			o.Sim.Time.Set(float64(rec.Time + 1))
			o.Sim.StepSeconds.Observe(time.Since(stepStart).Seconds())
		}
	}
}

// Teleport forcibly relocates robot i — a transient fault injected by
// the experiment harness (a gust of wind, a sensor glitch, an operator
// picking the robot up). Protocols do not expect it; the §5
// stabilization experiments measure how they recover.
func (w *World) Teleport(i int, to geom.Point) error {
	if i < 0 || i >= len(w.robots) {
		return fmt.Errorf("sim: teleport of robot %d of %d", i, len(w.robots))
	}
	between := !w.stepping
	if between {
		w.openRecord(false)
	}
	w.move(i, to)
	if between {
		// A write between instants closes its own out-of-step record;
		// one from BeginStep (a displacement) joins the open instant.
		w.dispatch(time.Time{})
	}
	return nil
}

// EnableTouchTracking starts recording, per robot, the instant of its
// last position write. Idempotent; costs one int write per position
// write, at record dispatch. Delta checkpointing turns it on so a
// capture touches only the robots that moved since the previous one.
func (w *World) EnableTouchTracking() {
	if w.touchedAt == nil {
		w.touchedAt = make([]int, len(w.robots))
	}
}

// AppendTouchedSince appends to buf, in ascending order, every robot
// whose position was written when the world clock read > sinceTime
// (pass the Time() observed at the previous capture; the write stamp is
// write-instant + 1, so "stamp > sinceTime" selects writes at or after
// that moment). Tracking must have been enabled before the interval of
// interest began. The result may be a superset of the robots whose
// positions actually differ — a write can land exactly on the old
// position, and a teleport just before the previous capture shares its
// instant — so callers diff values, not indices.
func (w *World) AppendTouchedSince(sinceTime int, buf []int) []int {
	for i, t := range w.touchedAt {
		if t > 0 && t > sinceTime {
			buf = append(buf, i)
		}
	}
	return buf
}

// Run advances the world until the predicate returns true or maxSteps
// instants have elapsed. It returns the number of instants executed and
// whether the predicate was satisfied.
func (w *World) Run(s Scheduler, maxSteps int, done func(w *World) bool) (int, bool, error) {
	for step := 0; step < maxSteps; step++ {
		if done != nil && done(w) {
			return step, true, nil
		}
		if _, err := w.Step(s); err != nil {
			return step, false, err
		}
	}
	return maxSteps, done != nil && done(w), nil
}

// localView builds robot i's view of the snapshot in the worker's
// scratch sc: the returned slices stay valid only until Behavior.Step
// returns, when the worker reuses them for the next robot it steps.
// Behaviors that need the view beyond one Step call must copy what they
// keep.
func (w *World) localView(i int, sc *cellBatch) View {
	snapshot := w.snapshot
	if w.compact && w.visRadii[i] > 0 {
		if w.viewIndexActive {
			return w.cellView(i, sc)
		}
		return w.compactView(i, sc)
	}
	n := len(snapshot)
	if len(sc.points) != n {
		sc.points = make([]geom.Point, n)
	}
	pts := sc.points
	var visible []bool
	if r := w.visRadii[i]; r > 0 {
		if len(sc.visible) != n {
			sc.visible = make([]bool, n)
		}
		visible = sc.visible
		for j := range visible {
			visible[j] = false
		}
	}
	if visible != nil && w.viewIndexActive {
		if o := w.obs; o != nil {
			// View-index hit: this view is built through the per-step
			// grid. Atomic add — the compute phase runs concurrently.
			o.Sim.ViewIndexViews.Inc()
		}
		// Limited visibility with the per-step grid: mark and transform
		// only the robots inside the sensor disc (expected O(k) instead
		// of O(n) transforms), pre-filling everything else with the
		// observer's own position — exactly what the full scan writes
		// for out-of-range robots. The visibility predicate below is the
		// same Dist <= VisRadius comparison as the scan, on a candidate
		// superset, so the resulting view is bit-identical.
		// Each branch evaluates its own basis: one kept live across the
		// whole function made the compiler spill the prefill loop's
		// counter, which slowed 10k-robot dense views by a quarter.
		self := snapshot[i]
		b := w.frames[i].Basis()
		selfLocal := b.ToLocal(self)
		for j := range pts {
			pts[j] = selfLocal
		}
		r := w.visRadii[i]
		w.viewIndex.VisitNeighborhood(self, r, func(j int, d float64) {
			if d <= r {
				visible[j] = true
				pts[j] = b.ToLocal(snapshot[j])
			}
		})
		return View{Time: w.time, Self: i, Points: pts, IDs: w.viewIDs(sc), Visible: visible}
	}
	b := w.frames[i].Basis()
	selfLocal := b.ToLocal(snapshot[i])
	for j, p := range snapshot {
		if visible != nil {
			if snapshot[i].Dist(p) <= w.visRadii[i] {
				visible[j] = true
			} else {
				// Out of sensor range: the observer perceives nothing
				// at all for this robot.
				pts[j] = selfLocal
				continue
			}
		}
		pts[j] = b.ToLocal(p)
	}
	return View{Time: w.time, Self: i, Points: pts, IDs: w.viewIDs(sc), Visible: visible}
}

// viewIDs copies the robots' IDs into sc for a dense view, or returns
// nil in an anonymous system.
func (w *World) viewIDs(sc *cellBatch) []int {
	if w.ids == nil {
		return nil
	}
	if len(sc.ids) != len(w.ids) {
		sc.ids = make([]int, len(w.ids))
	}
	copy(sc.ids, w.ids)
	return sc.ids
}

// compactView builds robot i's compact view by the brute scan: the
// robots inside the sensor disc, ascending by robot index, with Indices
// mapping slots back to robot indices. The visible content is
// bit-identical to the dense view's visible set — the sensor test
// decides exactly Dist <= VisRadius, the frame transform is the same,
// the order ascending. With the grid active, compact views are filtered
// from their cell's candidates instead (cellView).
func (w *World) compactView(i int, sc *cellBatch) View {
	snapshot := w.snapshot
	self, s := snapshot[i], geom.NewBand(w.visRadii[i])
	idx := sc.cidx[:0]
	for j, p := range snapshot {
		dx, dy := self.X-p.X, self.Y-p.Y
		if in, ok := s.Fast(dx, dy); in || !ok && s.Within(dx, dy) {
			idx = append(idx, j)
		}
	}
	b := w.frames[i].Basis()
	pts := sc.cpts[:0]
	for _, j := range idx {
		pts = append(pts, b.ToLocal(snapshot[j]))
	}
	return w.finishCompact(i, idx, pts, sc)
}

// finishCompact completes robot i's compact view from its visible
// indices and their local positions, both in the worker's scratch sc:
// it adds the IDs and finds the observer's own slot.
func (w *World) finishCompact(i int, idx []int, pts []geom.Point, sc *cellBatch) View {
	var ids []int
	if w.ids != nil {
		ids = sc.cids[:0]
	}
	selfSlot := -1
	for k, j := range idx {
		if j == i {
			selfSlot = k
		}
		if w.ids != nil {
			ids = append(ids, w.ids[j])
		}
	}
	sc.cidx, sc.cpts, sc.cids = idx, pts, ids
	return View{Time: w.time, Self: selfSlot, Points: pts, IDs: ids, Indices: idx}
}
