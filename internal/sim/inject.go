package sim

import (
	"waggle/internal/geom"
	"waggle/internal/obs"
)

// Injector is the fault-injection hook surface of World.Step. A world
// with an injector attached runs every instant through four hooks, in
// this order:
//
//  1. BeginStep — after the scheduler has chosen the activation set and
//     before the configuration snapshot is taken. The injector may
//     mutate the world here (Teleport for transient displacements,
//     coupled fault state such as a radio).
//  2. FilterActive — removes crash-stopped robots from the activation
//     set. A robot removed here neither observes nor computes nor
//     moves, exactly the crash-stop fault model. The hook must preserve
//     the relative order of the surviving indices.
//  3. PerturbView — per activated robot, after its local view is built
//     and before its behavior runs. Observation faults (sensor noise,
//     dropped sightings) rewrite the view here. Under the parallel
//     engine this hook is called concurrently from worker goroutines,
//     so implementations must be deterministic pure functions of
//     (t, observer) with no shared mutable state beyond per-observer
//     state — see internal/fault for the hash-keyed construction.
//  4. PerturbMove — per activated robot, after the behavior's
//     destination has been computed and sigma-clamped, before the moves
//     are applied. Movement faults (truncation, overshoot) rewrite the
//     destination here; it runs sequentially on the stepping goroutine.
//
// All hooks receive the instant index t, so a deterministic injector
// driven by a declarative schedule reproduces byte-identical executions
// for a fixed seed, under both the sequential and parallel engines.
type Injector interface {
	// BeginStep runs before the instant's snapshot; it may mutate the
	// world (e.g. World.Teleport) and advance time-coupled fault state.
	BeginStep(t int, w *World)
	// FilterActive returns the activation set with crash-stopped robots
	// removed (it may filter in place). Returning an empty set makes
	// the instant pass with no observations and no moves.
	FilterActive(t int, active []int) []int
	// PerturbView may rewrite the observer's view in place (the slices
	// belong to the worker stepping the observer until the behavior's
	// Step returns) and must return the view to hand to the behavior.
	// frame is the observer's current frame, for converting world-unit
	// perturbations into local units.
	PerturbView(t, observer int, frame geom.Frame, view View) View
	// PerturbMove returns the world-space destination actually applied
	// for the robot, given the faithful one. Returning from means the
	// move is suppressed entirely.
	PerturbMove(t, robot int, from, dest geom.Point) geom.Point
	// AppendEvents appends the fault events the hooks raised since
	// BeginStep, in any order, to dst for the instant's Record, which
	// sorts them. It runs on the stepping goroutine, and only when a
	// record consumer is attached.
	AppendEvents(dst []obs.Event) []obs.Event
}

// SetInjector attaches (or, with nil, detaches) a fault injector. Safe
// between steps only.
func (w *World) SetInjector(inj Injector) { w.inject = inj }

// Injector returns the attached fault injector, or nil.
func (w *World) Injector() Injector { return w.inject }
