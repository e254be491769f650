package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"waggle/internal/geom"
	"waggle/internal/spatial"
)

// EngineMode selects how World.Step computes the moves of an instant's
// active robots. All modes produce byte-for-byte identical executions:
// every destination is a pure function of the shared snapshot and the
// robot's own private state, and moves are applied in activation order
// after a barrier, so only wall-clock time differs between modes.
type EngineMode int

const (
	// EngineAuto picks per instant: parallel when the activation set is
	// large enough to amortise goroutine overhead on a multi-core host
	// (at least parallelMinActive robots and GOMAXPROCS > 1),
	// sequential otherwise. This is the default.
	EngineAuto EngineMode = iota
	// EngineSequential computes every move on the calling goroutine.
	EngineSequential
	// EngineParallel always fans the compute phase out over a worker
	// pool sized to GOMAXPROCS, even for a single active robot, so the
	// memory-visibility and recovery behavior is identical at every
	// activation-set size.
	EngineParallel
)

// parallelMinActive is the activation-set size below which EngineAuto
// stays sequential: for small sets the per-step goroutine fan-out costs
// more than the O(n) view construction it parallelises.
const parallelMinActive = 32

// cellBatch is one compute worker's scratch. A view lives only until
// Behavior.Step returns, so every view a worker builds lands in its
// cellBatch and one set of buffers serves every robot the worker steps.
// The dense buffers (points/ids/visible) and the compact ones
// (cpts/cidx/cids) are sized on first use, so a worker that builds only
// compact views never sizes the O(n) dense slices. Batched compact-view
// construction adds the active residents of the cell being processed,
// the candidate superset of their sensor discs with each candidate's
// snapshot position, and one resident's visible candidates as sort keys.
type cellBatch struct {
	points  []geom.Point
	ids     []int
	visible []bool

	cpts []geom.Point
	cidx []int
	cids []int

	residents []int32
	cand      []int32
	pos       []geom.Point
	keys      []uint64
}

// SetEngine switches the step-engine mode. Safe between steps; the mode
// never changes the computed execution, only how it is computed. The
// waggle facade never calls it (every swarm runs EngineAuto): it is the
// hook through which the parity tests and the benchmarks force one
// compute path.
func (w *World) SetEngine(m EngineMode) { w.engine = m }

// SetCompactViews switches limited-visibility robots to compact views:
// View.Points holds only the robots inside the sensor disc (ascending by
// robot index) and View.Indices maps slots back to robot indices, so a
// step costs O(visible) per robot instead of O(n). Robots with unlimited
// visibility keep dense views. Compact views change the View *shape* —
// behaviors and injectors must consult Indices — so the switch is
// opt-in; the visible *content* (which robots, their local positions) is
// bit-identical to the dense view's visible set. Safe between steps.
func (w *World) SetCompactViews(on bool) { w.compact = on }

// useParallel decides whether this instant's compute phase fans out.
func (w *World) useParallel(activeLen int) bool {
	switch w.engine {
	case EngineSequential:
		return false
	case EngineParallel:
		// Always fan out, as documented: Step guarantees a non-empty
		// activation set, so at least one worker runs.
		return true
	default:
		return activeLen >= parallelMinActive && runtime.GOMAXPROCS(0) > 1
	}
}

// computeMoves fills w.dests[k] / w.errs[k] with the destination of
// active[k]. The units of work are the active robots or, when compact
// views run over the grid, the grid's cells (computeCell). They run on
// the calling goroutine, or on a worker pool whose workers pull units
// from an atomic counter (work stealing). Each worker builds its views
// in its own scratch and writes every result to its own slot, so the
// outcome is independent of scheduling.
func (w *World) computeMoves(active []int) {
	batched := w.compact && w.viewIndexActive
	if batched {
		for k, i := range active {
			w.activeSlot[i] = int32(k)
		}
	}
	parallel, workers := w.useParallel(len(active)), 1
	if parallel {
		workers = min(runtime.GOMAXPROCS(0), len(active))
	}
	if len(w.workers) < workers {
		// Keep the warmed scratches when the worker count grows.
		w.workers = append(w.workers, make([]cellBatch, workers-len(w.workers))...)
	}
	if !parallel {
		var next atomic.Int64
		w.work(active, batched, &next, &w.workers[0])
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for wk := range workers {
			sc := &w.workers[wk]
			go func() {
				defer wg.Done()
				w.work(active, batched, &next, sc)
			}()
		}
		wg.Wait()
	}
	if batched {
		for _, i := range active {
			w.activeSlot[i] = -1
		}
	}
}

// work is one worker's loop: it claims units off next until none is
// left, computing a grid cell's residents when batched and one active
// robot otherwise. The units are plain indices, so the sequential path
// allocates nothing.
func (w *World) work(active []int, batched bool, next *atomic.Int64, sc *cellBatch) {
	units := len(active)
	if batched {
		units = w.viewIndex.CellCount()
	}
	for {
		u := int(next.Add(1)) - 1
		if u >= units {
			return
		}
		if batched {
			w.computeCell(u, sc)
		} else {
			w.dests[u], w.errs[u] = w.computeMove(active[u], sc)
		}
	}
}

// computeCell computes the moves of every active robot located in grid
// cell c, sharing one candidate gather across them: the window of the
// cell under its residents' largest sensor radius, with the candidates'
// positions, which each resident's view filters with the exact sensor
// predicate (cellView). Every destination lands in its own active slot.
func (w *World) computeCell(c int, sc *cellBatch) {
	residents := sc.residents[:0]
	rmax := 0.0
	w.viewIndex.VisitCellMembers(c, func(j int32) {
		if w.activeSlot[j] < 0 {
			return
		}
		residents = append(residents, j)
		if r := w.visRadii[j]; r > rmax {
			rmax = r
		}
	})
	sc.residents = residents
	if len(residents) == 0 {
		return
	}
	cand := w.viewIndex.AppendCellWindow(sc.cand[:0], c, rmax)
	pos := sc.pos[:0]
	for _, j := range cand {
		pos = append(pos, w.snapshot[j])
	}
	sc.cand, sc.pos = cand, pos
	for _, j := range residents {
		k := w.activeSlot[j]
		w.dests[k], w.errs[k] = w.computeMove(int(j), sc)
	}
}

// cellView builds robot i's compact view from the candidates
// computeCell gathered into sc for the robot's cell. Each visible
// candidate becomes the key robot index<<32 | slot; an index occurs at
// most once in a window, so sorting the keys orders the view by robot
// index, as the per-robot construction does, and the slot finds the
// gathered position.
func (w *World) cellView(i int, sc *cellBatch) View {
	self, s := w.snapshot[i], geom.NewBand(w.visRadii[i])
	keys := sc.keys[:0]
	for k, p := range sc.pos {
		dx, dy := self.X-p.X, self.Y-p.Y
		if in, ok := s.Fast(dx, dy); in || !ok && s.Within(dx, dy) {
			keys = append(keys, uint64(sc.cand[k])<<32|uint64(k))
		}
	}
	slices.Sort(keys)
	sc.keys = keys
	if o := w.obs; o != nil {
		o.Sim.ViewIndexViews.Inc()
	}
	b := w.frames[i].Basis()
	idx, pts := sc.cidx[:0], sc.cpts[:0]
	for _, key := range keys {
		idx = append(idx, int(key>>32))
		pts = append(pts, b.ToLocal(sc.pos[uint32(key)]))
	}
	return w.finishCompact(i, idx, pts, sc)
}

// computeMove runs robot i's observe–compute–clamp cycle against the
// current snapshot: its view, built in the worker's scratch sc, then
// fault injection, the behavior step, and the finiteness and sigma
// clamps. It touches only the snapshot and the SoA mirrors (both
// read-only during the compute phase), sc, and robot i's private state.
//
// It is the engine's one recover site: a panic becomes robot i's error.
// Inside a worker goroutine an unrecovered panic would kill the process
// without unwinding the caller, and the sequential path reports the
// identical per-robot error, so engine modes stay interchangeable.
func (w *World) computeMove(i int, sc *cellBatch) (dest geom.Point, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: robot %d behavior panicked: %v", i, r)
		}
	}()
	view := w.localView(i, sc)
	if w.inject != nil {
		// Observation faults (noise, dropped sightings). The hook runs
		// concurrently under the parallel engine; injectors are
		// deterministic per (time, observer), so the execution is
		// engine-independent.
		view = w.inject.PerturbView(w.time, i, w.frames[i], view)
	}
	localDest := w.behaviors[i].Step(view)
	worldDest := w.frames[i].ToWorld(localDest)
	// Reject non-finite destinations before the sigma clamp: NaN
	// survives the clamp (every comparison with NaN is false) and an
	// infinite delta turns into NaN inside it, so either would silently
	// corrupt the configuration.
	if !isFinite(worldDest) {
		return geom.Point{}, fmt.Errorf("sim: robot %d returned non-finite destination %v (local %v)", i, worldDest, localDest)
	}
	// Clamp to the per-activation bound sigma.
	delta := worldDest.Sub(w.snapshot[i])
	if d := delta.Len(); d > w.sigmas[i] {
		worldDest = w.snapshot[i].Add(delta.Scale(w.sigmas[i] / d))
	}
	return worldDest, nil
}

// viewIndexMinN is the swarm size from which limited-visibility views
// use the per-step spatial grid; below it the O(n) rebuild costs more
// than the distance checks it culls.
const viewIndexMinN = 48

// prepareStep refreshes the SoA mirrors, sizes the reusable
// snapshot/destination/error buffers for an instant with the given
// activation-set size, copies the configuration into the snapshot and,
// when limited-visibility culling applies, rebuilds the visibility grid
// over it. The grid object is never discarded: when indexing does not
// apply this instant it is merely left stale, so toggling visibility or
// viewIndexOff re-allocates nothing.
func (w *World) prepareStep(activeLen int) {
	n := len(w.pos)
	w.syncSoA()
	if w.snapshot == nil {
		w.snapshot = make([]geom.Point, n)
	}
	copy(w.snapshot, w.pos)
	w.viewIndexActive = !w.viewIndexOff && n >= viewIndexMinN && w.anyLimited
	if w.viewIndexActive {
		if w.viewIndex == nil {
			w.viewIndex = spatial.NewGrid(w.snapshot)
		} else {
			w.viewIndex.Rebuild(w.snapshot)
		}
	}
	if cap(w.dests) < activeLen {
		w.dests = make([]geom.Point, activeLen)
		w.errs = make([]error, activeLen)
	}
	w.dests = w.dests[:activeLen]
	w.errs = w.errs[:activeLen]
}

// syncSoA refreshes the structure-of-arrays mirrors of the per-robot hot
// fields. Frames change with every move and callers may edit
// Sigma/VisRadius/Behavior between steps, so the mirrors are re-derived
// once per step in one linear pass; the compute phase then streams over
// flat slices instead of chasing robots[i] pointers.
func (w *World) syncSoA() {
	limited := false
	for i, r := range w.robots {
		w.sigmas[i] = r.Sigma
		w.visRadii[i] = r.VisRadius
		w.frames[i] = r.Frame
		w.behaviors[i] = r.Behavior
		if r.VisRadius > 0 {
			limited = true
		}
	}
	w.anyLimited = limited
}

func isFinite(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}
