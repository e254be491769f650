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

// viewScratch holds one robot's reusable view buffers. Each robot owns
// exactly one scratch slot, so concurrent workers never share one; the
// slices handed to Behavior.Step stay valid (and unchanging) until that
// same robot's next activation. The dense buffers (points/ids/visible)
// and the compact buffers (cpts/cidx/cids) are independent: a robot in
// compact mode never sizes the O(n) dense slices.
type viewScratch struct {
	points  []geom.Point
	ids     []int
	visible []bool

	cpts []geom.Point
	cidx []int
	cids []int
}

// cellBatch holds one worker's reusable buffers for batched compact-view
// construction: the active residents of the cell being processed, the
// candidate superset of their sensor discs with each candidate's
// snapshot position, and one resident's visible candidates as sort keys.
type cellBatch struct {
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
// active[k], either in place or over a worker pool. Workers pull work
// from an atomic counter (work stealing), but every result is written to
// its own slot, so the outcome is independent of scheduling. Both the
// sequential and the parallel path run behaviors under safeComputeMove,
// so a panic surfaces as the same per-robot error in every mode.
func (w *World) computeMoves(active []int) {
	if w.compact && w.viewIndexActive {
		w.computeMovesBatched(active)
		return
	}
	if !w.useParallel(len(active)) {
		for k, i := range active {
			w.dests[k], w.errs[k] = w.safeComputeMove(i)
		}
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(active) {
		workers = len(active)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(active) {
					return
				}
				w.dests[k], w.errs[k] = w.safeComputeMove(active[k])
			}
		}()
	}
	wg.Wait()
}

// computeMovesBatched is the compact-view fast path: instead of one
// grid-window walk per observer, workers claim grid cells, gather each
// cell's candidate superset once (the window of the cell under its
// residents' largest sensor radius) together with the candidates'
// positions, and build every active resident's view by filtering that
// shared list with the exact sensor predicate — amortising the window
// walk and keeping the filter streaming over one cell's working set.
// Every destination still lands in its own active slot, so the
// execution is identical to the per-robot path in every engine mode.
func (w *World) computeMovesBatched(active []int) {
	for k, i := range active {
		w.activeSlot[i] = int32(k)
	}
	cells := w.viewIndex.CellCount()
	if !w.useParallel(len(active)) {
		w.ensureCellScratch(1)
		for c := 0; c < cells; c++ {
			w.computeCell(c, &w.cellScratch[0])
		}
	} else {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(active) {
			workers = len(active)
		}
		w.ensureCellScratch(workers)
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for wk := 0; wk < workers; wk++ {
			sc := &w.cellScratch[wk]
			go func() {
				defer wg.Done()
				for {
					c := int(next.Add(1)) - 1
					if c >= cells {
						return
					}
					w.computeCell(c, sc)
				}
			}()
		}
		wg.Wait()
	}
	for _, i := range active {
		w.activeSlot[i] = -1
	}
}

// computeCell computes the moves of every active robot located in grid
// cell c, sharing one candidate gather across them.
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
		if w.visRadii[j] <= 0 {
			// Unlimited-visibility robot in a compact world: dense view.
			w.dests[k], w.errs[k] = w.safeComputeMove(int(j))
			continue
		}
		w.dests[k], w.errs[k] = w.safeComputeMoveFrom(int(j), sc)
	}
}

// ensureCellScratch sizes the per-worker cell buffers, keeping warmed
// capacity when the worker count grows.
func (w *World) ensureCellScratch(workers int) {
	if len(w.cellScratch) < workers {
		w.cellScratch = append(w.cellScratch, make([]cellBatch, workers-len(w.cellScratch))...)
	}
}

// safeComputeMove converts a behavior panic into an error: inside a
// worker goroutine an unrecovered panic would kill the process without
// unwinding the caller, and the sequential path reports the identical
// per-robot error so engine modes stay interchangeable.
func (w *World) safeComputeMove(i int) (dest geom.Point, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: robot %d behavior panicked: %v", i, r)
		}
	}()
	return w.computeMove(i)
}

// safeComputeMoveFrom is safeComputeMove for the batched path: the view
// is filtered from the cell's gathered candidates. Each visible
// candidate becomes the key robot index<<32 | slot; an index occurs at
// most once in a window, so sorting the keys orders the view by robot
// index, as the per-robot construction does, and the slot finds the
// gathered position.
func (w *World) safeComputeMoveFrom(i int, sc *cellBatch) (dest geom.Point, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: robot %d behavior panicked: %v", i, r)
		}
	}()
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
	vs := &w.scratch[i]
	b := w.frames[i].Basis()
	idx, pts := vs.cidx[:0], vs.cpts[:0]
	for _, key := range keys {
		idx = append(idx, int(key>>32))
		pts = append(pts, b.ToLocal(sc.pos[uint32(key)]))
	}
	return w.finishMove(i, w.finishCompact(i, idx, pts))
}

// computeMove runs robot i's observe–compute–clamp cycle against the
// current snapshot. It touches only the snapshot (read-only during the
// compute phase), the SoA mirrors (likewise read-only), robot i's
// scratch slot, and robot i's private state.
func (w *World) computeMove(i int) (geom.Point, error) {
	return w.finishMove(i, w.localView(i, w.snapshot))
}

// finishMove is the shared tail of the observe–compute–clamp cycle:
// fault injection, the behavior step, and the finiteness and sigma
// clamps, all against the SoA mirrors.
func (w *World) finishMove(i int, view View) (geom.Point, error) {
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

// gridRebuildFraction is the moved fraction — of this instant's diff, or
// of the grid's cumulative bucket drift — above which prepareStep
// abandons incremental splicing for a full Rebuild: past it the splice
// work approaches the rebuild cost and clamped-in movers start skewing
// bucket balance.
const gridRebuildFraction = 0.25

// prepareStep refreshes the SoA mirrors, sizes the reusable
// snapshot/destination/error buffers for an instant with the given
// activation-set size, and brings the visibility grid in sync when
// limited-visibility culling applies — incrementally when it can, by a
// full rebuild when it must. The grid object is never discarded: when
// indexing does not apply this instant it merely goes out of sync, so
// toggling visibility or viewIndexOff re-allocates nothing.
func (w *World) prepareStep(activeLen int) {
	n := len(w.pos)
	w.syncSoA()
	needIndex := !w.viewIndexOff && n >= viewIndexMinN && w.anyLimited
	switch {
	case w.snapshot == nil:
		w.snapshot = make([]geom.Point, n)
		copy(w.snapshot, w.pos)
		if needIndex {
			w.rebuildGrid()
		}
	case needIndex && w.viewIndex != nil && w.gridSynced:
		w.updateGridIncremental(n)
	default:
		copy(w.snapshot, w.pos)
		if needIndex {
			w.rebuildGrid()
		} else {
			w.gridSynced = false
		}
	}
	w.viewIndexActive = needIndex
	if cap(w.dests) < activeLen {
		w.dests = make([]geom.Point, activeLen)
		w.errs = make([]error, activeLen)
	}
	w.dests = w.dests[:activeLen]
	w.errs = w.errs[:activeLen]
}

// rebuildGrid (re)indexes the visibility grid over the snapshot from
// scratch, reusing buffers after warm-up.
func (w *World) rebuildGrid() {
	if w.viewIndex == nil {
		w.viewIndex = spatial.NewGrid(w.snapshot)
	} else {
		w.viewIndex.Rebuild(w.snapshot)
	}
	w.gridSynced = true
}

// updateGridIncremental diffs the configuration against the snapshot the
// grid indexes and splices only the moved robots (Grid.Move updates the
// snapshot entries in place — the grid references the snapshot slice),
// falling back to a full Rebuild past gridRebuildFraction. Queries on
// the spliced grid are exact (the grid only narrows candidates), so the
// computed views are bit-identical either way.
func (w *World) updateGridIncremental(n int) {
	moved := w.movedScratch[:0]
	for i := range w.pos {
		if w.pos[i] != w.snapshot[i] {
			moved = append(moved, int32(i))
		}
	}
	w.movedScratch = moved
	if float64(len(moved)) > gridRebuildFraction*float64(n) ||
		w.viewIndex.MovedFraction() > gridRebuildFraction {
		copy(w.snapshot, w.pos)
		w.viewIndex.Rebuild(w.snapshot)
		return
	}
	for _, i := range moved {
		w.viewIndex.Move(int(i), w.pos[i])
	}
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

// scratchFor returns robot i's view scratch with the dense buffers sized
// for n robots. Compact views bypass it and size only the compact
// buffers.
func (w *World) scratchFor(i int) *viewScratch {
	sc := &w.scratch[i]
	if len(sc.points) != len(w.pos) {
		sc.points = make([]geom.Point, len(w.pos))
	}
	if w.ids != nil && len(sc.ids) != len(w.ids) {
		sc.ids = make([]int, len(w.ids))
	}
	if w.visRadii[i] > 0 && len(sc.visible) != len(w.pos) {
		sc.visible = make([]bool, len(w.pos))
	}
	return sc
}

func isFinite(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}
