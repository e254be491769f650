package spatial

import "waggle/internal/geom"

// dynRebuildFraction is the per-update moved fraction above which
// DynamicRadii abandons the incremental path: past it, re-deriving
// everything from scratch is cheaper than chasing dirty cells, and it
// also bounds how far the underlying grid's bucket balance can degrade.
const dynRebuildFraction = 0.25

// DynamicRadii maintains the nearest-neighbour radii of a moving point
// set — the granular radii of the paper's §3.2 preprocessing —
// incrementally across updates. When few points moved since the last
// Update, only the points whose radius could have changed are
// recomputed: a radius depends exactly on the points within twice its
// value, so a point is re-derived iff a dirty cell (a cell some point
// left, entered, or moved within) intersects that disc. Values are
// always bit-identical to NearestRadii on the same slice: recomputation
// uses the same grid NearestTo arithmetic, and an untouched radius is
// the min over a candidate set whose members within the critical
// distance did not move. The zero value is ready: its first Update
// computes every radius.
type DynamicRadii struct {
	pts   []geom.Point // owned copy, referenced by grid
	radii []float64
	grid  *Grid // nil below bruteCutoff (full brute recompute per update)
	moved []int32
}

// Update moves the tracked set to pts (copying it) and returns the
// refreshed radii, bit-identical to NearestRadii(pts). The returned
// slice is shared: callers must not mutate it and must copy what they
// keep across Updates. Cost is proportional to the number of moved
// points (plus a linear dirty-disc scan) when under dynRebuildFraction
// of the set moved, and one full recomputation otherwise.
func (d *DynamicRadii) Update(pts []geom.Point) []float64 {
	if len(pts) != len(d.pts) {
		d.pts = append(d.pts[:0], pts...)
		d.full()
		return d.radii
	}
	moved := d.moved[:0]
	for i := range pts {
		if pts[i] != d.pts[i] {
			moved = append(moved, int32(i))
		}
	}
	d.moved = moved
	if len(moved) == 0 {
		return d.radii
	}
	if d.grid == nil || float64(len(moved)) > dynRebuildFraction*float64(len(pts)) {
		copy(d.pts, pts)
		d.full()
		return d.radii
	}
	for _, i := range moved {
		from := d.pts[i]
		d.pts[i] = pts[i]
		d.grid.Move(int(i), from, pts[i])
	}
	for i := range d.pts {
		// 2*radii[i] is the exact reach of point i's radius: its nearest
		// neighbour sits at that distance, so only a point leaving or
		// entering the closed disc of that radius can change the min.
		// Moved points are always caught — their destination cell is
		// dirty and inside any range around themselves.
		reach := 2 * d.radii[i]
		if !d.grid.DirtyWithin(d.pts[i], reach+safetyMargin(reach)) {
			continue
		}
		_, dist := d.grid.NearestTo(d.pts[i], i)
		d.radii[i] = dist / 2
	}
	d.grid.ClearDirty()
	return d.radii
}

// full recomputes every radius from scratch, routing small sets to the
// brute scan exactly as NearestRadii does.
func (d *DynamicRadii) full() {
	if len(d.radii) != len(d.pts) {
		d.radii = make([]float64, len(d.pts))
	}
	if len(d.pts) < bruteCutoff {
		d.grid = nil
		nearestRadiiBruteInto(d.radii, d.pts)
		return
	}
	if d.grid == nil {
		d.grid = NewGrid(d.pts)
	} else {
		d.grid.Rebuild(d.pts)
	}
	for i := range d.pts {
		_, dist := d.grid.NearestTo(d.pts[i], i)
		d.radii[i] = dist / 2
	}
}
