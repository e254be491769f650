// Package spatial provides a uniform-grid point index over planar point
// sets: expected-O(1) nearest-neighbour and radius queries on a static
// site set, a rebuildable variant for per-step snapshots of moving
// robots, and an incremental minimum-separation index for rejection
// sampling.
//
// Every accelerated caller in this repository keeps a brute-force twin
// and is pinned to it by property tests; the index is engineered so the
// accelerated results are not merely close but IDENTICAL:
//
//   - The grid only narrows the candidate set. Final predicates
//     ("distance <= r", "distance < minSep") are evaluated by the caller
//     and decide exactly what the brute-force scan's arithmetic decides
//     (geom.Point.Dist, i.e. math.Hypot), so a candidate superset yields
//     the same accepted set, the same minimum value, and — with the
//     shared lowest-index tie rule — the same argmin.
//   - Pruning bounds carry a geom.Eps-scaled safety margin, orders of
//     magnitude above float64 rounding of the bound arithmetic, so a
//     point can never be pruned while still beating the current best.
//
// Cell sizing targets ~2 points per cell on quasi-uniform sets
// (cols = rows = floor(sqrt(n/2))), which bounds the bucket array by n/2
// and keeps rebuilds allocation-free after warm-up. Clustered or
// collinear inputs degrade gracefully: queries fall back to scanning
// more rings and remain correct (worst case O(n), the brute-force cost).
//
// A grid changes only by Rebuild: the simulator rebuilds its per-step
// grid at every instant that indexes.
package spatial

import (
	"math"

	"waggle/internal/geom"
)

// bruteCutoff is the point count below which NearestRadii stays with the
// direct all-pairs scan: building a grid costs more than ~500 distance
// evaluations.
const bruteCutoff = 24

// safetyMargin is the slack added to every pruning bound so that float64
// rounding in the bound arithmetic can never exclude a candidate that
// would win an exact comparison. It mirrors geom.ApproxEq's scaling.
func safetyMargin(d float64) float64 { return geom.Eps * (1 + d) }

// Grid is a uniform bucket index over a point slice. The points are
// referenced, not copied: the caller must not mutate them between
// Rebuild and the queries that depend on them. A zero Grid is not
// usable; construct with NewGrid or call Rebuild first.
type Grid struct {
	pts          []geom.Point
	minX, minY   float64
	cellW, cellH float64
	cols, rows   int

	// CSR bucket layout: bucket c holds items[start[c]:start[c+1]],
	// in ascending point-index order.
	start  []int32
	items  []int32
	counts []int32 // rebuild scratch
}

// NewGrid indexes pts. The slice is referenced, not copied.
func NewGrid(pts []geom.Point) *Grid {
	g := &Grid{}
	g.Rebuild(pts)
	return g
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// Rebuild re-indexes the grid over pts, reusing the internal buffers —
// the per-step snapshot path in the simulator calls this once per
// instant and allocates nothing after warm-up.
func (g *Grid) Rebuild(pts []geom.Point) {
	g.pts = pts
	n := len(pts)
	if n == 0 {
		// Reset the full geometry, not just the cell counts: stale
		// minX/cellW with cols == 0 would make a later cellCoords clamp
		// its column to cols-1 == -1 and index out of bounds.
		g.minX, g.minY = 0, 0
		g.cellW, g.cellH = 1, 1
		g.cols, g.rows = 0, 0
		g.items = g.items[:0]
		if g.start != nil {
			g.start = g.start[:1]
			g.start[0] = 0
		}
		return
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		// The builtins keep math.Min's and math.Max's NaN and
		// signed-zero rules and, unlike them, compile inline.
		minX = min(minX, p.X)
		minY = min(minY, p.Y)
		maxX = max(maxX, p.X)
		maxY = max(maxY, p.Y)
	}
	dim := int(math.Sqrt(float64(n) / 2))
	if dim < 1 {
		dim = 1
	}
	w, h := maxX-minX, maxY-minY
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	g.minX, g.minY = minX, minY
	g.cols, g.rows = dim, dim
	g.cellW, g.cellH = w/float64(dim), h/float64(dim)

	cells := dim * dim
	if cap(g.start) < cells+1 {
		g.start = make([]int32, cells+1)
		g.counts = make([]int32, cells)
	}
	g.start = g.start[:cells+1]
	g.counts = g.counts[:cells]
	for i := range g.counts {
		g.counts[i] = 0
	}
	if cap(g.items) < n {
		g.items = make([]int32, n)
	}
	g.items = g.items[:n]

	for _, p := range pts {
		g.counts[g.cellIndex(p)]++
	}
	g.start[0] = 0
	for c := 0; c < cells; c++ {
		g.start[c+1] = g.start[c] + g.counts[c]
		g.counts[c] = g.start[c]
	}
	for i, p := range pts {
		c := g.cellIndex(p)
		g.items[g.counts[c]] = int32(i)
		g.counts[c]++
	}
}

// axisCell returns floor(v)+shift clamped into [0, cells-1]: the cell,
// along one axis of cells cells, of offset v (in cell widths from the
// grid's low edge), widened by shift, which is -1, 0 or +1. It decides
// the edges in float space before converting, since Go leaves the
// conversion of a float outside int's range implementation-defined
// (amd64 yields the minimum int, the low edge even for +Inf). A negative
// offset, and NaN, takes the low edge; below the high edge, floor(v) is
// the truncation int(v).
func axisCell(v float64, shift, cells int) int {
	if !(v >= 0) {
		return 0
	}
	if v >= float64(cells) {
		return cells - 1
	}
	return min(max(int(v)+shift, 0), cells-1)
}

// cellCoords returns the (column, row) of the cell containing p, clamped
// into the grid (query points may lie outside the indexed bounding box).
// An empty grid has no cells; (0, 0) keeps downstream arithmetic in
// bounds and no caller dereferences a bucket without indexed points.
func (g *Grid) cellCoords(p geom.Point) (int, int) {
	if g.cols <= 0 || g.rows <= 0 {
		return 0, 0
	}
	return axisCell((p.X-g.minX)/g.cellW, 0, g.cols), axisCell((p.Y-g.minY)/g.cellH, 0, g.rows)
}

func (g *Grid) cellIndex(p geom.Point) int {
	ix, iy := g.cellCoords(p)
	return iy*g.cols + ix
}

// visitCell calls fn for every point in cell (ix, iy), in ascending
// point-index order.
func (g *Grid) visitCell(ix, iy int, fn func(j int32)) {
	c := iy*g.cols + ix
	for _, j := range g.items[g.start[c]:g.start[c+1]] {
		fn(j)
	}
}

// visitRing visits every in-grid cell at Chebyshev distance exactly r
// from (ix, iy).
func (g *Grid) visitRing(ix, iy, r int, fn func(j int32)) {
	if r == 0 {
		g.visitCell(ix, iy, fn)
		return
	}
	x0, x1 := ix-r, ix+r
	y0, y1 := iy-r, iy+r
	for x := x0; x <= x1; x++ {
		if x < 0 || x >= g.cols {
			continue
		}
		if y0 >= 0 {
			g.visitCell(x, y0, fn)
		}
		if y1 < g.rows {
			g.visitCell(x, y1, fn)
		}
	}
	for y := y0 + 1; y <= y1-1; y++ {
		if y < 0 || y >= g.rows {
			continue
		}
		if x0 >= 0 {
			g.visitCell(x0, y, fn)
		}
		if x1 < g.cols {
			g.visitCell(x1, y, fn)
		}
	}
}

// maxRing returns the largest Chebyshev ring around (ix, iy) that still
// intersects the grid.
func (g *Grid) maxRing(ix, iy int) int {
	m := ix
	if v := g.cols - 1 - ix; v > m {
		m = v
	}
	if iy > m {
		m = iy
	}
	if v := g.rows - 1 - iy; v > m {
		m = v
	}
	return m
}

// ringLowerBound returns a lower bound on the distance from p to any
// indexed point whose cell lies at Chebyshev ring >= r around (ix, iy).
// Directions in which rings 0..r-1 already cover the whole grid
// contribute +Inf (no unvisited point can lie that way); the bound is
// +Inf exactly when every indexed point has been visited.
func (g *Grid) ringLowerBound(p geom.Point, ix, iy, r int) float64 {
	if r <= 0 {
		return 0
	}
	b := math.Inf(1)
	if lo := ix - (r - 1); lo > 0 {
		if d := p.X - (g.minX + float64(lo)*g.cellW); d < b {
			b = d
		}
	}
	if hi := ix + (r - 1); hi < g.cols-1 {
		if d := (g.minX + float64(hi+1)*g.cellW) - p.X; d < b {
			b = d
		}
	}
	if lo := iy - (r - 1); lo > 0 {
		if d := p.Y - (g.minY + float64(lo)*g.cellH); d < b {
			b = d
		}
	}
	if hi := iy + (r - 1); hi < g.rows-1 {
		if d := (g.minY + float64(hi+1)*g.cellH) - p.Y; d < b {
			b = d
		}
	}
	if b < 0 {
		b = 0
	}
	return b
}

// NearestTo returns the index of the indexed point nearest to p by
// geom.Point.Dist, excluding index `exclude` (pass a negative value to
// exclude nothing), together with that distance. Exact distance ties go
// to the lowest index — the same rule as an ascending brute-force scan
// with a strict "<" comparison, so the two agree bit-for-bit. Returns
// (-1, +Inf) when no point qualifies.
func (g *Grid) NearestTo(p geom.Point, exclude int) (int, float64) {
	best := math.Inf(1)
	bestIdx := -1
	if len(g.pts) == 0 {
		return bestIdx, best
	}
	ix, iy := g.cellCoords(p)
	maxR := g.maxRing(ix, iy)
	for r := 0; r <= maxR; r++ {
		if bestIdx >= 0 && g.ringLowerBound(p, ix, iy, r) > best+safetyMargin(best) {
			break
		}
		g.visitRing(ix, iy, r, func(j int32) {
			if int(j) == exclude {
				return
			}
			d := p.Dist(g.pts[j])
			if d < best || (d == best && int(j) < bestIdx) {
				best, bestIdx = d, int(j)
			}
		})
	}
	return bestIdx, best
}

// VisitNeighborhood calls fn(j, d) — d being the exact geom.Point.Dist
// from p to point j — for every indexed point whose distance to p is at
// most radius, and possibly for some points slightly beyond (the cull is
// by covering cells, widened by one cell against boundary rounding).
// Callers must apply their own final predicate on d; doing so with the
// brute-force arithmetic makes the accepted set identical to a full
// scan. Visit order is bucket order, not distance order.
func (g *Grid) VisitNeighborhood(p geom.Point, radius float64, fn func(j int, d float64)) {
	if len(g.pts) == 0 || radius < 0 {
		return
	}
	x0 := axisCell((p.X-radius-g.minX)/g.cellW, -1, g.cols)
	x1 := axisCell((p.X+radius-g.minX)/g.cellW, 1, g.cols)
	y0 := axisCell((p.Y-radius-g.minY)/g.cellH, -1, g.rows)
	y1 := axisCell((p.Y+radius-g.minY)/g.cellH, 1, g.rows)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			g.visitCell(x, y, func(j int32) {
				fn(int(j), p.Dist(g.pts[j]))
			})
		}
	}
}

// FirstCoincident returns the first pair of indexed points that
// coincide, p.Eq(q), that is Dist <= geom.Eps: the smallest i, then the
// smallest j > i, the pair an ascending all-pairs scan reports. ok is
// false when no two points coincide.
//
// A point within Eps of p lies within Eps·(1+2u) of it on each axis,
// because a computed Hypot is never below either computed difference,
// and a computed difference is within u of the exact one. So only the
// cells that the box p ± Eps·(1+2⁻²⁰) maps to can hold it: the box's
// ends, rounded, still bracket its coordinates, and a coordinate's cell
// is monotone in it. Cells are normally far wider than the box, which
// then maps to p's own cell alone. Each candidate is decided by
// geom.Band, which answers Dist <= Eps bit for bit and calls Hypot only
// inside its rounding band.
func (g *Grid) FirstCoincident() (i, j int, ok bool) {
	const reach = geom.Eps * (1 + 0x1p-20)
	band := geom.NewBand(geom.Eps)
	for i, p := range g.pts {
		x0, y0 := g.cellCoords(geom.Pt(p.X-reach, p.Y-reach))
		x1, y1 := g.cellCoords(geom.Pt(p.X+reach, p.Y+reach))
		j := -1
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				g.visitCell(x, y, func(k int32) {
					q := g.pts[k]
					if int(k) > i && (j < 0 || int(k) < j) && band.Within(p.X-q.X, p.Y-q.Y) {
						j = int(k)
					}
				})
			}
		}
		if j >= 0 {
			return i, j, true
		}
	}
	return 0, 0, false
}

// CellCount returns the number of grid cells (cols × rows; 0 for an
// empty grid). Cell indices are row-major: c = row*cols + col. The count
// is only invalidated by Rebuild, so callers may iterate cells while
// issuing queries.
func (g *Grid) CellCount() int { return g.cols * g.rows }

// VisitCellMembers calls fn for every point located in cell c, in
// ascending point-index order.
func (g *Grid) VisitCellMembers(c int, fn func(j int32)) {
	if g.cols <= 0 {
		return
	}
	g.visitCell(c%g.cols, c/g.cols, fn)
}

// AppendCellWindow appends to buf the index of every point whose cell
// lies within ceil(r/cellSide)+1 cells of cell c in each axis — a
// guaranteed candidate superset of the points within distance r of ANY
// point located in cell c: a coordinate's column is monotone in it, so
// two points within distance r lie at most ceil(r/cellW)+1 columns
// apart, the extra column covering rounding at cell edges (likewise
// rows). Each point is appended once; callers apply the exact distance
// predicate.
func (g *Grid) AppendCellWindow(buf []int32, c int, r float64) []int32 {
	if g.cols <= 0 || r < 0 {
		return buf
	}
	cx, cy := c%g.cols, c/g.cols
	sx := spanCells(r, g.cellW, g.cols)
	sy := spanCells(r, g.cellH, g.rows)
	x0, x1 := max(cx-sx, 0), min(cx+sx, g.cols-1)
	y0, y1 := max(cy-sy, 0), min(cy+sy, g.rows-1)
	for y := y0; y <= y1; y++ {
		// The CSR buckets of cells x0..x1 of one row are one run of
		// items.
		lo, hi := y*g.cols+x0, y*g.cols+x1
		buf = append(buf, g.items[g.start[lo]:g.start[hi+1]]...)
	}
	return buf
}

// spanCells converts a world-space radius into a half-width in cells,
// saturating at the full axis (NaN, Inf and huge radii all take it).
func spanCells(r, side float64, cells int) int {
	s := math.Ceil(r / side)
	if !(s < float64(cells)) {
		return cells
	}
	return int(s) + 1
}

// NearestRadii returns, per point, half the distance to its nearest
// neighbour — the granular radius of the paper's §3.2 preprocessing. A
// single point (no neighbour) gets +Inf, matching the brute-force
// convention. Values are bit-identical to the O(n²) scan it runs below
// bruteCutoff: the grid only narrows candidates, the minimum is taken
// with the same geom.Point.Dist arithmetic.
func NearestRadii(pts []geom.Point) []float64 {
	out := make([]float64, len(pts))
	if len(pts) < bruteCutoff {
		nearestRadiiBruteInto(out, pts)
		return out
	}
	g := NewGrid(pts)
	for i := range pts {
		_, d := g.NearestTo(pts[i], i)
		out[i] = d / 2
	}
	return out
}

// nearestRadiiBruteInto is the O(n²) scan behind NearestRadii's small
// inputs, and the reference the property tests pin the grid against.
func nearestRadiiBruteInto(out []float64, pts []geom.Point) {
	for i, p := range pts {
		best := math.Inf(1)
		for j, q := range pts {
			if i != j {
				if d := p.Dist(q); d < best {
					best = d
				}
			}
		}
		out[i] = best / 2
	}
}

// Placer is an incremental minimum-separation index over an unbounded
// domain, for rejection-sampling placement loops: instead of scanning
// all previously accepted points (O(n) per attempt, O(n²) per
// configuration), each conflict check inspects the 3×3 cell
// neighbourhood of the candidate. The conflict predicate is exactly
// "exists an accepted point with Dist(p, q) < minSep" — the same strict
// comparison the brute-force loops used — so accept/reject decisions,
// and therefore the generated configurations for a given random stream,
// are unchanged.
type Placer struct {
	minSep  float64
	cell    float64
	buckets map[[2]int32][]int32
	pts     []geom.Point
}

// NewPlacer creates a placer with the given minimum separation
// (non-positive means no separation constraint).
func NewPlacer(minSep float64) *Placer {
	cell := minSep
	if cell <= 0 {
		cell = 1
	}
	return &Placer{minSep: minSep, cell: cell, buckets: make(map[[2]int32][]int32)}
}

// Len returns the number of accepted points.
func (pl *Placer) Len() int { return len(pl.pts) }

// Points returns the accepted points. The caller may take ownership;
// the Placer must not be used afterwards.
func (pl *Placer) Points() []geom.Point { return pl.pts }

func (pl *Placer) key(p geom.Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / pl.cell)), int32(math.Floor(p.Y / pl.cell))}
}

// TooClose reports whether an accepted point lies strictly closer than
// minSep to p. With cell side = minSep, any such point's cell differs by
// at most one in each axis, so the 3×3 neighbourhood is a guaranteed
// superset of conflicts.
func (pl *Placer) TooClose(p geom.Point) bool {
	if pl.minSep <= 0 {
		return false
	}
	k := pl.key(p)
	for dy := int32(-1); dy <= 1; dy++ {
		for dx := int32(-1); dx <= 1; dx++ {
			for _, j := range pl.buckets[[2]int32{k[0] + dx, k[1] + dy}] {
				if p.Dist(pl.pts[j]) < pl.minSep {
					return true
				}
			}
		}
	}
	return false
}

// Add accepts p into the index.
func (pl *Placer) Add(p geom.Point) {
	k := pl.key(p)
	pl.buckets[k] = append(pl.buckets[k], int32(len(pl.pts)))
	pl.pts = append(pl.pts, p)
}
