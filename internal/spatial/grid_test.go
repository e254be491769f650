package spatial

import (
	"math"
	"math/rand"
	"testing"

	"waggle/internal/geom"
)

// TestRebuildEmptyGrid pins the empty-slice Rebuild fix: a grid shrunk
// to zero points must reset its cell geometry, not leave minX/cellW
// stale so a later cellCoords clamps its column to cols-1 == -1 and
// indexes out of bounds. Every query on the empty grid must come back
// empty, and the grid must be fully usable after growing again.
func TestRebuildEmptyGrid(t *testing.T) {
	pts := []geom.Point{geom.Pt(3, 4), geom.Pt(100, 200), geom.Pt(-50, 7), geom.Pt(12, -9)}
	g := NewGrid(pts)
	g.Rebuild(nil)
	if g.Len() != 0 {
		t.Fatalf("Len after empty Rebuild = %d", g.Len())
	}
	if idx, d := g.NearestTo(geom.Pt(1e6, -1e6), -1); idx != -1 || !math.IsInf(d, 1) {
		t.Fatalf("NearestTo on empty grid = (%d, %v)", idx, d)
	}
	g.VisitNeighborhood(geom.Pt(-1e6, 1e6), 1e9, func(j int, d float64) {
		t.Fatalf("VisitNeighborhood on empty grid visited %d", j)
	})
	// cellCoords itself must be safe for any query point.
	if ix, iy := g.cellCoords(geom.Pt(1e9, 1e9)); ix != 0 || iy != 0 {
		t.Fatalf("cellCoords on empty grid = (%d, %d)", ix, iy)
	}
	// Growing again restores full service.
	g.Rebuild(pts)
	if idx, _ := g.NearestTo(geom.Pt(3.1, 4.1), -1); idx != 0 {
		t.Fatalf("NearestTo after re-grow = %d, want 0", idx)
	}
	// NewGrid on an empty slice takes the same path.
	e := NewGrid(nil)
	if idx, _ := e.NearestTo(geom.Pt(0, 0), -1); idx != -1 {
		t.Fatalf("NearestTo on NewGrid(nil) = %d", idx)
	}
}

func bruteNeighborhoodSet(pts []geom.Point, p geom.Point, r float64) []int {
	var out []int
	for j, q := range pts {
		if p.Dist(q) <= r {
			out = append(out, j)
		}
	}
	return out
}

// cellVisitWindow is the per-cell gather AppendCellWindow replaced: it
// visits the window's cells one at a time through visitCell.
func cellVisitWindow(g *Grid, c int, r float64) []int32 {
	var out []int32
	if g.cols <= 0 || r < 0 {
		return out
	}
	cx, cy := c%g.cols, c/g.cols
	sx, sy := spanCells(r, g.cellW, g.cols), spanCells(r, g.cellH, g.rows)
	for y := max(cy-sy, 0); y <= min(cy+sy, g.rows-1); y++ {
		for x := max(cx-sx, 0); x <= min(cx+sx, g.cols-1); x++ {
			g.visitCell(x, y, func(j int32) { out = append(out, j) })
		}
	}
	return out
}

// TestAppendCellWindowMatchesCellVisits pins the row-run window gather:
// the window holds each point at most once, the same set as the
// per-cell visits, and every point within r of a member of the cell.
func TestAppendCellWindowMatchesCellVisits(t *testing.T) {
	for _, n := range []int{64, 1024} {
		rng := rand.New(rand.NewSource(int64(5 + n)))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		g := NewGrid(pts)
		for c := 0; c < g.CellCount(); c++ {
			var members []int32
			g.VisitCellMembers(c, func(j int32) { members = append(members, j) })
			for _, r := range []float64{0, 3, 40, 260, math.Inf(1)} {
				got := g.AppendCellWindow(nil, c, r)
				in := make(map[int32]bool, len(got))
				for _, j := range got {
					if in[j] {
						t.Fatalf("n=%d cell %d r %v: point %d gathered twice", n, c, r, j)
					}
					in[j] = true
				}
				want := cellVisitWindow(g, c, r)
				if len(want) != len(got) {
					t.Fatalf("n=%d cell %d r %v: %d points, cell visits give %d", n, c, r, len(got), len(want))
				}
				for _, j := range want {
					if !in[j] {
						t.Fatalf("n=%d cell %d r %v: point %d missing", n, c, r, j)
					}
				}
				for _, i := range members {
					for _, j := range bruteNeighborhoodSet(pts, pts[i], r) {
						if !in[int32(j)] {
							t.Fatalf("n=%d cell %d r %v: point %d within r of member %d missing", n, c, r, j, i)
						}
					}
				}
			}
		}
	}
}
