package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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
	rings := 0
	g.VisitRings(geom.Pt(5, 5), func(lb float64) bool { rings++; return true }, func(j int) {
		t.Fatalf("VisitRings on empty grid visited %d", j)
	})
	if rings != 1 {
		t.Fatalf("VisitRings on empty grid called ringFn %d times, want the single +Inf flush", rings)
	}
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

// neighborhoodSet collects the accepted radius-query set through the
// grid, applying the exact caller-side predicate.
func neighborhoodSet(g *Grid, p geom.Point, r float64) []int {
	var out []int
	g.VisitNeighborhood(p, r, func(j int, d float64) {
		if d <= r {
			out = append(out, j)
		}
	})
	sort.Ints(out)
	return out
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

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGridMoveMatchesRebuild is the incremental-grid property test: a
// grid maintained by Move through random walks — local jitter, long
// teleports out of the original bounding box, exact returns, coincident
// pile-ups — must answer every query identically to a grid rebuilt
// from scratch over the same points. Run under -race by `make race`.
func TestGridMoveMatchesRebuild(t *testing.T) {
	for _, n := range []int{0, 1, 2, 64, 4096} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(77 + n)))
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			}
			inc := NewGrid(pts)
			rounds := 30
			if n > 1000 {
				rounds = 10
			}
			for round := 0; round < rounds; round++ {
				// Move a random subset, at most the rebuild threshold.
				moves := rng.Intn(n/4+1) + 1
				if n == 0 {
					moves = 0
				}
				for m := 0; m < moves; m++ {
					i := rng.Intn(n)
					from := pts[i]
					var to geom.Point
					switch rng.Intn(4) {
					case 0: // local jitter, usually within a cell
						to = geom.Pt(from.X+rng.NormFloat64(), from.Y+rng.NormFloat64())
					case 1: // teleport, possibly far outside the indexed box
						to = geom.Pt(rng.Float64()*4000-1500, rng.Float64()*4000-1500)
					case 2: // pile onto another point (coincidence)
						to = pts[rng.Intn(n)]
					default: // move out and exactly back
						mid := geom.Pt(from.X+100, from.Y-100)
						pts[i] = mid
						inc.Move(i, mid)
						to = from
					}
					pts[i] = to
					inc.Move(i, to)
				}
				if f := inc.MovedFraction(); f < 0 || f > 1 {
					t.Fatalf("MovedFraction = %v", f)
				}

				fresh := NewGrid(append([]geom.Point(nil), pts...))
				queries := 40
				if n == 0 {
					queries = 4
				}
				for q := 0; q < queries; q++ {
					p := geom.Pt(rng.Float64()*3000-1000, rng.Float64()*3000-1000)
					if n > 0 && q%2 == 0 {
						p = pts[rng.Intn(n)] // on-point queries hit ties and self-exclusion
					}
					exclude := -1
					if n > 0 && q%3 == 0 {
						exclude = rng.Intn(n)
					}
					gi, gd := inc.NearestTo(p, exclude)
					fi, fd := fresh.NearestTo(p, exclude)
					if gi != fi || gd != fd {
						t.Fatalf("round %d: NearestTo(%v, %d) = (%d, %v) incremental, (%d, %v) rebuilt",
							round, p, exclude, gi, gd, fi, fd)
					}
					r := rng.Float64() * 200
					if got, want := neighborhoodSet(inc, p, r), bruteNeighborhoodSet(pts, p, r); !equalInts(got, want) {
						t.Fatalf("round %d: neighborhood(%v, %v) = %v, want %v", round, p, r, got, want)
					}
				}
				// Periodically collapse the overlay, as the engine's
				// moved-fraction fallback does.
				if round%7 == 6 {
					inc.Rebuild(pts)
					if inc.MovedFraction() != 0 {
						t.Fatal("Rebuild did not reset the incremental overlay")
					}
				}
			}
		})
	}
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
	for y := g.clampRow(cy - sy); y <= g.clampRow(cy+sy); y++ {
		for x := g.clampCol(cx - sx); x <= g.clampCol(cx+sx); x++ {
			g.visitCell(x, y, func(j int32) { out = append(out, j) })
		}
	}
	return out
}

// TestAppendCellWindowMatchesCellVisits pins the row-run window gather:
// on a freshly rebuilt grid (whole CSR row runs) and on one with Moves
// outstanding (moved-out items masked, spill lists appended), the window
// holds each point at most once, the same set as the per-cell visits,
// and every point within r of a member of the cell.
func TestAppendCellWindowMatchesCellVisits(t *testing.T) {
	for _, n := range []int{64, 1024} {
		rng := rand.New(rand.NewSource(int64(5 + n)))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		g := NewGrid(pts)
		for phase := 0; phase < 2; phase++ {
			if phase == 1 {
				for m := 0; m < n/8; m++ {
					i := rng.Intn(n)
					to := geom.Pt(pts[i].X+rng.NormFloat64()*30, pts[i].Y+rng.NormFloat64()*30)
					if m%5 == 0 {
						to = geom.Pt(rng.Float64()*1600-300, rng.Float64()*1600-300)
					}
					pts[i] = to
					g.Move(i, to)
				}
				if g.MovedFraction() == 0 {
					t.Fatal("no point left its bucket")
				}
			}
			for c := 0; c < g.CellCount(); c++ {
				var members []int32
				g.VisitCellMembers(c, func(j int32) { members = append(members, j) })
				for _, r := range []float64{0, 3, 40, 260, math.Inf(1)} {
					got := g.AppendCellWindow(nil, c, r)
					in := make(map[int32]bool, len(got))
					for _, j := range got {
						if in[j] {
							t.Fatalf("n=%d phase %d cell %d r %v: point %d gathered twice", n, phase, c, r, j)
						}
						in[j] = true
					}
					want := cellVisitWindow(g, c, r)
					if len(want) != len(got) {
						t.Fatalf("n=%d phase %d cell %d r %v: %d points, cell visits give %d", n, phase, c, r, len(got), len(want))
					}
					for _, j := range want {
						if !in[j] {
							t.Fatalf("n=%d phase %d cell %d r %v: point %d missing", n, phase, c, r, j)
						}
					}
					for _, i := range members {
						for _, j := range bruteNeighborhoodSet(pts, pts[i], r) {
							if !in[int32(j)] {
								t.Fatalf("n=%d phase %d cell %d r %v: point %d within r of member %d missing", n, phase, c, r, j, i)
							}
						}
					}
				}
			}
		}
	}
}
