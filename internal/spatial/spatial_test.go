package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"waggle/internal/geom"
)

// Configurations the property tests sweep: uniform random, tightly
// clustered (grid degenerates towards one bucket), collinear with exact
// ties, plus coincident and singleton edge cases.
func testConfigurations(rng *rand.Rand, n int) map[string][]geom.Point {
	random := make([]geom.Point, n)
	for i := range random {
		random[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	clustered := make([]geom.Point, 0, n)
	for len(clustered) < n {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		for k := 0; k < 8 && len(clustered) < n; k++ {
			clustered = append(clustered, geom.Pt(cx+rng.NormFloat64(), cy+rng.NormFloat64()))
		}
	}
	collinear := make([]geom.Point, n)
	for i := range collinear {
		// Equally spaced on a line: every interior point has an exact
		// two-sided distance tie, exercising the lowest-index rule.
		collinear[i] = geom.Pt(float64(i)*3, float64(i)*4)
	}
	coincident := make([]geom.Point, n)
	for i := range coincident {
		coincident[i] = geom.Pt(float64(i/2)*10, 5) // every point duplicated
	}
	return map[string][]geom.Point{
		"random":     random,
		"clustered":  clustered,
		"collinear":  collinear,
		"coincident": coincident,
	}
}

func bruteNearest(pts []geom.Point, p geom.Point, exclude int) (int, float64) {
	best, bestIdx := math.Inf(1), -1
	for j, q := range pts {
		if j == exclude {
			continue
		}
		if d := p.Dist(q); d < best {
			best, bestIdx = d, j
		}
	}
	return bestIdx, best
}

func TestNearestMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 17, 64, 257} {
		for name, pts := range testConfigurations(rng, n) {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				g := NewGrid(pts)
				for i := range pts {
					gotIdx, gotD := g.NearestTo(pts[i], i)
					wantIdx, wantD := bruteNearest(pts, pts[i], i)
					if gotIdx != wantIdx || gotD != wantD {
						t.Fatalf("NearestTo(%d) = (%d, %v), brute (%d, %v)", i, gotIdx, gotD, wantIdx, wantD)
					}
				}
				// Off-site query points, inside and far outside the bbox.
				for s := 0; s < 40; s++ {
					p := geom.Pt(rng.Float64()*3000-1000, rng.Float64()*3000-1000)
					gotIdx, gotD := g.NearestTo(p, -1)
					wantIdx, wantD := bruteNearest(pts, p, -1)
					if gotIdx != wantIdx || gotD != wantD {
						t.Fatalf("NearestTo(%v) = (%d, %v), brute (%d, %v)", p, gotIdx, gotD, wantIdx, wantD)
					}
				}
			})
		}
	}
}

func TestNearestSinglePoint(t *testing.T) {
	g := NewGrid([]geom.Point{geom.Pt(4, 4)})
	if idx, d := g.NearestTo(geom.Pt(4, 4), 0); idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("single excluded point: (%d, %v), want (-1, +Inf)", idx, d)
	}
	if idx, d := g.NearestTo(geom.Pt(0, 0), -1); idx != 0 || d != geom.Pt(0, 0).Dist(geom.Pt(4, 4)) {
		t.Errorf("single point query: (%d, %v)", idx, d)
	}
	empty := NewGrid(nil)
	if idx, _ := empty.NearestTo(geom.Pt(0, 0), -1); idx != -1 {
		t.Errorf("empty grid returned %d", idx)
	}
}

func TestVisitNeighborhoodCoversRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{3, 50, 200} {
		for name, pts := range testConfigurations(rng, n) {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				g := NewGrid(pts)
				for s := 0; s < 25; s++ {
					p := geom.Pt(rng.Float64()*1200-100, rng.Float64()*1200-100)
					// An infinite or maximal radius covers every point: its
					// cell window must saturate at the grid's edges.
					for _, r := range []float64{rng.Float64() * 500, math.Inf(1), math.MaxFloat64} {
						got := map[int]bool{}
						g.VisitNeighborhood(p, r, func(j int, d float64) {
							if d != p.Dist(pts[j]) {
								t.Fatalf("reported distance %v != exact %v", d, p.Dist(pts[j]))
							}
							if d <= r {
								got[j] = true
							}
						})
						for j, q := range pts {
							if (p.Dist(q) <= r) != got[j] {
								t.Fatalf("point %d (dist %v, radius %v): in-set mismatch", j, p.Dist(q), r)
							}
						}
					}
				}
			})
		}
	}
}

// TestVisitRingsEnumeratesAllWithValidBounds pins the ring walk behind
// NearestTo: rings 0..maxRing around a point's cell visit every indexed
// point exactly once, and no point of ring r lies closer than the
// ringLowerBound the search prunes ring r by.
func TestVisitRingsEnumeratesAllWithValidBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, pts := range testConfigurations(rng, 120) {
		t.Run(name, func(t *testing.T) {
			g := NewGrid(pts)
			p := pts[rng.Intn(len(pts))]
			ix, iy := g.cellCoords(p)
			seen := map[int]int{}
			for r := 0; r <= g.maxRing(ix, iy); r++ {
				bound := g.ringLowerBound(p, ix, iy, r)
				g.visitRing(ix, iy, r, func(j int32) {
					seen[int(j)]++
					if d := p.Dist(pts[j]); d < bound-safetyMargin(bound) {
						t.Fatalf("point %d at distance %v violates ring %d bound %v", j, d, r, bound)
					}
				})
			}
			if len(seen) != len(pts) {
				t.Fatalf("enumerated %d of %d points", len(seen), len(pts))
			}
			for j, c := range seen {
				if c != 1 {
					t.Fatalf("point %d visited %d times", j, c)
				}
			}
		})
	}
}

func TestNearestRadiiMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 5, bruteCutoff, 100, 512} {
		for name, pts := range testConfigurations(rng, n) {
			got := NearestRadii(pts)
			want := make([]float64, len(pts))
			nearestRadiiBruteInto(want, pts)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/n=%d: radius %d = %v, brute %v", name, n, i, got[i], want[i])
				}
			}
		}
	}
	single := NearestRadii([]geom.Point{geom.Pt(1, 1)})
	if !math.IsInf(single[0], 1) {
		t.Errorf("singleton radius = %v, want +Inf", single[0])
	}
}

func TestRebuildReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]geom.Point, 256)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	g := NewGrid(pts)
	for step := 0; step < 5; step++ {
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		g.Rebuild(pts)
		for _, i := range []int{0, 100, 255} {
			gotIdx, gotD := g.NearestTo(pts[i], i)
			wantIdx, wantD := bruteNearest(pts, pts[i], i)
			if gotIdx != wantIdx || gotD != wantD {
				t.Fatalf("step %d: NearestTo(%d) = (%d, %v), brute (%d, %v)", step, i, gotIdx, gotD, wantIdx, wantD)
			}
		}
	}
}

// TestPlacerMatchesBruteRejection replays the same random stream through
// the grid-backed placer and the original all-pairs rejection loop: the
// accept/reject decisions, and hence the configurations, must coincide.
func TestPlacerMatchesBruteRejection(t *testing.T) {
	for _, minSep := range []float64{0, 4, 8} {
		rngA := rand.New(rand.NewSource(21))
		rngB := rand.New(rand.NewSource(21))
		pl := NewPlacer(minSep)
		var brute []geom.Point
		for pl.Len() < 300 {
			pa := geom.Pt(rngA.Float64()*600, rngA.Float64()*600)
			pb := geom.Pt(rngB.Float64()*600, rngB.Float64()*600)
			if pa != pb {
				t.Fatal("random streams diverged")
			}
			ok := true
			for _, q := range brute {
				if pb.Dist(q) < minSep {
					ok = false
					break
				}
			}
			if ok != !pl.TooClose(pa) {
				t.Fatalf("minSep %v: placer and brute disagree at point %v", minSep, pa)
			}
			if ok {
				brute = append(brute, pb)
				pl.Add(pa)
			}
			if len(brute) >= 300 {
				break
			}
		}
		got := pl.Points()
		sort.Slice(got, func(i, j int) bool { return got[i].X < got[j].X })
		sort.Slice(brute, func(i, j int) bool { return brute[i].X < brute[j].X })
		for i := range brute {
			if got[i] != brute[i] {
				t.Fatalf("minSep %v: configurations differ at %d", minSep, i)
			}
		}
	}
}

func benchSites(n int) []geom.Point {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*float64(n)*12, rng.Float64()*float64(n)*12)
	}
	return pts
}

func BenchmarkNearestRadii(b *testing.B) {
	for _, n := range []int{128, 512, 2048} {
		pts := benchSites(n)
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NearestRadii(pts)
			}
		})
		b.Run(fmt.Sprintf("brute/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nearestRadiiBruteInto(make([]float64, len(pts)), pts)
			}
		})
	}
}

// BenchmarkPlacement draws a 512-point configuration with minimum
// separation 8 on a 12n square (seed 14) by rejection sampling, the
// loop figures.RandomConfiguration runs, with conflict checks through
// the grid-backed Placer (grid) or the all-pairs scan it replaced
// (brute); both accept and reject the same draws.
func BenchmarkPlacement(b *testing.B) {
	const n, minSep = 512, 8.0
	side := float64(n) * 12
	b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(14))
			pl := NewPlacer(minSep)
			for pl.Len() < n {
				p := geom.Pt(rng.Float64()*side, rng.Float64()*side)
				if !pl.TooClose(p) {
					pl.Add(p)
				}
			}
			pl.Points()
		}
	})
	b.Run(fmt.Sprintf("brute/n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(14))
			pts := make([]geom.Point, 0, n)
			for len(pts) < n {
				p := geom.Pt(rng.Float64()*side, rng.Float64()*side)
				ok := true
				for _, q := range pts {
					if p.Dist(q) < minSep {
						ok = false
						break
					}
				}
				if ok {
					pts = append(pts, p)
				}
			}
		}
	})
}

func BenchmarkRebuild(b *testing.B) {
	for _, n := range []int{512, 2048} {
		pts := benchSites(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := NewGrid(pts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Rebuild(pts)
			}
		})
	}
}
