package protocol

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"waggle/internal/geom"
	"waggle/internal/naming"
	"waggle/internal/sec"
	"waggle/internal/sim"
)

func uniformPoints(rng *rand.Rand, n int, side float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	return pts
}

// TestSwarmGeometrySECNaming shows a robot's SEC geometry naming every
// sender as SECLabels does: through naming.SECNaming when its
// certificate holds, through per-sender tables when angles about the
// centre differ by about angleEps, and with a robot at the centre that
// no one can decode.
func TestSwarmGeometrySECNaming(t *testing.T) {
	polar := func(r, a float64) geom.Point { return geom.Pt(r*math.Cos(a), r*math.Sin(a)) }
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		name    string
		pts     []geom.Point
		oneSort bool
	}{
		{"random", uniformPoints(rng, 40, 480), true},
		// (-50, 50) and (150, 50) fix the SEC about (50, 50).
		{"centre", append(uniformPoints(rng, 12, 100), geom.Pt(-50, 50), geom.Pt(150, 50), geom.Pt(50, 50)), true},
		{"near-ties", []geom.Point{geom.Pt(0, 100), geom.Pt(0, -100), geom.Pt(100, 0), geom.Pt(-100, 0),
			polar(40, 0.7), polar(70, 0.7+0.5e-9), polar(30, 2.5), polar(65, 2.5+2e-9)}, false},
	} {
		circle, err := sec.Enclosing(c.pts)
		if err != nil {
			t.Fatal(err)
		}
		center := -1
		for i, p := range c.pts {
			if p.Sub(circle.Center).IsZero() {
				center = i
			}
		}
		if c.name == "centre" && center < 0 {
			t.Fatal("centre: no robot at the SEC centre")
		}
		for self := range c.pts {
			g := buildSwarmGeometry(sim.View{Self: self, Points: c.pts}, NamingSEC, true,
				newSectorTable(len(c.pts)+1, len(c.pts)), nil)
			if self == center {
				if g.err != ErrNoHorizon {
					t.Fatalf("%s: robot at the centre: err %v", c.name, g.err)
				}
			} else if g.err != nil {
				t.Fatal(g.err)
			}
			if _, oneSort := g.names.(*naming.SECNaming); oneSort != c.oneSort {
				t.Fatalf("%s: robot %d names through %T", c.name, self, g.names)
			}
			for j := range c.pts {
				want, err := naming.SECLabels(c.pts, j, circle)
				if j == center {
					if err == nil || g.canDecode(j) {
						t.Fatalf("%s: robot %d decodes the centre robot", c.name, self)
					}
					continue
				}
				if !g.canDecode(j) {
					t.Fatalf("%s: robot %d cannot decode %d", c.name, self, j)
				}
				for h, l := range want {
					if g.names.Label(j, h) != l || g.names.Home(j, l) != h {
						t.Fatalf("%s: robot %d: sender %d labels %d as %d, SECLabels %d",
							c.name, self, j, h, g.names.Label(j, h), l)
					}
				}
			}
		}
	}
}

// TestSwarmGeometryAllocation guards the SEC naming's O(n) state: one
// robot's SEC geometry at n = 4096 allocates under 512 bytes per robot
// (the per-sender tables it replaced allocated about 164 KB per robot).
// The swarm's shared sector table is filled first: only the first robot
// pays for it.
func TestSwarmGeometryAllocation(t *testing.T) {
	const n = 4096
	pts := uniformPoints(rand.New(rand.NewSource(7)), n, 12*n)
	sectors := newSectorTable(n+1, n).filled()
	view := sim.View{Self: n / 3, Points: pts}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := buildSwarmGeometry(view, NamingSEC, true, sectors, nil)
	runtime.ReadMemStats(&after)
	if g.err != nil {
		t.Fatal(g.err)
	}
	if _, ok := g.names.(*naming.SECNaming); !ok {
		t.Fatalf("names through %T, want the one-sort naming", g.names)
	}
	perRobot := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f B per robot", perRobot)
	if perRobot >= 512 {
		t.Errorf("one robot's SEC geometry allocated %.0f B per robot, want under 512", perRobot)
	}
	runtime.KeepAlive(g)
}
