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
				newSectorTable(len(c.pts)+1, len(c.pts)))
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
	g := buildSwarmGeometry(view, NamingSEC, true, sectors)
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

// TestAsyncNDecoderAllocation bounds what one AsyncN robot's first
// activation allocates per observed robot at n = 1024 to 168 bytes, and
// what it holds afterwards to 96: its swarm geometry (initial position,
// slicer, granular radius and SEC naming, 64 bytes) and its 24-byte
// decoder record, the swarm's shared sector table filled beforehand.
// (With three observation slices and every sender's sink built at once,
// the first activation allocated 299 bytes per observed robot; with a
// granular-radii cache beside the geometry and 32-byte slicers it
// allocated 185 and held 137.) Sinks wait for excursions: after the
// first activation, which sees every robot at home, the robot holds
// none, and one sender's excursion builds that sender's sink alone.
func TestAsyncNDecoderAllocation(t *testing.T) {
	const n, decoderBytes, liveBytes = 1024, 168, 96
	pts := uniformPoints(rand.New(rand.NewSource(7)), n, 12*n)
	behaviors, _, err := NewAsyncN(n, AsyncNConfig{})
	if err != nil {
		t.Fatal(err)
	}
	self := n / 3
	r := behaviors[self].(*asyncNRobot)
	r.sectors.filled()
	egocentric := func(shift geom.Vec) []geom.Point {
		view := make([]geom.Point, n)
		for i, p := range pts {
			view[i] = geom.Pt(p.X-pts[self].X-shift.X, p.Y-pts[self].Y-shift.Y)
		}
		return view
	}
	first := sim.View{Self: self, Points: egocentric(geom.Vec{})}
	var before, after, live runtime.MemStats
	// One collection can leave the setup's garbage counted in HeapAlloc,
	// and freeing it later would hide that much of what the robot holds.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.Step(first)
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	allocated := float64(after.TotalAlloc-before.TotalAlloc) / (n - 1)
	retained := (float64(live.HeapAlloc) - float64(before.HeapAlloc)) / (n - 1)
	t.Logf("first activation: %.0f B allocated, %.0f B live per observed robot", allocated, retained)
	if allocated >= decoderBytes {
		t.Errorf("the first activation allocated %.0f B per observed robot, want under %d", allocated, decoderBytes)
	}
	if retained >= liveBytes {
		t.Errorf("after its first activation the robot holds %.0f B per observed robot, want under %d", retained, liveBytes)
	}
	if r.sinks != nil {
		t.Fatalf("a robot that has seen no excursion holds sinks for %d robots", len(r.sinks))
	}

	// Sender j excurses half its granular radius along a recipient's
	// diameter; the observer has moved since, so its view shifts back.
	const j = 5
	view := egocentric(r.rk.offset)
	dir := r.geo.slicers[j].direction(r.geo.recipientDiameter(2), 1, r.geo.sectors)
	view[j] = view[j].Add(dir.Scale(r.geo.radii[j] / 2))
	r.Step(sim.View{Self: self, Points: view})
	for i, s := range r.sinks {
		if (s != nil) != (i == j) {
			t.Errorf("after sender %d's excursion, robot %d has sink %v", j, i, s)
		}
	}
	runtime.KeepAlive(first)
}
