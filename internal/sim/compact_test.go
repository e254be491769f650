package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"waggle/internal/geom"
)

// slotBehavior reads everything a compact view carries: each point is
// weighted by its slot and its robot's ID, and the step depends on the
// view's size, so a reordered, missing, extra or mistransformed point
// moves the robot.
type slotBehavior struct{ calls int }

func (b *slotBehavior) Step(v View) geom.Point {
	b.calls++
	var cx, cy, wsum float64
	for k, p := range v.Points {
		wt := float64(k+1) + float64(v.IDs[k]%7)
		cx += wt * p.X
		cy += wt * p.Y
		wsum += wt
	}
	a := float64(b.calls)*0.9 + float64(len(v.Points))*0.37
	return geom.Pt(cx/wsum+math.Cos(a), cy/wsum+math.Sin(a))
}

// compactDigestWorld builds 2000 identified robots on a uniform square
// at about 20 robots per sensor disc, with frames of random rotation,
// scale != 1 and both handednesses, and compact views on.
func compactDigestWorld(t *testing.T, mode EngineMode) *World {
	t.Helper()
	const n, vis = 2000, 25.0
	rng := rand.New(rand.NewSource(2024))
	side := math.Sqrt(n) * 10
	positions := make([]geom.Point, n)
	robots := make([]*Robot, n)
	for i := range positions {
		positions[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		hand := geom.RightHanded
		if rng.Intn(2) == 1 {
			hand = geom.LeftHanded
		}
		scale := 0.25 + rng.Float64()*3
		robots[i] = &Robot{
			Frame:     geom.NewFrame(geom.Point{}, rng.Float64()*2*math.Pi, scale, hand),
			Sigma:     0.5,
			VisRadius: vis,
			Behavior:  &slotBehavior{},
		}
	}
	w, err := NewWorld(Config{Positions: positions, Robots: robots, Identified: true, Engine: mode})
	if err != nil {
		t.Fatal(err)
	}
	w.SetCompactViews(true)
	return w
}

// positionDigest is the SHA-256 of every position's float bits.
func positionDigest(w *World) string {
	h := sha256.New()
	var buf [16]byte
	for i := 0; i < w.N(); i++ {
		p := w.Position(i)
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compactDigest is TestCompactDigest's position digest as computed before
// the batched kernel gained row-run gathers, frame bases, the sensor test
// and the key sort. The parity tests compare compact with dense views
// inside one build, so a change that moved both paths the same way would
// pass them; this constant does not move.
const compactDigest = "f8f2bfbf2d15624d2c7f535d86ce1a3f0f8ebb838ccd15065a1f401e4ddae06b"

// TestCompactDigest pins the batched compact path's output bits. The
// Synchronous instants move every robot, so the grid is rebuilt before
// each; the sparse RandomFair instants move a few percent, so the moves
// are spliced into the grid's overlay and the window gathers see moved-
// out items and spill lists. Before each sparse instant one robot is
// teleported far from its bucket, where only its new cell's spill list
// puts it in its neighbours' windows.
func TestCompactDigest(t *testing.T) {
	const k = 6
	for _, mode := range []EngineMode{EngineSequential, EngineParallel} {
		w := compactDigestWorld(t, mode)
		for s := 0; s < k; s++ {
			if _, err := w.Step(Synchronous{}); err != nil {
				t.Fatal(err)
			}
		}
		sched := NewRandomFair(5)
		sched.P = 0.03
		for s := 0; s < k; s++ {
			if err := w.Teleport(s*331, geom.Pt(float64(s+1)*61, float64(k-s)*53)); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Step(sched); err != nil {
				t.Fatal(err)
			}
		}
		if !w.viewIndexActive || w.viewIndex.MovedFraction() == 0 {
			t.Fatalf("%v: the sparse instants did not splice moves into the grid", mode)
		}
		if got := positionDigest(w); got != compactDigest {
			t.Errorf("%v: position digest %s, want %s", mode, got, compactDigest)
		}
	}
}

// checkSensor fails the test unless the sensor test and the reference
// Dist <= r agree on (self, p).
func checkSensor(t *testing.T, self, p geom.Point, r float64) {
	t.Helper()
	s := newSensor(self, r)
	if got, want := s.sees(p), self.Dist(p) <= r; got != want {
		t.Fatalf("sensor(self %v, r %v).sees(%v) = %v, Dist <= r is %v (Dist %v)",
			self, r, p, got, want, self.Dist(p))
	}
}

// TestSensorMatchesDist shows the sensor test accepts exactly what
// p.Dist(q) <= r accepts: on random pairs, on pairs a few ulps either
// side of the disc's edge along both axes and the diagonal, at zero
// distance, with non-finite coordinates, and for radii near and beyond
// the range where the fast comparison applies.
func TestSensorMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	radius := func() float64 { return math.Exp(rng.Float64()*20 - 8) }
	for it := 0; it < 200000; it++ {
		r := radius()
		self := geom.Pt((rng.Float64()-0.5)*1e4, (rng.Float64()-0.5)*1e4)
		p := geom.Pt(self.X+(rng.Float64()-0.5)*3*r, self.Y+(rng.Float64()-0.5)*3*r)
		checkSensor(t, self, p, r)
	}

	// The edge of the disc. From the origin the offsets are exact, so
	// each pair sits a known number of ulps from r; from a displaced
	// observer the subtraction rounds, which both sides share.
	edge := func(r, x, y float64) {
		for _, self := range []geom.Point{{}, geom.Pt(r*0.37, -r*1.9)} {
			checkSensor(t, self, geom.Pt(self.X-x, self.Y-y), r)
		}
	}
	for it := 0; it < 2000; it++ {
		r := radius()
		out, in := r, r
		for k := 0; k < 4; k++ {
			out, in = math.Nextafter(out, math.Inf(1)), math.Nextafter(in, 0)
			for _, v := range []float64{r, out, in} {
				edge(r, v, 0)
				edge(r, 0, v)
				edge(r, -v, 0)
				edge(r, 0, -v)
			}
		}
		// Around the diagonal and at random angles: y stepped through
		// the ulps around the value that puts (x, y) on the circle.
		for _, a := range []float64{math.Pi / 4, rng.Float64() * 2 * math.Pi} {
			x := r * math.Cos(a)
			y := math.Sqrt(r*r - x*x)
			for k := 0; k < 6; k++ {
				y = math.Nextafter(y, 0)
			}
			for k := 0; k < 12; k++ {
				edge(r, x, y)
				edge(r, -y, x)
				y = math.Nextafter(y, math.Inf(1))
			}
		}
		edge(r, 0, 0) // zero distance
	}

	// Non-finite coordinates.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []float64{1, math.Inf(1)} {
			checkSensor(t, geom.Pt(0, 0), geom.Pt(v, 0), r)
			checkSensor(t, geom.Pt(0, 0), geom.Pt(0.5, v), r)
			checkSensor(t, geom.Pt(0, 0), geom.Pt(v, v), r)
			checkSensor(t, geom.Pt(v, 1), geom.Pt(0, 0), r)
		}
	}

	// Radii around the fast range [2^-511, 2^511]: inside it the
	// sensor has finite bounds, outside every point takes math.Hypot.
	for _, tc := range []struct {
		r    float64
		fast bool
	}{
		{0x1p-511, true},
		{math.Nextafter(0x1p-511, 0), false},
		{0x1p511, true},
		{math.Nextafter(0x1p511, math.Inf(1)), false},
		{1e-300, false},
		{1e300, false},
		{math.MaxFloat64, false},
		{math.SmallestNonzeroFloat64, false},
		{math.Inf(1), false},
		{0, false},
		{-1, false},
		{math.NaN(), false},
	} {
		s := newSensor(geom.Point{}, tc.r)
		if fast := !math.IsInf(s.lo, -1) && !math.IsInf(s.hi, 1); fast != tc.fast {
			t.Errorf("r = %v: fast bounds %v, want %v", tc.r, fast, tc.fast)
		}
		r := tc.r
		if math.IsInf(r, 1) || math.IsNaN(r) || r <= 0 {
			r = math.MaxFloat64
		}
		for it := 0; it < 200; it++ {
			a := rng.Float64() * 2 * math.Pi
			d := r * (0.5 + rng.Float64())
			checkSensor(t, geom.Point{}, geom.Pt(d*math.Cos(a), d*math.Sin(a)), tc.r)
			x := r * math.Cos(a)
			y := math.Sqrt(math.Abs(r*r - x*x))
			checkSensor(t, geom.Point{}, geom.Pt(x, y), tc.r)
			checkSensor(t, geom.Point{}, geom.Pt(x, math.Nextafter(y, math.Inf(1))), tc.r)
		}
	}
}
