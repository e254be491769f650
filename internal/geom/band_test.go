package geom

import (
	"math"
	"math/rand"
	"testing"
)

// checkSensor fails the test unless Band's Within, Beyond and Fast agree
// with the references Dist <= r and Dist > r on (self, p).
func checkSensor(t *testing.T, self, p Point, r float64) {
	t.Helper()
	b := NewBand(r)
	dx, dy := self.X-p.X, self.Y-p.Y
	d := self.Dist(p)
	if got, want := b.Within(dx, dy), d <= r; got != want {
		t.Fatalf("NewBand(%v).Within for %v - %v = %v, Dist <= r is %v (Dist %v)", r, self, p, got, want, d)
	}
	if got, want := b.Beyond(dx, dy), d > r; got != want {
		t.Fatalf("NewBand(%v).Beyond for %v - %v = %v, Dist > r is %v (Dist %v)", r, self, p, got, want, d)
	}
	if within, ok := b.Fast(dx, dy); ok && within != (d <= r) {
		t.Fatalf("NewBand(%v).Fast for %v - %v decided %v, Dist <= r is %v (Dist %v)", r, self, p, within, d <= r, d)
	}
}

// TestSensorMatchesDist shows that Band, the length test shared by the
// sensor discs and the protocol thresholds, accepts exactly what
// p.Dist(q) <= r accepts and rejects exactly what p.Dist(q) > r
// rejects: on random pairs, on pairs a few ulps either side of the
// disc's edge along both axes and the diagonal, at zero distance, far
// outside the disc up to an overflowing squared length, with non-finite
// coordinates, and for radii near and beyond the range where the fast
// comparison applies.
func TestSensorMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	radius := func() float64 { return math.Exp(rng.Float64()*20 - 8) }
	for it := 0; it < 200000; it++ {
		r := radius()
		self := Pt((rng.Float64()-0.5)*1e4, (rng.Float64()-0.5)*1e4)
		p := Pt(self.X+(rng.Float64()-0.5)*3*r, self.Y+(rng.Float64()-0.5)*3*r)
		checkSensor(t, self, p, r)
	}

	// The edge of the disc. From the origin the offsets are exact, so
	// each pair sits a known number of ulps from r; from a displaced
	// observer the subtraction rounds, which both sides share.
	edge := func(r, x, y float64) {
		for _, self := range []Point{{}, Pt(r*0.37, -r*1.9)} {
			checkSensor(t, self, Pt(self.X-x, self.Y-y), r)
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

	// Far outside: offsets up to where dx² overflows to +Inf, and a
	// tiny cross offset that underflows when squared.
	for it := 0; it < 2000; it++ {
		r := radius()
		for _, f := range []float64{2, 1e10, 1e150, 1e300, math.MaxFloat64} {
			checkSensor(t, Point{}, Pt(f, 1e-300), r)
			checkSensor(t, Point{}, Pt(-1e-300, -f), r)
			checkSensor(t, Point{}, Pt(f*r, f*r), r)
		}
	}

	// Non-finite coordinates.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []float64{1, math.Inf(1)} {
			checkSensor(t, Pt(0, 0), Pt(v, 0), r)
			checkSensor(t, Pt(0, 0), Pt(0.5, v), r)
			checkSensor(t, Pt(0, 0), Pt(v, v), r)
			checkSensor(t, Pt(v, 1), Pt(0, 0), r)
		}
	}

	// Radii around the fast range [2^-511, 2^511]: inside it the
	// band has finite bounds, outside every point takes math.Hypot.
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
		b := NewBand(tc.r)
		if fast := !math.IsInf(b.lo, -1) && !math.IsInf(b.hi, 1); fast != tc.fast {
			t.Errorf("r = %v: fast bounds %v, want %v", tc.r, fast, tc.fast)
		}
		r := tc.r
		if math.IsInf(r, 1) || math.IsNaN(r) || r <= 0 {
			r = math.MaxFloat64
		}
		for it := 0; it < 200; it++ {
			a := rng.Float64() * 2 * math.Pi
			d := r * (0.5 + rng.Float64())
			checkSensor(t, Point{}, Pt(d*math.Cos(a), d*math.Sin(a)), tc.r)
			x := r * math.Cos(a)
			y := math.Sqrt(math.Abs(r*r - x*x))
			checkSensor(t, Point{}, Pt(x, y), tc.r)
			checkSensor(t, Point{}, Pt(x, math.Nextafter(y, math.Inf(1))), tc.r)
		}
	}
}
