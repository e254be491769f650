package naming

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"waggle/internal/geom"
	"waggle/internal/spatial"
)

// checkSECNaming compares NewSECNaming with SECLabels on pts, for every
// observer and every robot, and reports whether the certificate held.
func checkSECNaming(t *testing.T, name string, pts []geom.Point) bool {
	t.Helper()
	c := secOf(t, pts)
	s, ok := NewSECNaming(pts, c)
	if !ok {
		return false
	}
	for obs := range pts {
		want, err := SECLabels(pts, obs, c)
		if errors.Is(err, ErrObserverAtCenter) {
			if s.Defined(obs) {
				t.Fatalf("%s: observer %d at the centre is Defined", name, obs)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !s.Defined(obs) {
			t.Fatalf("%s: observer %d not Defined", name, obs)
		}
		for h, l := range want {
			if got := s.Label(obs, h); got != l {
				t.Fatalf("%s: observer %d labels robot %d %d, SECLabels %d", name, obs, h, got, l)
			}
			if got := s.Home(obs, l); got != h {
				t.Fatalf("%s: observer %d: Home(%d) = %d, want %d", name, obs, l, got, h)
			}
		}
	}
	return true
}

// randomPlacement is figures.RandomConfiguration (which this package
// cannot import): n robots uniform on a side×side square, rejection
// sampled to a minimum separation.
func randomPlacement(rng *rand.Rand, n int, side, minSep float64) []geom.Point {
	pl := spatial.NewPlacer(minSep)
	for pl.Len() < n {
		p := geom.Pt(rng.Float64()*side, rng.Float64()*side)
		if !pl.TooClose(p) {
			pl.Add(p)
		}
	}
	return pl.Points()
}

// secPinned is four robots that fix the SEC to the circle of radius 100
// about the origin (the first two as a diameter, so the centre is
// exactly 0), followed by extra.
func secPinned(extra ...geom.Point) []geom.Point {
	return append([]geom.Point{geom.Pt(-100, 0), geom.Pt(100, 0), geom.Pt(0, 100), geom.Pt(0, -100)}, extra...)
}

func polarPt(r, a float64) geom.Point { return geom.Pt(r*math.Cos(a), r*math.Sin(a)) }

// rayPoints appends rays from the origin: each of 1–6 robots at
// increasing distances, consecutive ones rotated by step(rng) radians.
func rayPoints(rng *rand.Rand, pts []geom.Point, base float64, step func(*rand.Rand) float64) []geom.Point {
	k := 1 + rng.Intn(6)
	a := base
	for j := 0; j < k; j++ {
		pts = append(pts, polarPt(10+80*(float64(j)+rng.Float64())/float64(k), a))
		a += step(rng)
	}
	return pts
}

// nearEps draws a step of 0.1–10 × angleEps, a third of the time one
// of the certificate's bounds or angleEps itself.
func nearEps(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return []float64{0.25, 1, 4}[rng.Intn(3)] * angleEps
	}
	return math.Pow(10, 2*rng.Float64()-1) * angleEps
}

// TestSECNamingMatchesSECLabels compares the one-sort naming with the
// per-observer sort it replaces, for every observer and robot: on
// random placements, integer lattices with exact collinear ties, rays
// whose angles step by fractions and multiples of angleEps (some across
// the ±π seam), and with a robot at or within geom.Eps of the centre.
// The fast path must certify at least 99% of the random placements and
// every chat-async placement, so a dead fast path fails.
func TestSECNamingMatchesSECLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	random, certified := 0, 0
	for n := 2; n <= 200; n++ {
		random++
		if checkSECNaming(t, "random", randomPlacement(rng, n, 12*float64(n), 8)) {
			certified++
		}
	}
	random++
	if checkSECNaming(t, "random n=2000", randomPlacement(rng, 2000, 24000, 8)) {
		certified++
	}
	if certified < random*99/100 {
		t.Errorf("certified %d of %d random placements, want at least 99%%", certified, random)
	}
	// One robot: its own SEC centre, with no horizon and no naming.
	if !checkSECNaming(t, "one robot", []geom.Point{geom.Pt(2, 3)}) {
		t.Error("one robot not certified")
	}

	// The chat-async workload's placements: 4 per seed, 32 robots on a
	// 384 square at separation 8.
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 4; k++ {
			if !checkSECNaming(t, "chat-async", randomPlacement(rng, 32, 384, 8)) {
				t.Errorf("chat-async placement %d of seed %d not certified", k, seed)
			}
		}
	}

	lattices, ties := 0, 0
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.Intn(6)
		pts := []geom.Point{geom.Pt(float64(-k), float64(-k)), geom.Pt(float64(k), float64(k))}
		seen := map[geom.Point]bool{pts[0]: true, pts[1]: true}
		for want := 3 + rng.Intn((2*k+1)*(2*k+1)-2); len(pts) < want; {
			p := geom.Pt(float64(rng.Intn(2*k+1)-k), float64(rng.Intn(2*k+1)-k))
			if !seen[p] {
				seen[p] = true
				pts = append(pts, p)
			}
		}
		if checkSECNaming(t, "lattice", pts) {
			lattices++
		}
		ties += exactAngleTies(t, pts)
	}
	if lattices < 300 || ties == 0 {
		t.Errorf("certified %d of 300 lattices with %d exact angle ties; want all, and some ties", lattices, ties)
	}

	rays := 0
	for trial := 0; trial < 600; trial++ {
		pts := secPinned()
		for r := 1 + rng.Intn(4); r > 0; r-- {
			base := rng.Float64()*2*math.Pi - math.Pi
			if rng.Intn(3) == 0 {
				// Across the seam: start up to a few steps before +π.
				base = math.Pi - float64(rng.Intn(4))*angleEps*rng.Float64()
			}
			pts = rayPoints(rng, pts, base, nearEps)
		}
		switch rng.Intn(4) {
		case 0:
			pts = append(pts, geom.Pt(0, 0))
		case 1:
			pts = append(pts, geom.Pt(3e-10, -4e-10))
		}
		if checkSECNaming(t, "rays", pts) {
			rays++
		}
	}
	// Rays certify when every step is a tie or a separation (random
	// steps are, some of the time); the rest take the fallback.
	if rays < 30 {
		t.Errorf("certified %d of 600 ray configurations, want at least 30", rays)
	}
	t.Logf("certified: %d of %d random placements, %d of 300 lattices (%d exact angle ties), %d of 600 near-tie rays",
		certified, random, lattices, ties, rays)

	// Rays on clearly tied or clearly separated steps always certify,
	// with and without a centre robot, across the seam too.
	clear := func(rng *rand.Rand) float64 {
		return []float64{0, 0.01, 5, 20, 1e3}[rng.Intn(5)] * angleEps
	}
	for trial := 0; trial < 300; trial++ {
		pts := secPinned()
		for r := 1 + rng.Intn(4); r > 0; r-- {
			base := rng.Float64()*2*math.Pi - math.Pi
			if r == 1 {
				base = math.Pi - 3e-11
			}
			pts = rayPoints(rng, pts, base, clear)
		}
		switch trial % 3 {
		case 0:
			pts = append(pts, geom.Pt(0, 0))
		case 1:
			pts = append(pts, geom.Pt(-6e-10, 7e-10))
		}
		if !checkSECNaming(t, "clear rays", pts) {
			t.Fatalf("clear rays %v not certified", pts)
		}
	}
}

// exactAngleTies counts the pairs of robots whose angles about the SEC
// centre are exactly equal.
func exactAngleTies(t *testing.T, pts []geom.Point) int {
	c := secOf(t, pts)
	seen := map[float64]int{}
	ties := 0
	for _, p := range pts {
		v := p.Sub(c.Center)
		if v.IsZero() {
			continue
		}
		a := v.Angle()
		ties += seen[a]
		seen[a]++
	}
	return ties
}

// TestSECNamingRefuses checks the certificate's other conditions: two
// robots within geom.Eps of the centre, and NaN or ±Inf coordinates,
// are refused, and so is any gap strictly between the bounds.
func TestSECNamingRefuses(t *testing.T) {
	inf := math.Inf(1)
	for name, pts := range map[string][]geom.Point{
		"two at the centre": secPinned(geom.Pt(0, 0), geom.Pt(5e-10, 0)),
		"NaN":               secPinned(geom.Pt(math.NaN(), 3)),
		"+Inf":              secPinned(geom.Pt(inf, 3)),
		"-Inf":              secPinned(geom.Pt(3, -inf)),
		"gap of angleEps":   secPinned(polarPt(40, 1), polarPt(60, 1+angleEps)),
		"gap of 2·angleEps": secPinned(polarPt(40, 1), polarPt(60, 1+2*angleEps)),
		"gap of angleEps/2": secPinned(polarPt(40, 1), polarPt(60, 1+angleEps/2)),
		"seam gap": {geom.Pt(0, 100), geom.Pt(0, -100), geom.Pt(100, 0),
			polarPt(40, math.Pi-angleEps/4), polarPt(60, -math.Pi+angleEps/4)},
		"span": secPinned(polarPt(30, 1), polarPt(50, 1+0.2*angleEps), polarPt(70, 1+0.4*angleEps)),
	} {
		if _, ok := NewSECNaming(pts, geom.Circle{Center: geom.Pt(0, 0), R: 100}); ok {
			t.Errorf("%s: certified", name)
		}
	}
}

// FuzzSECNaming builds small point sets from the fuzz bytes, three per
// robot: integer lattice coordinates (exact collinear ties) and a
// rotation about the origin by a multiple of angleEps/8 (near-ties on
// either side of every bound), and checks that a certified naming is
// SECLabels'.
func FuzzSECNaming(f *testing.F) {
	f.Add([]byte{10, 0, 0, 20, 0, 0, 0, 10, 0, 0, 246, 0, 246, 0, 0})
	f.Add([]byte{3, 4, 0, 6, 8, 2, 9, 12, 4, 0, 0, 0, 128, 128, 0, 127, 127, 0})
	f.Add([]byte{255, 1, 0, 255, 1, 8, 1, 255, 0, 1, 1, 32, 2, 2, 32})
	// A diameter fixing the centre at the origin, a robot there, an
	// outer robot before an inner one on one radius, and a radius
	// across the ±π seam.
	f.Add([]byte{246, 0, 0, 10, 0, 0, 0, 0, 0, 6, 0, 0, 3, 0, 0, 251, 0, 0, 249, 0, 1, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pts []geom.Point
		for ; len(data) >= 3 && len(pts) < 64; data = data[3:] {
			p := polarPt(1, float64(int8(data[2]))*angleEps/8)
			x, y := float64(int8(data[0])), float64(int8(data[1]))
			pts = append(pts, geom.Pt(x*p.X-y*p.Y, x*p.Y+y*p.X))
		}
		if len(pts) == 0 {
			return
		}
		checkSECNaming(t, "fuzz", pts)
	})
}
