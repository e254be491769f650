package protocol

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"waggle/internal/geom"
	"waggle/internal/sec"
)

// referenceClassify is the classifier the certified fast path must
// reproduce: the clockwise angle from atan2, normalised into [0, 2π),
// rounded to the nearest half-step π/diameters, and split by integer
// division.
func referenceClassify(ref geom.Vec, diameters int, d geom.Vec) (int, sideOf) {
	u := ref.Unit()
	alpha := geom.NormalizeAngle(u.Angle() - d.Angle())
	halfStep := math.Pi / float64(diameters)
	m := int(math.Round(alpha/halfStep)) % (2 * diameters)
	if m < 0 {
		m += 2 * diameters
	}
	side := sideOf(0)
	if m >= diameters {
		side = 1
	}
	return m % diameters, side
}

// checkClassify fails the test unless classify agrees with the reference
// on d, and reports whether the fast path certified d. It also runs the
// guessed certificate, slicer.sector, with the right sector, both its
// neighbours, a far sector, both ends of the range (so a neighbour
// across the wrap to sector 0), -1, 2D, 2D+1 and extra, each of which
// must give the reference's sector as well.
func checkClassify(t *testing.T, ref geom.Vec, tab *sectorTable, d geom.Vec, extra int) bool {
	t.Helper()
	s := newSlicer(ref)
	k, side := s.classify(d, tab)
	wk, wside := referenceClassify(ref, tab.diameters, d)
	if k != wk || side != wside {
		m, ok := tab.certify(s.ref, d, -1)
		t.Fatalf("diameters %d, ref %v, d (%b, %b): classify (%d, %d), reference (%d, %d); certify (%d, %v)",
			tab.diameters, ref, d.X, d.Y, k, side, wk, wside, m, ok)
	}
	sectors := 2 * tab.diameters
	want := wk + int(wside)*tab.diameters
	for _, guess := range []int{want, (want + 1) % sectors, (want + sectors - 1) % sectors,
		(want + tab.diameters) % sectors, 0, sectors - 1, -1, sectors, sectors + 1, extra} {
		if got := s.sector(d, tab, guess); got != want {
			m, ok := tab.certify(s.ref, d, guess)
			t.Fatalf("diameters %d, ref %v, d (%b, %b), guess %d: sector %d, reference %d; certify (%d, %v)",
				tab.diameters, ref, d.X, d.Y, guess, got, want, m, ok)
		}
	}
	_, ok := tab.certify(s.ref, d, -1)
	return ok
}

// nudge moves x by k ulps, up for k > 0 and down for k < 0.
func nudge(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// TestSlicerClassifyMatchesReference shows the certified classifier
// returns the reference's (diameter, side) for every diameter count from
// 1 to 70 (which covers the bounded variant's k+2), under North and
// random reference directions, on both ends of every diameter at
// magnitudes from 1e-300 to 1e300, on points 1 to 16 ulps and 1e-15 to
// 1e-3 rad either side of every sector boundary (at normal and
// subnormal magnitudes), and on zero,
// subnormal, huge, NaN and ±Inf components. The fast path must certify
// at least 90% of the on-diameter points, so a dead fast path fails too.
func TestSlicerClassifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	magnitudes := []float64{1e-300, 1e-200, 1e-100, 1e-10, 1e-3, 1, 7, 1e3, 1e10, 1e100, 1e200, 1e300}
	var onDiameter, hits int
	for diameters := 1; diameters <= 70; diameters++ {
		tab := newSectorTable(diameters, 0).filled()
		refs := []geom.Vec{geom.V(0, 1)}
		for len(refs) < 4 {
			sin, cos := math.Sincos(rng.Float64() * 2 * math.Pi)
			scale := math.Exp(rng.Float64()*20 - 10)
			refs = append(refs, geom.V(cos*scale, sin*scale))
		}
		for _, ref := range refs {
			s := newSlicer(ref)
			for k := 0; k < diameters; k++ {
				for side := sideOf(0); side <= 1; side++ {
					dir := s.direction(k, side, tab)
					for _, mag := range magnitudes {
						onDiameter++
						if checkClassify(t, ref, tab, dir.Scale(mag), k) {
							hits++
						}
					}
				}
			}
			for j := 0; j < 2*diameters; j++ {
				theta := s.ref.Angle() - (float64(j)+0.5)*math.Pi/float64(diameters)
				// Subnormal magnitudes too: there the rotation into the
				// slicer's frame loses relative precision and the margin
				// underflows, so only the fallback may answer.
				mag := append(magnitudes, 1e-310, 1e-316, 1e-320, 1e-322)[rng.Intn(len(magnitudes)+4)]
				sin, cos := math.Sincos(theta)
				x, y := cos*mag, sin*mag
				checkClassify(t, ref, tab, geom.V(x, y), j)
				for k := 1; k <= 16; k++ {
					for _, sk := range []int{k, -k} {
						checkClassify(t, ref, tab, geom.V(nudge(x, sk), y), j)
						checkClassify(t, ref, tab, geom.V(x, nudge(y, sk)), j+1)
					}
				}
				for eps := 1e-15; eps < 2e-3; eps *= 10 {
					for _, e := range []float64{eps, -eps} {
						sin, cos := math.Sincos(theta + e)
						checkClassify(t, ref, tab, geom.V(cos*mag, sin*mag), j)
					}
				}
			}
		}
	}
	if hits*10 < onDiameter*9 {
		t.Errorf("the fast path certified %d of %d on-diameter points, want at least 90%%", hits, onDiameter)
	}

	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 0x1p-1000, 1e-300, 1, -1,
		1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, diameters := range []int{1, 2, 3, 4, 5, 17, 33, 70} {
		tab := newSectorTable(diameters, 0).filled()
		for _, ref := range []geom.Vec{geom.V(0, 1), geom.V(0.6, -0.8), geom.V(-3e-7, -2)} {
			for _, x := range special {
				for _, y := range special {
					checkClassify(t, ref, tab, geom.V(x, y), math.MaxInt)
				}
			}
		}
	}
}

// TestSectorTablesShared shows each protocol constructor builds one
// sector table of its diameter count and hands it to every robot, and
// that the table's boundaries and Welzl order wait for the first robot
// to use them.
func TestSectorTablesShared(t *testing.T) {
	const n = 6
	check := func(name string, tables []*sectorTable, diameters int) {
		t.Helper()
		for i, tab := range tables {
			if tab != tables[0] {
				t.Errorf("%s: robot %d has its own sector table", name, i)
			}
			if i == 0 && (tab.bounds != nil || tab.welzl != nil) {
				t.Errorf("%s: the table was filled before any robot used it", name)
			}
			if tab.diameters != diameters || len(tab.filled().bounds) != 2*diameters+1 {
				t.Errorf("%s: robot %d's table has %d diameters and %d bounds, want %d and %d",
					name, i, tab.diameters, len(tab.bounds), diameters, 2*diameters+1)
			}
			if !slices.Equal(tab.welzl, sec.Order(n)) {
				t.Errorf("%s: robot %d's Welzl order %v, want sec.Order(%d)", name, i, tab.welzl, n)
			}
		}
	}
	async, _, err := NewAsyncN(n, AsyncNConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bounded, _, err := NewAsyncBounded(n, 3, AsyncNConfig{})
	if err != nil {
		t.Fatal(err)
	}
	syncs, _, err := NewSyncN(n, SyncNConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stab, _, err := NewStabilizingSyncN(n, 100, SyncNConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var at, bt, st, zt []*sectorTable
	for i := 0; i < n; i++ {
		at = append(at, async[i].(*asyncNRobot).sectors)
		bt = append(bt, bounded[i].(*asyncNRobot).sectors)
		st = append(st, syncs[i].(*syncNRobot).sectors)
		build := stab[i].(*Stabilizing).Make
		zt = append(zt, build().(*syncNRobot).sectors, build().(*syncNRobot).sectors)
	}
	check("AsyncN", at, n+1)
	check("AsyncBounded", bt, 3+2)
	check("SyncN", st, n)
	check("StabilizingSyncN", zt, n)
}

// FuzzSlicerClassify compares the certified classifier with the
// reference on arbitrary reference directions, displacements and
// diameter counts from 1 to 256, and the guessed certificate under the
// fuzzed guess next to checkClassify's fixed ones.
func FuzzSlicerClassify(f *testing.F) {
	f.Add(0.0, 1.0, 1.0, 0.0, uint8(32), 0)
	f.Add(0.6, -0.8, -3.0, 4.0, uint8(0), 1)
	f.Add(1e-300, 1.0, 1e300, -1e-300, uint8(69), 139)
	f.Add(0.0, 1.0, math.Sin(math.Pi/66), math.Cos(math.Pi/66), uint8(32), 65)
	f.Add(1.0, 0.0, math.NaN(), 1.0, uint8(4), -1)
	f.Add(0.0, 0.0, 1.0, 1.0, uint8(7), 16)
	f.Add(0.0, 1.0, -1.0, -1e-3, uint8(2), 5)
	f.Fuzz(func(t *testing.T, refX, refY, dX, dY float64, d uint8, guess int) {
		checkClassify(t, geom.V(refX, refY), newSectorTable(int(d)+1, 0).filled(), geom.V(dX, dY), guess)
	})
}
