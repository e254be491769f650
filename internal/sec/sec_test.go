package sec

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"waggle/internal/geom"
)

func TestEnclosingErrors(t *testing.T) {
	if _, err := Enclosing(nil); !errors.Is(err, ErrNoPoints) {
		t.Errorf("err = %v, want ErrNoPoints", err)
	}
}

func TestEnclosingDegenerate(t *testing.T) {
	c, err := Enclosing([]geom.Point{geom.Pt(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Center.Eq(geom.Pt(3, 4)) || c.R > geom.Eps {
		t.Errorf("single point SEC = %+v, want zero circle at point", c)
	}

	c, err = Enclosing([]geom.Point{geom.Pt(0, 0), geom.Pt(4, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Center.Eq(geom.Pt(2, 0)) || !geom.ApproxEq(c.R, 2) {
		t.Errorf("two point SEC = %+v, want center (2,0) r=2", c)
	}
}

func TestEnclosingKnownSets(t *testing.T) {
	tests := []struct {
		name       string
		pts        []geom.Point
		wantCenter geom.Point
		wantR      float64
	}{
		{
			name:       "equilateral-ish triangle on unit circle",
			pts:        []geom.Point{geom.Pt(1, 0), geom.Pt(-0.5, math.Sqrt(3)/2), geom.Pt(-0.5, -math.Sqrt(3)/2)},
			wantCenter: geom.Pt(0, 0),
			wantR:      1,
		},
		{
			name:       "obtuse triangle (diameter pair dominates)",
			pts:        []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 1)},
			wantCenter: geom.Pt(5, 0),
			wantR:      5,
		},
		{
			name: "square with interior points",
			pts: []geom.Point{
				geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2),
				geom.Pt(1, 1), geom.Pt(0.5, 1.5),
			},
			wantCenter: geom.Pt(1, 1),
			wantR:      math.Sqrt2,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := Enclosing(tt.pts)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Center.Eq(tt.wantCenter) {
				t.Errorf("center = %v, want %v", c.Center, tt.wantCenter)
			}
			if !geom.ApproxEq(c.R, tt.wantR) {
				t.Errorf("R = %v, want %v", c.R, tt.wantR)
			}
		})
	}
}

func TestEnclosingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 40)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	a, err := Enclosing(pts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enclosing(pts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("SEC not deterministic: %+v vs %+v", a, b)
	}
	// Input order must not matter either (uniqueness of the SEC).
	rev := make([]geom.Point, len(pts))
	for i, p := range pts {
		rev[len(pts)-1-i] = p
	}
	c, err := Enclosing(rev)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Center.Eq(a.Center) || !geom.ApproxEq(c.R, a.R) {
		t.Errorf("SEC depends on input order: %+v vs %+v", a, c)
	}
}

// Property: the SEC contains every input point, and it is minimal in the
// sense that (a) at least two input points lie on its boundary (for
// n >= 2 non-coincident points) and (b) shrinking the radius by 0.1%
// excludes some point.
// TestEnclosingInOrderMatchesShuffle shows that visiting points in
// Order(n) computes the circle the per-call fixed-seed shuffle computed,
// bit for bit, with the input left untouched.
func TestEnclosingInOrderMatchesShuffle(t *testing.T) {
	shuffled := func(points []geom.Point) geom.Circle {
		pts := append([]geom.Point(nil), points...)
		rng := rand.New(rand.NewSource(0x5EC))
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		c := geom.Circle{Center: pts[0], R: 0}
		for i := 1; i < len(pts); i++ {
			if !c.Contains(pts[i]) {
				c = circleWithOneBoundary(pts[:i], pts[i])
			}
		}
		return c
	}
	rng := rand.New(rand.NewSource(9))
	for n := 1; n <= 300; n++ {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.NormFloat64()*50, rng.NormFloat64()*50)
		}
		before := append([]geom.Point(nil), pts...)
		order := Order(n)
		got, err := EnclosingInOrder(pts, order)
		if err != nil {
			t.Fatal(err)
		}
		if want := shuffled(pts); got != want {
			t.Fatalf("n=%d: %+v, the shuffle gives %+v", n, got, want)
		}
		if viaEnclosing, _ := Enclosing(pts); viaEnclosing != got {
			t.Fatalf("n=%d: Enclosing %+v, EnclosingInOrder %+v", n, viaEnclosing, got)
		}
		for i := range pts {
			if pts[i] != before[i] {
				t.Fatalf("n=%d: input point %d moved", n, i)
			}
		}
	}
}

func TestEnclosingPropertyContainsAndMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(60)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*1000-500, rng.Float64()*1000-500)
		}
		c, err := Enclosing(pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if !c.Contains(p) {
				t.Fatalf("trial %d: point %v outside SEC %+v", trial, p, c)
			}
		}
		support := Support(pts, c)
		if len(support) < 2 {
			t.Fatalf("trial %d: SEC has %d support points, want >= 2", trial, len(support))
		}
		shrunk := geom.Circle{Center: c.Center, R: c.R * 0.999}
		excluded := false
		for _, p := range pts {
			if !shrunk.Contains(p) {
				excluded = true
				break
			}
		}
		if !excluded {
			t.Fatalf("trial %d: SEC radius %v not minimal", trial, c.R)
		}
	}
}

// Property: SEC is invariant under rigid motion — translating and
// rotating the input translates/rotates the circle.
func TestEnclosingPropertyRigidMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(20)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		theta := rng.Float64() * 2 * math.Pi
		shift := geom.V(rng.Float64()*50, rng.Float64()*50)
		moved := make([]geom.Point, n)
		for i, p := range pts {
			moved[i] = geom.Point{}.Add(p.Sub(geom.Point{}).Rotate(theta)).Add(shift)
		}
		a, err := Enclosing(pts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Enclosing(moved)
		if err != nil {
			t.Fatal(err)
		}
		wantCenter := geom.Point{}.Add(a.Center.Sub(geom.Point{}).Rotate(theta)).Add(shift)
		if b.Center.Dist(wantCenter) > 1e-6*(1+a.R) {
			t.Fatalf("trial %d: center moved to %v, want %v", trial, b.Center, wantCenter)
		}
		if math.Abs(a.R-b.R) > 1e-6*(1+a.R) {
			t.Fatalf("trial %d: radius changed %v -> %v", trial, a.R, b.R)
		}
	}
}

func TestSupport(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 0), geom.Pt(-1, 0), geom.Pt(0, 0.5)}
	c := geom.Circle{Center: geom.Pt(0, 0), R: 1}
	s := Support(pts, c)
	if len(s) != 2 {
		t.Fatalf("support count = %d, want 2", len(s))
	}
}

func BenchmarkEnclosing(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 256)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Enclosing(pts); err != nil {
			b.Fatal(err)
		}
	}
}
