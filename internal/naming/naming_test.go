package naming

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"waggle/internal/geom"
	"waggle/internal/sec"
)

func TestLexLabels(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(2, 0), // label 2
		geom.Pt(0, 1), // label 1
		geom.Pt(0, 0), // label 0
		geom.Pt(3, 5), // label 3
	}
	got := LexLabels(pts)
	want := []int{2, 1, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LexLabels = %v, want %v", got, want)
		}
	}
}

// Property: LexLabels is invariant under uniform positive scaling (each
// robot's private unit of measure must not change the order).
func TestLexLabelsPropertyScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		pts := make([]geom.Point, n)
		scaled := make([]geom.Point, n)
		s := rng.Float64()*10 + 0.01
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
			scaled[i] = geom.Pt(pts[i].X*s, pts[i].Y*s)
		}
		a, b := LexLabels(pts), LexLabels(scaled)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: scaling changed labels: %v vs %v", trial, a, b)
			}
		}
	}
}

// Property: LexLabels is a permutation of 0..n-1.
func TestLexLabelsPropertyPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		labels := LexLabels(pts)
		seen := make([]bool, n)
		for _, l := range labels {
			if l < 0 || l >= n || seen[l] {
				t.Fatalf("trial %d: labels %v not a permutation", trial, labels)
			}
			seen[l] = true
		}
	}
}

func secOf(t *testing.T, pts []geom.Point) geom.Circle {
	t.Helper()
	c, err := sec.Enclosing(pts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSECLabelsErrors(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 0), geom.Pt(-1, 0)}
	c := secOf(t, pts)
	if _, err := SECLabels(pts, 5, c); !errors.Is(err, ErrObserverOutOfRange) {
		t.Errorf("err = %v, want ErrObserverOutOfRange", err)
	}
	withCenter := []geom.Point{geom.Pt(1, 0), geom.Pt(-1, 0), geom.Pt(0, 0)}
	c = secOf(t, withCenter)
	if _, err := SECLabels(withCenter, 2, c); !errors.Is(err, ErrObserverAtCenter) {
		t.Errorf("err = %v, want ErrObserverAtCenter", err)
	}
}

func TestSECLabelsSquare(t *testing.T) {
	// Square centred at the origin. Observer at (1,0); clockwise sweep
	// from its horizon visits (0,-1), (-1,0), (0,1).
	pts := []geom.Point{
		geom.Pt(1, 0),  // observer, label 0
		geom.Pt(0, 1),  // label 3 (clockwise last)
		geom.Pt(-1, 0), // label 2
		geom.Pt(0, -1), // label 1 (first clockwise)
	}
	labels, err := SECLabels(pts, 0, secOf(t, pts))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 2, 1}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("SECLabels = %v, want %v", labels, want)
		}
	}
}

func TestSECLabelsSharedRadius(t *testing.T) {
	// Two robots on the observer's own radius: the one nearer the centre
	// gets the smaller label; the observer itself is NOT necessarily 0.
	pts := []geom.Point{
		geom.Pt(2, 0),  // observer, outermost on horizon -> label 1
		geom.Pt(1, 0),  // inner on horizon -> label 0
		geom.Pt(0, -2), // first strictly clockwise radius -> label 2
		geom.Pt(-2, 0), // label 3
	}
	labels, err := SECLabels(pts, 0, secOf(t, pts))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 2, 3}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("SECLabels = %v, want %v", labels, want)
		}
	}
}

// Property: SECLabels is a permutation, and every robot can reconstruct
// every other observer's labelling (the paper's redundancy argument) —
// here checked as: the labelling depends only on (pts, observer), not on
// who computes it, which holds trivially, plus rotation invariance: a
// rigid rotation of the whole configuration leaves all labels unchanged.
func TestSECLabelsPropertyRotationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(15)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		}
		c := secOf(t, pts)
		theta := rng.Float64() * 2 * math.Pi
		rot := make([]geom.Point, n)
		for i, p := range pts {
			rot[i] = geom.Point{}.Add(p.Sub(geom.Point{}).Rotate(theta))
		}
		cRot := secOf(t, rot)
		for obs := 0; obs < n; obs++ {
			a, err := SECLabels(pts, obs, c)
			if err != nil {
				if errors.Is(err, ErrObserverAtCenter) {
					continue
				}
				t.Fatal(err)
			}
			seen := make([]bool, n)
			for _, l := range a {
				if l < 0 || l >= n || seen[l] {
					t.Fatalf("trial %d: labels %v not a permutation", trial, a)
				}
				seen[l] = true
			}
			b, err := SECLabels(rot, obs, cRot)
			if err != nil {
				continue
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d obs %d: rotation changed labels %v -> %v", trial, obs, a, b)
				}
			}
		}
	}
}

func TestRotationalSymmetryOrder(t *testing.T) {
	tests := []struct {
		name string
		pts  []geom.Point
		want int
	}{
		{"single point", []geom.Point{geom.Pt(3, 3)}, 1},
		{"pair", []geom.Point{geom.Pt(-1, 0), geom.Pt(1, 0)}, 2},
		{"square", []geom.Point{geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(-1, 0), geom.Pt(0, -1)}, 4},
		{"asymmetric triangle", []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(1, 3)}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := RotationalSymmetryOrder(tt.pts); got != tt.want {
				t.Errorf("RotationalSymmetryOrder = %d, want %d", got, tt.want)
			}
		})
	}
	t.Run("regular hexagon", func(t *testing.T) {
		var hex []geom.Point
		for k := 0; k < 6; k++ {
			theta := float64(k) / 6 * 2 * math.Pi
			hex = append(hex, geom.Pt(math.Cos(theta), math.Sin(theta)))
		}
		if got := RotationalSymmetryOrder(hex); got != 6 {
			t.Errorf("hexagon symmetry = %d, want 6", got)
		}
	})
}

// TestFig3SymmetryDefeatsGlobalNaming reproduces Figure 3: six robots in
// a configuration with 2-fold rotational symmetry, where for every robot
// there is another robot with the same view. Experiment F3 in DESIGN.md.
func TestFig3SymmetryDefeatsGlobalNaming(t *testing.T) {
	pts := Fig3Configuration()
	if got := RotationalSymmetryOrder(pts); got < 2 {
		t.Fatalf("Fig. 3 configuration symmetry order = %d, want >= 2", got)
	}
	// Every robot has a counterpart with an indistinguishable view.
	for i := range pts {
		found := false
		for j := range pts {
			if i != j && ViewsIndistinguishable(pts, i, j) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("robot %d has no symmetric counterpart", i)
		}
	}
	// By contrast the robots CAN still agree pairwise via relative naming:
	// SECLabels succeeds for every observer.
	c, err := sec.Enclosing(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if _, err := SECLabels(pts, i, c); err != nil {
			t.Fatalf("observer %d: %v", i, err)
		}
	}
}

func TestViewsIndistinguishableNegative(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(1, 3)}
	if ViewsIndistinguishable(pts, 0, 1) {
		t.Error("asymmetric triangle robots should be distinguishable")
	}
	if !ViewsIndistinguishable(pts, 2, 2) {
		t.Error("a robot is always indistinguishable from itself")
	}
}

// referenceLexLabels and referenceSECLabels are the labelings as sorted
// by sort.SliceStable with the original less functions.
func referenceLexLabels(pts []geom.Point) []int {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return pa.Y < pb.Y
	})
	labels := make([]int, len(pts))
	for rank, i := range idx {
		labels[i] = rank
	}
	return labels
}

func referenceSECLabels(pts []geom.Point, observer int, enclosing geom.Circle) []int {
	center := enclosing.Center
	horizonAngle := pts[observer].Sub(center).Angle()
	type keyed struct {
		idx       int
		cw, rdist float64
	}
	ks := make([]keyed, len(pts))
	for i, p := range pts {
		v := p.Sub(center)
		var cw float64
		if !v.IsZero() {
			cw = geom.NormalizeAngle(horizonAngle - v.Angle())
			if 2*math.Pi-cw < angleEps {
				cw = 0
			}
		}
		ks[i] = keyed{idx: i, cw: cw, rdist: v.Len()}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		if math.Abs(ks[a].cw-ks[b].cw) > angleEps {
			return ks[a].cw < ks[b].cw
		}
		return ks[a].rdist < ks[b].rdist
	})
	labels := make([]int, len(pts))
	for rank, k := range ks {
		labels[k.idx] = rank
	}
	return labels
}

// TestLabelSortsMatchSliceStable shows the typed stable sorts give the
// labels sort.SliceStable gave: on random configurations, on grids full
// of exact coordinate ties, and on rays of points whose angles differ by
// fractions and small multiples of angleEps, where SECLabels' comparison
// is not transitive. Each swarm is larger than the sorts' insertion-sort
// block of 20, so the merges run too.
func TestLabelSortsMatchSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(name string, pts []geom.Point) {
		t.Helper()
		if got, want := LexLabels(pts), referenceLexLabels(pts); !slices.Equal(got, want) {
			t.Fatalf("%s: LexLabels %v, sort.SliceStable gives %v", name, got, want)
		}
		c := secOf(t, pts)
		for obs := range pts {
			got, err := SECLabels(pts, obs, c)
			if err != nil {
				continue
			}
			if want := referenceSECLabels(pts, obs, c); !slices.Equal(got, want) {
				t.Fatalf("%s observer %d: SECLabels %v, sort.SliceStable gives %v", name, obs, got, want)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		random := make([]geom.Point, n)
		grid := make([]geom.Point, n)
		for i := range random {
			random[i] = geom.Pt(rng.Float64()*400, rng.Float64()*400)
			grid[i] = geom.Pt(float64(rng.Intn(5)), float64(rng.Intn(5)))
		}
		check("random", random)
		check("grid", grid)

		// Rays from the centre of a pinned SEC whose angles step by a
		// fraction or small multiple of angleEps.
		rays := []geom.Point{geom.Pt(-100, 0), geom.Pt(100, 0), geom.Pt(0, 100), geom.Pt(0, -100)}
		base := rng.Float64() * 2 * math.Pi
		for len(rays) < 48 {
			a := base + float64(rng.Intn(6))*angleEps*(0.3+0.5*rng.Float64())
			if rng.Intn(4) == 0 {
				a = -math.Pi/2 + float64(rng.Intn(3)-1)*angleEps*0.6
			}
			r := 10 + rng.Float64()*80
			rays = append(rays, geom.Pt(r*math.Cos(a), r*math.Sin(a)))
		}
		check("rays", rays)
	}
}
