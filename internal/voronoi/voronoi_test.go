package voronoi

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"waggle/internal/geom"
)

func TestNewErrors(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrTooFewSites) {
		t.Errorf("nil sites: err = %v, want ErrTooFewSites", err)
	}
	if _, err := New([]geom.Point{geom.Pt(0, 0)}); !errors.Is(err, ErrTooFewSites) {
		t.Errorf("one site: err = %v, want ErrTooFewSites", err)
	}
	_, err := New([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(0, 0)})
	var coincident *ErrCoincidentSites
	if !errors.As(err, &coincident) {
		t.Fatalf("coincident sites: err = %v, want ErrCoincidentSites", err)
	}
	if coincident.I != 0 || coincident.J != 2 {
		t.Errorf("coincident indices = (%d,%d), want (0,2)", coincident.I, coincident.J)
	}
}

func TestTwoSites(t *testing.T) {
	d, err := New([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := d.Cell(0), d.Cell(1)
	if !geom.ApproxEq(c0.Granular.R, 5) || !geom.ApproxEq(c1.Granular.R, 5) {
		t.Errorf("granular radii = %v, %v; want 5, 5", c0.Granular.R, c1.Granular.R)
	}
	if c0.NearestSite != 1 || c1.NearestSite != 0 {
		t.Errorf("nearest sites = %d, %d; want 1, 0", c0.NearestSite, c1.NearestSite)
	}
	// The bisector x=5 separates the cells.
	if !c0.Region.Contains(geom.Pt(2, 3)) || c0.Region.Contains(geom.Pt(8, 3)) {
		t.Error("cell 0 region is wrong")
	}
	if !c1.Region.Contains(geom.Pt(8, 3)) || c1.Region.Contains(geom.Pt(2, 3)) {
		t.Error("cell 1 region is wrong")
	}
}

func TestGridCells(t *testing.T) {
	// 3x3 unit grid: the centre cell is the unit square around (1,1)
	// (shrunk by half a unit on each side).
	var sites []geom.Point
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			sites = append(sites, geom.Pt(float64(x), float64(y)))
		}
	}
	d, err := New(sites)
	if err != nil {
		t.Fatal(err)
	}
	center := d.Cell(4) // (1,1)
	if !geom.ApproxEq(center.Region.Area(), 1) {
		t.Errorf("center cell area = %v, want 1", center.Region.Area())
	}
	if !geom.ApproxEq(center.Granular.R, 0.5) {
		t.Errorf("center granular radius = %v, want 0.5", center.Granular.R)
	}
}

func randomSites(rng *rand.Rand, n int) []geom.Point {
	sites := make([]geom.Point, 0, n)
	for len(sites) < n {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		ok := true
		for _, q := range sites {
			if p.Dist(q) < 1e-3 {
				ok = false
				break
			}
		}
		if ok {
			sites = append(sites, p)
		}
	}
	return sites
}

// nearestSite returns the index of the site nearest to p, ties to the
// lowest index.
func nearestSite(sites []geom.Point, p geom.Point) int {
	best, bestDist := 0, math.Inf(1)
	for i, q := range sites {
		if d := q.Dist(p); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// Property: every site is inside its own cell, and the cell's region
// contains exactly the points nearest to the site.
func TestPropertyCellMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		sites := randomSites(rng, 3+rng.Intn(20))
		d, err := New(sites)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range d.Cells() {
			if !c.Region.Contains(c.Site) {
				t.Fatalf("trial %d: site %d not inside its own cell", trial, i)
			}
		}
		// Sample random points and cross-check nearest-site semantics.
		for s := 0; s < 50; s++ {
			p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
			nearest := nearestSite(sites, p)
			for i, c := range d.Cells() {
				in := c.Region.Contains(p)
				if i == nearest && !in {
					// Allow boundary ambiguity: p must be within Eps of the
					// region of its nearest site.
					if c.Region.DistToBoundary(p) > 1e-6 && !in {
						t.Fatalf("trial %d: point %v not in nearest cell %d", trial, p, i)
					}
				}
				if i != nearest && in {
					// p is in a non-nearest cell: only legal on a boundary.
					dNear := sites[nearest].Dist(p)
					dThis := sites[i].Dist(p)
					if dThis-dNear > 1e-6 {
						t.Fatalf("trial %d: point %v in cell %d but nearer to %d", trial, p, i, nearest)
					}
				}
			}
		}
	}
}

// Property: the granular disc is inscribed in the cell (every sampled
// boundary point of the disc is inside the region) and maximal (radius
// equals half the nearest-site distance).
func TestPropertyGranularInscribedAndMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		sites := randomSites(rng, 2+rng.Intn(20))
		d, err := New(sites)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range d.Cells() {
			wantR := math.Inf(1)
			for j, q := range sites {
				if j != i {
					wantR = math.Min(wantR, c.Site.Dist(q)/2)
				}
			}
			if !geom.ApproxEq(c.Granular.R, wantR) {
				t.Fatalf("trial %d cell %d: granular R = %v, want %v", trial, i, c.Granular.R, wantR)
			}
			for k := 0; k < 16; k++ {
				theta := float64(k) / 16 * 2 * math.Pi
				p := c.Granular.PointAt(theta)
				// Shrink marginally to stay clear of boundary ties.
				p = c.Site.Lerp(p, 1-1e-9)
				if !c.Region.Contains(p) {
					t.Fatalf("trial %d cell %d: granular point %v escapes region", trial, i, p)
				}
			}
		}
	}
}

// Property: granulars of distinct robots are disjoint (collision
// avoidance): centre distance >= sum of radii.
func TestPropertyGranularsDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sites := randomSites(rng, 2+rng.Intn(15))
		d, err := New(sites)
		if err != nil {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			for j := i + 1; j < d.Len(); j++ {
				gi, gj := d.Cell(i).Granular, d.Cell(j).Granular
				if gi.Center.Dist(gj.Center) < gi.R+gj.R-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: cell regions tile the sampled area — every sampled point
// belongs to at least one cell region.
func TestPropertyCellsCover(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sites := randomSites(rng, 12)
	d, err := New(sites)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 200; s++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		found := false
		for _, c := range d.Cells() {
			if c.Region.Contains(p) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("point %v not covered by any cell", p)
		}
	}
}
