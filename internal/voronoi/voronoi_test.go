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

func TestLocate(t *testing.T) {
	sites := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 10)}
	d, err := New(sites)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		p    geom.Point
		want int
	}{
		{"near 0", geom.Pt(1, 1), 0},
		{"near 1", geom.Pt(9, -1), 1},
		{"near 2", geom.Pt(5, 9), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := d.Locate(tt.p); got != tt.want {
				t.Errorf("Locate(%v) = %d, want %d", tt.p, got, tt.want)
			}
		})
	}
}

func TestMinGranularRadius(t *testing.T) {
	sites := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(100, 0)}
	d, err := New(sites)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.MinGranularRadius(); !geom.ApproxEq(got, 1) {
		t.Errorf("MinGranularRadius = %v, want 1", got)
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

// TestPrunedParity pins the grid-pruned construction to the brute-force
// twin: granular radii and nearest-site indices must match EXACTLY (bit
// for bit — the protocols consume these), and region polygons must match
// as vertex rings up to a cyclic rotation within 1e-9. Exact region
// bytes are unattainable: the full scan clips far sites against
// still-huge intermediate regions, and those intermediate crossing
// vertices shift the final floats by ~1e-13 and rotate the ring's
// starting vertex. newPruned is called directly so the small site
// counts exercise pruning even though New routes n < pruneMinSites to
// the scan.
func TestPrunedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{2, 3, 64, 512} {
		layouts := map[string][]geom.Point{"random": randomSites(rng, n)}
		if n >= 64 {
			// Clustered sites stress ring expansion and the fallback.
			clustered := make([]geom.Point, 0, n)
			for len(clustered) < n {
				cx, cy := rng.Float64()*100, rng.Float64()*100
				for k := 0; k < 8 && len(clustered) < n; k++ {
					p := geom.Pt(cx+rng.NormFloat64(), cy+rng.NormFloat64())
					ok := true
					for _, q := range clustered {
						if p.Dist(q) < 1e-3 {
							ok = false
						}
					}
					if ok {
						clustered = append(clustered, p)
					}
				}
			}
			layouts["clustered"] = clustered
		}
		for name, sites := range layouts {
			got, err := newPruned(sites)
			if err != nil {
				t.Fatalf("%s/n=%d: newPruned: %v", name, n, err)
			}
			want, err := newBrute(sites)
			if err != nil {
				t.Fatalf("%s/n=%d: newBrute: %v", name, n, err)
			}
			for i := 0; i < n; i++ {
				gc, wc := got.Cell(i), want.Cell(i)
				if gc.Granular.R != wc.Granular.R {
					t.Fatalf("%s/n=%d cell %d: granular %v != brute %v", name, n, i, gc.Granular.R, wc.Granular.R)
				}
				if gc.NearestSite != wc.NearestSite {
					t.Fatalf("%s/n=%d cell %d: nearest %d != brute %d", name, n, i, gc.NearestSite, wc.NearestSite)
				}
				gv, wv := gc.Region.Vertices(), wc.Region.Vertices()
				if len(gv) != len(wv) {
					t.Fatalf("%s/n=%d cell %d: %d vertices != brute %d", name, n, i, len(gv), len(wv))
				}
				if !ringsMatch(gv, wv, 1e-9) {
					t.Fatalf("%s/n=%d cell %d: region rings differ:\n%v\n%v", name, n, i, gv, wv)
				}
			}
		}
	}
}

// ringsMatch reports whether two vertex rings describe the same polygon:
// equal up to a cyclic rotation, each vertex within tol of its
// counterpart.
func ringsMatch(a, b []geom.Point, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	for shift := range b {
		ok := true
		for k := range a {
			if a[k].Dist(b[(k+shift)%len(b)]) > tol {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestPrunedCoincidentParity pins the grid coincidence check to the
// lexicographic pair the all-pairs scan reports.
func TestPrunedCoincidentParity(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	sites := randomSites(rng, 40)
	sites[31] = sites[7] // duplicate: scan order reports (7, 31)
	_, err := newPruned(sites)
	var coincident *ErrCoincidentSites
	if !errors.As(err, &coincident) {
		t.Fatalf("err = %v, want ErrCoincidentSites", err)
	}
	if coincident.I != 7 || coincident.J != 31 {
		t.Errorf("coincident indices = (%d,%d), want (7,31)", coincident.I, coincident.J)
	}
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
			nearest := d.Locate(p)
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
