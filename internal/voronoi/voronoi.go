// Package voronoi computes Voronoi diagrams of planar point sets and the
// "granulars" the paper's preprocessing relies on (§3.2): for each robot
// r, the largest disc centred on r and enclosed in r's Voronoi cell.
// Restricting every robot to move inside its own granular guarantees
// collision avoidance, because Voronoi cells have pairwise-disjoint
// interiors.
//
// Cells are computed by iterative half-plane clipping: the cell of site
// p is the intersection, over every other site q, of the half-plane of
// points closer to p than to q, bounded to a finite box enclosing all
// sites. The naive form is O(n²); above pruneMinSites New prunes the
// clipping with a spatial grid — sites are consumed in expanding rings,
// and once every remaining site is provably too far to cut the current
// region (farther than twice the region's covering radius), the scan
// stops. Granular radii and nearest-site indices — the quantities the
// protocols consume — are bit-identical to the full scan; region
// polygons are the same shapes up to a cyclic rotation of the vertex
// ring and ~1e-13 float noise (see makeCellPruned). Property tests pin
// both guarantees; when pruning safety cannot be established the cell
// falls back to the full scan.
package voronoi

import (
	"errors"
	"fmt"
	"math"

	"waggle/internal/geom"
	"waggle/internal/spatial"
)

// ErrTooFewSites is returned when a diagram is requested for fewer than
// two sites: a single robot has no bisectors, hence an unbounded cell and
// no finite granular.
var ErrTooFewSites = errors.New("voronoi: need at least two sites")

// ErrCoincidentSites is returned when two sites coincide; the paper's
// model forbids two robots occupying the same point.
type ErrCoincidentSites struct {
	I, J int
}

// Error implements error.
func (e *ErrCoincidentSites) Error() string {
	return fmt.Sprintf("voronoi: sites %d and %d coincide", e.I, e.J)
}

// Cell is one site's Voronoi region clipped to the diagram's bounding
// box, together with its granular.
type Cell struct {
	// Site is the generating point (the robot's position).
	Site geom.Point
	// Region is the clipped cell polygon (convex, counterclockwise).
	Region geom.Polygon
	// Granular is the largest disc centred on Site inscribed in the
	// *unbounded* cell: its radius is half the distance to the nearest
	// other site, which is also the distance from Site to the nearest
	// bisector. (The bounding box is an artefact of the finite
	// representation and deliberately does not shrink the granular; the
	// box is chosen large enough that it never clips any granular.)
	Granular geom.Disc
	// NearestSite is the index of the closest other site.
	NearestSite int
}

// Diagram is the Voronoi diagram of a finite point set.
type Diagram struct {
	cells []Cell
	box   geom.Polygon
}

// boxMargin is how far beyond the sites' bounding box the clipping box
// extends, as a multiple of the point-set diameter (plus an absolute
// floor for near-degenerate sets).
const boxMargin = 2.0

// pruneMinSites is the site count from which New uses the grid-pruned
// construction. The pruned path clips twice (once while expanding rings
// to track the stop bound, once over the sorted candidate set), so its
// constant factor is roughly double the scan's; measured on uniform
// sites the crossover sits near n ≈ 190 (BenchmarkNew: 0.6× at n=64,
// 1.2× at n=256, 2.2× at n=512), and the gap widens with n.
const pruneMinSites = 192

// New computes the Voronoi diagram of the given sites. Large site sets
// use grid-pruned clipping; granulars and nearest-site indices are
// bit-identical to newBrute, regions identical up to ring rotation and
// float noise (see the package comment).
func New(sites []geom.Point) (*Diagram, error) {
	n := len(sites)
	if n < 2 {
		return nil, ErrTooFewSites
	}
	if n < pruneMinSites {
		return newBrute(sites)
	}
	return newPruned(sites)
}

// newPruned is the grid-pruned construction; it requires at least two
// sites. The parity tests call it directly so small site counts keep
// exercising the pruning even though New routes them to the scan.
func newPruned(sites []geom.Point) (*Diagram, error) {
	n := len(sites)
	g := spatial.NewGrid(sites)
	// Coincident-site detection via the grid: for each i ascending, the
	// smallest coincident j > i — the same pair the lexicographic
	// all-pairs scan reports (Eq is Dist <= Eps, applied here exactly).
	for i := 0; i < n; i++ {
		minJ := -1
		g.VisitNeighborhood(sites[i], geom.Eps, func(j int, d float64) {
			if j > i && d <= geom.Eps && (minJ < 0 || j < minJ) {
				minJ = j
			}
		})
		if minJ >= 0 {
			return nil, &ErrCoincidentSites{I: i, J: minJ}
		}
	}

	box := boundingBox(sites)
	d := &Diagram{cells: make([]Cell, n), box: box}
	var sc cellScratch
	for i := range sites {
		cell, ok := makeCellPruned(i, sites, box, g, &sc)
		if !ok {
			// Pruning safety could not be established; fall back to the
			// full scan for this cell.
			cell = makeCell(i, sites, box)
		}
		d.cells[i] = cell
	}
	return d, nil
}

// newBrute computes the diagram by the unpruned all-pairs scan: New's
// path for small site counts, and the reference the parity tests pin
// the pruned path against. It requires at least two sites.
func newBrute(sites []geom.Point) (*Diagram, error) {
	n := len(sites)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sites[i].Eq(sites[j]) {
				return nil, &ErrCoincidentSites{I: i, J: j}
			}
		}
	}
	box := boundingBox(sites)
	d := &Diagram{cells: make([]Cell, n), box: box}
	for i := range sites {
		d.cells[i] = makeCell(i, sites, box)
	}
	return d, nil
}

// Cells returns the diagram's cells, indexed like the input sites. The
// returned slice is shared; callers must not mutate it.
func (d *Diagram) Cells() []Cell { return d.cells }

// Cell returns the cell of site i.
func (d *Diagram) Cell(i int) Cell { return d.cells[i] }

// Len returns the number of sites.
func (d *Diagram) Len() int { return len(d.cells) }

// Locate returns the index of the site whose cell contains p, i.e. the
// nearest site (ties broken by lowest index).
func (d *Diagram) Locate(p geom.Point) int {
	best, bestDist := 0, math.Inf(1)
	for i, c := range d.cells {
		if dist := c.Site.Dist2(p); dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

// MinGranularRadius returns the smallest granular radius across all
// cells — the uniform movement budget a conservative protocol may adopt.
func (d *Diagram) MinGranularRadius() float64 {
	minR := math.Inf(1)
	for _, c := range d.cells {
		if c.Granular.R < minR {
			minR = c.Granular.R
		}
	}
	return minR
}

// cellScratch holds the reusable per-cell buffers of the pruned
// construction, so building a diagram allocates per cell only what the
// clipping itself allocates.
type cellScratch struct {
	pend []int // indices gathered in the current ring
	cand []int // all candidate indices consumed so far
}

// makeCellPruned builds the cell of site i consuming other sites in
// expanding grid rings. After each ring it clips the working region and
// stops as soon as every remaining site is provably irrelevant: a site
// at distance d has its bisector at distance d/2 from the site, so once
// the remaining-distance lower bound exceeds twice the region's covering
// radius R (plus an epsilon safety margin), no remaining bisector can
// reach the region.
//
// The returned region is then re-clipped from the box in ascending site
// order over the candidate set only. A skipped site is farther than 2R,
// so its bisector clears the final region by more than Clip's -Eps
// tolerance: the candidate subset yields the same polygon. It is the
// same only as a shape, not as bytes — the full scan also clips far
// sites against still-huge intermediate regions, and those intermediate
// crossing vertices perturb the final vertex floats by ~1e-13 and
// rotate the ring's starting vertex. The granular radius and nearest
// site ARE bit-identical: the stop bound certifies every remaining site
// is strictly farther than the nearest found, and ties break to the
// lowest index exactly as the ascending scan does.
//
// ok is false when pruning safety cannot be established (degenerate
// region); the caller falls back to the full scan.
func makeCellPruned(i int, sites []geom.Point, box geom.Polygon, g *spatial.Grid, sc *cellScratch) (_ Cell, ok bool) {
	site := sites[i]
	region := box
	nearest, nearestDist := -1, math.Inf(1)
	sc.pend = sc.pend[:0]
	sc.cand = sc.cand[:0]
	safe := true
	g.VisitRings(site,
		func(bound float64) bool {
			if len(sc.pend) > 0 {
				insertionSort(sc.pend)
				for _, j := range sc.pend {
					q := sites[j]
					region = region.Clip(geom.HalfPlane{Boundary: geom.PerpBisector(site, q)})
					if d := site.Dist(q); d < nearestDist || (d == nearestDist && j < nearest) {
						nearest, nearestDist = j, d
					}
				}
				sc.cand = append(sc.cand, sc.pend...)
				sc.pend = sc.pend[:0]
			}
			if nearest < 0 {
				return true // nothing consumed yet; keep expanding
			}
			if region.Empty() {
				safe = false
				return false
			}
			r := region.FarthestVertexDist(site)
			if math.IsNaN(r) || r <= 0 {
				safe = false
				return false
			}
			// The region contains the granular disc (radius
			// nearestDist/2), so R >= nearestDist/2 and stopping also
			// certifies the nearest site: every remaining site is
			// farther than nearestDist.
			return bound <= 2*r+geom.Eps*(1+2*r)
		},
		func(j int) {
			if j != i {
				sc.pend = append(sc.pend, j)
			}
		})
	if !safe {
		return Cell{}, false
	}
	insertionSort(sc.cand)
	region = box
	for _, j := range sc.cand {
		region = region.Clip(geom.HalfPlane{Boundary: geom.PerpBisector(site, sites[j])})
	}
	return Cell{
		Site:        site,
		Region:      region,
		Granular:    geom.Disc{Center: site, R: nearestDist / 2},
		NearestSite: nearest,
	}, true
}

// insertionSort sorts a small int slice in place without allocating
// (ring membership is a handful of indices).
func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func makeCell(i int, sites []geom.Point, box geom.Polygon) Cell {
	site := sites[i]
	region := box
	nearest, nearestDist := -1, math.Inf(1)
	for j, other := range sites {
		if j == i {
			continue
		}
		// Half-plane of points closer to site than to other: the
		// perpendicular bisector directed so that site is on its left.
		region = region.Clip(geom.HalfPlane{Boundary: geom.PerpBisector(site, other)})
		if dist := site.Dist(other); dist < nearestDist {
			nearest, nearestDist = j, dist
		}
	}
	return Cell{
		Site:        site,
		Region:      region,
		Granular:    geom.Disc{Center: site, R: nearestDist / 2},
		NearestSite: nearest,
	}
}

func boundingBox(sites []geom.Point) geom.Polygon {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range sites {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	diam := math.Hypot(maxX-minX, maxY-minY)
	margin := boxMargin*diam + 1
	return geom.Box(minX-margin, minY-margin, maxX+margin, maxY+margin)
}
