// Package voronoi computes Voronoi diagrams of planar point sets and the
// "granulars" the paper's preprocessing relies on (§3.2): for each robot
// r, the largest disc centred on r and enclosed in r's Voronoi cell.
// Restricting every robot to move inside its own granular guarantees
// collision avoidance, because Voronoi cells have pairwise-disjoint
// interiors.
//
// Cells are computed by iterative half-plane clipping: the cell of site
// p is the intersection, over every other site q in ascending index
// order, of the half-plane of points closer to p than to q, bounded to a
// finite box enclosing all sites. The scan is O(n²), which suits its one
// caller, Figure 2, on 12 sites; the protocols take their granular radii
// from spatial.NearestRadii, not from a diagram.
package voronoi

import (
	"errors"
	"fmt"
	"math"

	"waggle/internal/geom"
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
}

// boxMargin is how far beyond the sites' bounding box the clipping box
// extends, as a multiple of the point-set diameter (plus an absolute
// floor for near-degenerate sets).
const boxMargin = 2.0

// New computes the Voronoi diagram of the given sites by the all-pairs
// clipping scan. It needs at least two sites, no two of which coincide.
func New(sites []geom.Point) (*Diagram, error) {
	n := len(sites)
	if n < 2 {
		return nil, ErrTooFewSites
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sites[i].Eq(sites[j]) {
				return nil, &ErrCoincidentSites{I: i, J: j}
			}
		}
	}
	box := boundingBox(sites)
	d := &Diagram{cells: make([]Cell, n)}
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
