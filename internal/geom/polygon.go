package geom

import "math"

// Polygon is a convex polygon stored as counterclockwise-ordered
// vertices. All operations assume convexity; the package only ever
// produces convex polygons (boxes clipped by half-planes).
type Polygon struct {
	vertices []Point
}

// NewPolygon builds a polygon from counterclockwise vertices. The input
// slice is copied.
func NewPolygon(vertices []Point) Polygon {
	vs := make([]Point, len(vertices))
	copy(vs, vertices)
	return Polygon{vertices: vs}
}

// Box returns the axis-aligned rectangle with corners (minX, minY) and
// (maxX, maxY) as a counterclockwise polygon.
func Box(minX, minY, maxX, maxY float64) Polygon {
	return Polygon{vertices: []Point{
		{X: minX, Y: minY},
		{X: maxX, Y: minY},
		{X: maxX, Y: maxY},
		{X: minX, Y: maxY},
	}}
}

// Vertices returns a copy of the polygon's vertices in counterclockwise
// order.
func (pg Polygon) Vertices() []Point {
	vs := make([]Point, len(pg.vertices))
	copy(vs, pg.vertices)
	return vs
}

// Len returns the number of vertices.
func (pg Polygon) Len() int { return len(pg.vertices) }

// Empty reports whether the polygon has no interior (fewer than three
// vertices).
func (pg Polygon) Empty() bool { return len(pg.vertices) < 3 }

// Area returns the polygon's area (shoelace formula).
func (pg Polygon) Area() float64 {
	if pg.Empty() {
		return 0
	}
	var sum float64
	n := len(pg.vertices)
	for i := 0; i < n; i++ {
		a, b := pg.vertices[i], pg.vertices[(i+1)%n]
		sum += a.X*b.Y - b.X*a.Y
	}
	return sum / 2
}

// Contains reports whether p lies inside or on the polygon.
func (pg Polygon) Contains(p Point) bool {
	if pg.Empty() {
		return false
	}
	n := len(pg.vertices)
	for i := 0; i < n; i++ {
		a, b := pg.vertices[i], pg.vertices[(i+1)%n]
		if LineThrough(a, b).Side(p) < 0 {
			return false
		}
	}
	return true
}

// Clip returns the intersection of the polygon with the half-plane
// (Sutherland–Hodgman against a single edge). The result is again convex
// and counterclockwise; it may be empty.
func (pg Polygon) Clip(h HalfPlane) Polygon {
	if pg.Empty() {
		return Polygon{}
	}
	n := len(pg.vertices)
	out := make([]Point, 0, n+1)
	for i := 0; i < n; i++ {
		cur, next := pg.vertices[i], pg.vertices[(i+1)%n]
		curIn := h.signedDist(cur) >= -Eps
		nextIn := h.signedDist(next) >= -Eps
		if curIn {
			out = append(out, cur)
		}
		if curIn != nextIn {
			// The edge crosses the boundary; add the crossing point.
			if ip, ok := LineThrough(cur, next).Intersect(h.Boundary); ok {
				out = append(out, ip)
			}
		}
	}
	out = dedupeRing(out)
	if len(out) < 3 {
		return Polygon{}
	}
	return Polygon{vertices: out}
}

// DistToBoundary returns the minimum distance from p to the polygon's
// boundary. For p inside a convex polygon this is the radius of the
// largest disc centred at p that fits inside the polygon.
func (pg Polygon) DistToBoundary(p Point) float64 {
	if pg.Empty() {
		return 0
	}
	minDist := math.Inf(1)
	n := len(pg.vertices)
	for i := 0; i < n; i++ {
		d := Segment{A: pg.vertices[i], B: pg.vertices[(i+1)%n]}.Dist(p)
		if d < minDist {
			minDist = d
		}
	}
	return minDist
}

// Centroid returns the centroid of the polygon's vertices.
func (pg Polygon) Centroid() Point { return Centroid(pg.vertices) }

// dedupeRing removes consecutive (near-)duplicate points from a closed
// ring, including the wrap-around pair.
func dedupeRing(pts []Point) []Point {
	if len(pts) == 0 {
		return pts
	}
	out := pts[:0]
	for _, p := range pts {
		if len(out) == 0 || !out[len(out)-1].Eq(p) {
			out = append(out, p)
		}
	}
	for len(out) > 1 && out[0].Eq(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}
