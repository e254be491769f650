// Package naming implements the recognition mechanisms the paper uses to
// address anonymous robots:
//
//   - LexLabels (§3.3): with sense of direction and chirality all robots
//     share the orientation of both axes, so ordering observed positions
//     lexicographically yields a total order every robot agrees on, even
//     though each robot has its own unit of measure.
//   - SECLabels (§3.4, Fig. 4): with chirality only, each robot r builds
//     a *relative* naming: compute the smallest enclosing circle (SEC)
//     of the configuration, take the "horizon" radius through r, and
//     number robots along radii in clockwise order starting from the
//     horizon, breaking ties on a radius by distance from the centre.
//     Every robot can also reconstruct every other robot's relative
//     naming, which is how bits get addressed.
//   - RotationalSymmetryOrder (Fig. 3): detects the rotationally
//     symmetric configurations in which anonymous robots without sense
//     of direction provably cannot agree on a global naming.
package naming

import (
	"errors"
	"math"
	"slices"

	"waggle/internal/geom"
)

// ErrObserverAtCenter is returned by SECLabels when the observer sits at
// the centre of the SEC: its horizon line is undefined. The paper's
// protocol implicitly assumes this does not happen; callers must handle
// it (e.g. by having that robot step off the centre first).
var ErrObserverAtCenter = errors.New("naming: observer at SEC centre has no horizon")

// ErrObserverOutOfRange is returned when the observer index is invalid.
var ErrObserverOutOfRange = errors.New("naming: observer index out of range")

// angleEps is the tolerance under which two polar angles are considered
// the same radius.
const angleEps = 1e-9

// LexLabels returns, for each point, its rank under the lexicographic
// order (x, then y). Because the order only compares coordinates along
// shared axis directions, it is invariant under the positive per-robot
// scale factors of the paper's model: every robot with sense of
// direction and chirality computes the same labelling.
func LexLabels(pts []geom.Point) []int {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		pa, pb := pts[a], pts[b]
		if pa.X != pb.X {
			return lessCmp(pa.X < pb.X)
		}
		return lessCmp(pa.Y < pb.Y)
	})
	labels := make([]int, len(pts))
	for rank, i := range idx {
		labels[i] = rank
	}
	return labels
}

// SECLabels returns the relative naming of the configuration with
// respect to pts[observer], as defined in §3.4: robots are numbered
// along SEC radii in clockwise order starting from the observer's
// horizon radius; robots sharing a radius are numbered outward from the
// centre. The returned slice maps point index -> label.
//
// The enclosing circle must be the SEC of pts (callers typically obtain
// it from package sec); it is passed in so a robot can compute the
// naming for every observer from a single SEC computation.
func SECLabels(pts []geom.Point, observer int, enclosing geom.Circle) ([]int, error) {
	if observer < 0 || observer >= len(pts) {
		return nil, ErrObserverOutOfRange
	}
	center := enclosing.Center
	horizon := pts[observer].Sub(center)
	if horizon.IsZero() {
		return nil, ErrObserverAtCenter
	}
	horizonAngle := horizon.Angle()

	type keyed struct {
		idx   int
		cw    float64 // clockwise angle from the horizon, in [0, 2*pi)
		rdist float64 // distance from the centre along the radius
	}
	ks := make([]keyed, len(pts))
	for i, p := range pts {
		v := p.Sub(center)
		var cw float64
		if v.IsZero() {
			// A robot exactly at the centre belongs to every radius; put it
			// first on the horizon radius (distance 0 sorts it before all).
			cw = 0
		} else {
			// Clockwise sweep: decreasing mathematical angle.
			cw = geom.NormalizeAngle(horizonAngle - v.Angle())
			if 2*math.Pi-cw < angleEps {
				cw = 0
			}
		}
		ks[i] = keyed{idx: i, cw: cw, rdist: v.Len()}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int {
		if math.Abs(a.cw-b.cw) > angleEps {
			return lessCmp(a.cw < b.cw)
		}
		return lessCmp(a.rdist < b.rdist)
	})
	labels := make([]int, len(pts))
	for rank, k := range ks {
		labels[k.idx] = rank
	}
	return labels, nil
}

// lessCmp turns a less-than result into a comparison for
// slices.SortStableFunc: negative exactly when less holds. The stable
// sort only ever asks whether a comparison is negative, and it is the
// same insertion-sort-and-symMerge template as sort.SliceStable, so a
// less function and its lessCmp make the same comparisons and produce
// the same order, even for SECLabels' angleEps comparison, which is not
// transitive.
func lessCmp(less bool) int {
	if less {
		return -1
	}
	return 1
}

// RotationalSymmetryOrder returns the order of the rotational symmetry
// group of the point set about its centroid: the largest k such that a
// rotation by 2*pi/k maps the set onto itself. k == 1 means the set is
// asymmetric (a global naming is achievable); k > 1 certifies a Fig. 3
// situation in which anonymous robots without sense of direction cannot
// deterministically agree on a common naming.
func RotationalSymmetryOrder(pts []geom.Point) int {
	n := len(pts)
	if n <= 1 {
		return 1
	}
	center := geom.Centroid(pts)
	// Pick a reference point off-centre with maximal radius for numeric
	// stability.
	ref, refR := -1, 0.0
	for i, p := range pts {
		if r := p.Dist(center); r > refR {
			ref, refR = i, r
		}
	}
	if ref < 0 || refR <= geom.Eps {
		return 1 // all points coincide with the centroid (impossible for distinct points, n>1)
	}
	refTheta := pts[ref].Sub(center).Angle()
	count := 0
	tol := 1e-6 * (1 + refR)
	for _, q := range pts {
		// Candidate rotation mapping ref -> q: must preserve radius.
		if math.Abs(q.Dist(center)-refR) > tol {
			continue
		}
		theta := q.Sub(center).Angle() - refTheta
		if mapsOntoItself(pts, center, theta, tol) {
			count++
		}
	}
	if count < 1 {
		count = 1
	}
	return count
}

// mapsOntoItself reports whether rotating every point by theta about
// center permutes the point set.
func mapsOntoItself(pts []geom.Point, center geom.Point, theta, tol float64) bool {
	for _, p := range pts {
		rp := center.Add(p.Sub(center).Rotate(theta))
		found := false
		for _, q := range pts {
			if rp.Dist(q) <= tol {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ViewsIndistinguishable reports whether the two observer robots have
// identical views up to their local frames: there is a rotation about
// the configuration's centroid carrying one observer to the other while
// mapping the configuration onto itself. In such configurations no
// deterministic anonymous algorithm without sense of direction can make
// the two robots choose different roles (the Fig. 3 argument).
func ViewsIndistinguishable(pts []geom.Point, a, b int) bool {
	if a == b {
		return true
	}
	center := geom.Centroid(pts)
	va, vb := pts[a].Sub(center), pts[b].Sub(center)
	tol := 1e-6 * (1 + va.Len())
	if math.Abs(va.Len()-vb.Len()) > tol {
		return false
	}
	if va.IsZero() {
		return vb.IsZero()
	}
	theta := vb.Angle() - va.Angle()
	return mapsOntoItself(pts, center, theta, tol)
}
