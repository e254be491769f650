package naming

import (
	"cmp"
	"math"
	"slices"

	"waggle/internal/geom"
)

// The bounds of SECNaming's certificate on a gap between two
// clockwise-neighbouring angles about the SEC centre: a gap of at most
// secTieBound puts its two robots on one radius, a gap of at least
// secSepBound puts them on different radii, and a gap in between
// refuses the certificate. Each bound is a factor of four from
// angleEps, where SECLabels decides; the gaps computed here and the
// angle differences SECLabels compares differ by about 1e-15 rad
// (DESIGN.md §5n).
const (
	secTieBound = angleEps / 4
	secSepBound = 4 * angleEps
)

// SECNaming is every observer's SECLabels of one configuration, from a
// single clockwise sort about the SEC centre instead of one sort per
// observer.
//
// Every observer's §3.4 naming walks the same cyclic order: radii
// clockwise, and the robots on one radius outward from the centre (ties
// by index, as SECLabels' stable sort leaves them). Only the start
// differs: the observer's horizon radius. So Label(o, h) is h's position
// in that order minus the position of the first robot on o's radius,
// modulo the robots off the centre, and a robot within geom.Eps of the
// centre comes first in every naming. A robot stores one order and two
// positions per robot: O(n) memory, O(n log n) time.
type SECNaming struct {
	// ring lists the robots off the centre in the shared order.
	ring []int
	// pos[i] is robot i's index in ring, and first[i] the index in ring
	// of the innermost robot on i's radius. Unused for the centre robot.
	pos, first []int
	// center is the robot within geom.Eps of the centre, or -1.
	center int
}

// NewSECNaming builds the naming of every observer of pts, whose SEC
// is enclosing. It returns false when its certificate does not hold;
// the caller then names per observer with SECLabels. The certificate
// holds when:
//
//   - every robot's offset from the centre is finite, and at most one
//     robot lies within geom.Eps of the centre;
//   - every gap between clockwise-neighbouring angles about the centre,
//     the one across the ±π seam included, is at most secTieBound or
//     at least secSepBound;
//   - no radius, a run of robots joined by such ties, spans more than
//     secTieBound.
//
// Then SECLabels' angleEps comparison separates any two robots on
// different radii and compares any two on one radius by distance, for
// every observer, and Label gives SECLabels' labels exactly.
func NewSECNaming(pts []geom.Point, enclosing geom.Circle) (*SECNaming, bool) {
	type polar struct {
		angle, rdist float64
		gap          float64 // to the clockwise next robot, cyclically
		idx          int
	}
	s := &SECNaming{center: -1}
	ps := make([]polar, 0, len(pts))
	for i, p := range pts {
		v := p.Sub(enclosing.Center)
		r := v.Len()
		if !(r <= math.MaxFloat64) {
			return nil, false // NaN or ±Inf
		}
		if r <= geom.Eps { // v.IsZero(): SECLabels puts it first
			if s.center >= 0 {
				return nil, false
			}
			s.center = i
			continue
		}
		ps = append(ps, polar{angle: v.Angle(), rdist: r, idx: i})
	}
	// Clockwise is decreasing angle.
	slices.SortFunc(ps, func(a, b polar) int { return cmp.Compare(b.angle, a.angle) })
	m := len(ps)
	start := -1 // the ring starts just after the first separation
	for k := range ps {
		var gap float64
		if k+1 < m {
			gap = ps[k].angle - ps[k+1].angle
		} else {
			gap = ps[k].angle + 2*math.Pi - ps[0].angle // across the ±π seam
		}
		switch {
		case gap <= secTieBound:
		case gap >= secSepBound:
			if start < 0 {
				start = (k + 1) % m
			}
		default:
			return nil, false
		}
		ps[k].gap = gap
	}
	if m > 0 && start < 0 {
		return nil, false
	}
	if start > 0 {
		// Rotate ps left by start, so that no radius wraps around its
		// end; each robot's gap still leads to its clockwise neighbour.
		slices.Reverse(ps[:start])
		slices.Reverse(ps[start:])
		slices.Reverse(ps)
	}
	s.ring = make([]int, m)
	s.pos = make([]int, len(pts))
	s.first = make([]int, len(pts))
	first, span := 0, 0.0
	for k := range ps {
		if ps[k].gap <= secTieBound {
			if span += ps[k].gap; span > secTieBound {
				return nil, false
			}
			continue
		}
		// ps[first:k+1] is one radius: outward from the centre, ties by
		// index. The last robot's gap is the first separation, so every
		// radius ends here.
		radius := ps[first : k+1]
		slices.SortFunc(radius, func(a, b polar) int {
			if c := cmp.Compare(a.rdist, b.rdist); c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx)
		})
		for j, q := range radius {
			s.ring[first+j] = q.idx
			s.pos[q.idx] = first + j
			s.first[q.idx] = first
		}
		first, span = k+1, 0
	}
	return s, true
}

// Defined reports whether observer has a naming: every robot but one
// within geom.Eps of the SEC centre, which has no horizon (SECLabels'
// ErrObserverAtCenter).
func (s *SECNaming) Defined(observer int) bool { return observer != s.center }

// Label returns the label observer gives robot h: SECLabels(pts,
// observer, enclosing)[h]. The observer must be Defined.
func (s *SECNaming) Label(observer, h int) int {
	if h == s.center {
		return 0
	}
	l := s.pos[h] - s.first[observer]
	if l < 0 {
		l += len(s.ring)
	}
	if s.center >= 0 {
		l++
	}
	return l
}

// Home inverts Label: the robot observer labels label, for
// 0 <= label < len(pts). The observer must be Defined.
func (s *SECNaming) Home(observer, label int) int {
	if s.center >= 0 {
		if label == 0 {
			return s.center
		}
		label--
	}
	p := s.first[observer] + label
	if p >= len(s.ring) {
		p -= len(s.ring)
	}
	return s.ring[p]
}
