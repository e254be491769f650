// Package protocol implements the paper's six movement-signal
// communication protocols plus the §5 variants:
//
//	Sync2        two synchronous robots              (§3.1, Fig. 1)
//	SyncN        n synchronous robots, three naming
//	             schemes: observable IDs (§3.2),
//	             lexicographic (§3.3), SEC-relative (§3.4)
//	Async2       two asynchronous robots             (§4.1, Fig. 5)
//	AsyncN       n asynchronous robots               (§4.2, Fig. 6)
//	AsyncBounded the §5 bounded-slice variant: k data
//	             diameters, recipient index sent as
//	             ⌈log_k n⌉ symbols before the payload
//
// Every protocol is a sim.Behavior per robot plus an Endpoint exposing
// Send/Receive to the application. Behaviors work exclusively in their
// robot's local coordinates; all thresholds are expressed as fractions
// of locally-computed lengths (granular radii, initial separations), so
// correctness is invariant under the per-robot rotations, scales and
// (shared-handedness) reflections the model allows.
package protocol

import (
	"math"
	"sync"

	"waggle/internal/geom"
	"waggle/internal/sec"
	"waggle/internal/spatial"
)

// Naming selects how an n-robot protocol identifies recipients.
type Naming int

const (
	// NamingIDs uses observable identifiers (§3.2); requires an
	// identified system and sense of direction.
	NamingIDs Naming = iota + 1
	// NamingLex uses the shared lexicographic order (§3.3); requires
	// sense of direction (and chirality); works for anonymous robots.
	NamingLex
	// NamingSEC uses the per-observer relative naming built on the
	// smallest enclosing circle (§3.4); requires chirality only.
	NamingSEC
)

// String implements fmt.Stringer.
func (n Naming) String() string {
	switch n {
	case NamingIDs:
		return "ids"
	case NamingLex:
		return "lex"
	case NamingSEC:
		return "sec"
	default:
		return "naming(?)"
	}
}

// ToAll is the broadcast recipient for Endpoint.SendAll: the §1 remark
// that the protocols "can be easily adapted to implement efficiently
// one-to-many or one-to-all explicit communication". A one-to-all
// message is transmitted ONCE, on the sender's own diameter — which is
// meaningless as a unicast address (a robot never writes to itself) and
// is therefore free to carry broadcast traffic. Every robot decodes all
// movements anyway, so a single transmission reaches the whole swarm.
const ToAll = -1

// Received is one delivered message.
type Received struct {
	// From and To are home indices (positions in the initial
	// configuration P(t0)); for anonymous schemes they are derived
	// geometrically, never from simulator indices.
	From, To int
	// Payload is the message body.
	Payload []byte
}

// sideOf encodes which half of a diameter a movement used: side 0 is the
// paper's "Northern/Eastern" half (bit 0), side 1 the opposite (bit 1).
type sideOf int

// slicer computes and classifies the sliced-granular directions of §3.2,
// §3.4 and §4.2 for one sender, in the coordinates of one observer. It
// holds the sender's reference direction (local North for
// sense-of-direction schemes, the SEC horizon direction for the SEC
// scheme); the diameter count comes from the swarm's sector table.
type slicer struct {
	ref geom.Vec // unit reference direction (diameter 0, positive end)
}

// newSlicer builds a slicer; ref must be non-zero.
func newSlicer(ref geom.Vec) slicer {
	return slicer{ref: ref.Unit()}
}

// direction returns the unit vector of the positive (side-0) end of
// diameter k when side is 0, or the negative end when side is 1.
// Diameters are numbered clockwise from the reference direction, spaced
// π/D apart for t's diameter count D. "Clockwise" is the fixed local
// convention; robots sharing handedness agree on it (chirality).
func (s slicer) direction(k int, side sideOf, t *sectorTable) geom.Vec {
	theta := float64(k) * math.Pi / float64(t.diameters)
	if side == 1 {
		theta += math.Pi
	}
	// Clockwise rotation = negative mathematical angle.
	return s.ref.Rotate(-theta)
}

// classify maps an observed displacement to the nearest (diameter, side)
// pair. The displacement must be non-zero. t is the swarm's sector
// table, which fixes the diameter count: a displacement it certifies is
// classified without atan2 or integer division, with the result
// classifyAngle gives (DESIGN.md §5m); every other displacement, NaN and
// ±Inf included, goes through classifyAngle itself.
func (s slicer) classify(d geom.Vec, t *sectorTable) (k int, side sideOf) {
	return t.split(s.sector(d, t, -1))
}

// sector is classify as one index, m = k + side·D, with a guess at the
// sector to try first: a decoder passes the sector it last saw the
// sender in. The guess only decides how soon the certificate holds,
// never what it returns, so any guess, a negative one or one of 2D and
// above included, gives classify's answer.
func (s slicer) sector(d geom.Vec, t *sectorTable, guess int) int {
	if m, ok := t.certify(s.ref, d, guess); ok {
		return m
	}
	return s.classifyAngle(d, t)
}

// classifyAngle is sector by the clockwise angle of d from the
// reference direction, rounded to the nearest half-step π/D for t's
// diameter count D.
func (s slicer) classifyAngle(d geom.Vec, t *sectorTable) int {
	alpha := geom.NormalizeAngle(s.ref.Angle() - d.Angle())
	halfStep := math.Pi / float64(t.diameters)
	m := int(math.Round(alpha/halfStep)) % (2 * t.diameters)
	if m < 0 {
		m += 2 * t.diameters
	}
	return m
}

// sectorMargin is the δ of the sector certificate: a displacement
// (a, b) in a slicer's frame is certified in sector m only when both of
// its cross products with the sector's boundary directions exceed
// δ·(|a|+|b|), which puts it at least about δ radians inside the
// sector. The atan2 pipeline of classifyAngle and the cross-product
// geometry disagree by at most about 1e-14 radians (DESIGN.md §5m).
const sectorMargin = 0x1p-30

// sectorTable holds the sector boundaries of one diameter count D, in
// the frame in which a slicer sees a displacement d: a = d·ref along the
// reference direction and b = d×ref, so that d's clockwise angle from
// the reference is atan2(b, a). Sector m (diameter m mod D, side m ≥ D)
// spans the clockwise angles ((m−½)·π/D, (m+½)·π/D). Next to them it
// keeps the order in which every robot's smallest enclosing circle
// visits the swarm's initial positions. The protocol constructors build
// one table per swarm, and every robot of the swarm shares it,
// read-only once filled.
type sectorTable struct {
	diameters int
	robots    int
	// perHalfStep is D/π, the number of half-steps per radian.
	perHalfStep float64
	fill        sync.Once
	// bounds[m] and bounds[m+1] are the unit directions of sector m's
	// lower and upper boundary, for m in [0, 2D): 2D+1 entries, whose
	// first and last are the same boundary, so sector 0 needs no wrap.
	bounds []geom.Vec
	// welzl is sec.Order(robots), Welzl's fixed shuffle of the swarm,
	// for sec.EnclosingInOrder.
	welzl []int
}

// newSectorTable returns the sector table of the given diameter count
// for a swarm of the given size, with its contents still to fill.
func newSectorTable(diameters, robots int) *sectorTable {
	return &sectorTable{diameters: diameters, robots: robots, perHalfStep: float64(diameters) / math.Pi}
}

// filled fills the boundary directions and the Welzl order on its first
// call and returns t. Each robot calls it as it builds its swarm
// geometry, before its first classification, so robots initialising in
// parallel fill the table once and a swarm that is never stepped (one
// built only to be checkpointed, say) never pays for its 2D+1 entries
// or its order.
func (t *sectorTable) filled() *sectorTable {
	t.fill.Do(func() {
		t.bounds = make([]geom.Vec, 2*t.diameters+1)
		for m := range t.bounds {
			sin, cos := math.Sincos((float64(m) - 0.5) * math.Pi / float64(t.diameters))
			t.bounds[m] = geom.V(cos, sin)
		}
		t.welzl = sec.Order(t.robots)
	})
	return t
}

// certify returns the sector of displacement d under reference
// direction ref when the certificate holds. It tries the sector guess
// first, when it is one (0 <= guess < 2D), then the sector of an
// approximate clockwise angle, and accepts a sector only if d clears
// both of its boundaries by the margin. Displacements whose L1 length
// in the slicer's frame lies outside [2^-1000, 2^1000] are not
// certified: zero, subnormal, NaN and ±Inf components among them.
func (t *sectorTable) certify(ref, d geom.Vec, guess int) (m int, ok bool) {
	a := d.X*ref.X + d.Y*ref.Y
	b := d.X*ref.Y - d.Y*ref.X
	x, y := math.Abs(a), math.Abs(b)
	l1 := x + y
	if !(l1 >= 0x1p-1000 && l1 <= 0x1p1000) {
		return 0, false
	}
	margin := sectorMargin * l1
	if uint(guess) < uint(2*t.diameters) && t.clears(guess, a, b, margin) {
		return guess, true
	}
	// The angle within its octant, by Abramowitz & Stegun 4.4.47
	// (|error| <= 1e-5 rad), then unfolded into [0, 2π].
	var q float64
	if y > x {
		q = x / y
	} else {
		q = y / x
	}
	q2 := q * q
	theta := q * (0.9998660 + q2*(-0.3302995+q2*(0.1801410+q2*(-0.0851330+q2*0.0208351))))
	if y > x {
		theta = math.Pi/2 - theta
	}
	if a < 0 {
		theta = math.Pi - theta
	}
	if b < 0 {
		theta = 2*math.Pi - theta
	}
	m = int(theta*t.perHalfStep + 0.5)
	if m >= 2*t.diameters {
		m -= 2 * t.diameters
	}
	if m != guess && t.clears(m, a, b, margin) {
		return m, true
	}
	return 0, false
}

// split returns the diameter and side of sector m.
func (t *sectorTable) split(m int) (k int, side sideOf) {
	if m >= t.diameters {
		return m - t.diameters, 1
	}
	return m, 0
}

// clears reports whether (a, b) lies inside sector m by the margin:
// its cross products with both of the sector's boundary directions
// exceed it.
func (t *sectorTable) clears(m int, a, b, margin float64) bool {
	lo, hi := t.bounds[m], t.bounds[m+1]
	return lo.X*b-lo.Y*a > margin && a*hi.Y-b*hi.X > margin
}

// granularRadii returns, per point, half the distance to its nearest
// neighbour — the granular radius of §3.2 (see internal/voronoi for the
// full diagrams; the radius shortcut is exact because the largest disc
// centred on a site inscribed in its Voronoi cell touches the nearest
// bisector). The computation is delegated to the spatial index, which
// is O(n) expected instead of the all-pairs O(n²) and returns values
// bit-identical to the brute-force scan.
func granularRadii(pts []geom.Point) []float64 {
	return spatial.NearestRadii(pts)
}

// quantizeDir snaps a direction to the nearest of res equally-spaced
// directions in the robot's own frame (§5's limited direction
// resolution). res <= 0 means unlimited. Length is preserved.
func quantizeDir(v geom.Vec, res int) geom.Vec {
	if res <= 0 || v.IsZero() {
		return v
	}
	step := 2 * math.Pi / float64(res)
	theta := math.Round(v.Angle()/step) * step
	s, c := math.Sincos(theta)
	return geom.V(c, s).Scale(v.Len())
}

// moveToward returns the next position when moving from cur towards
// target covering at most maxStep, arriving exactly when close enough.
func moveToward(cur, target geom.Point, maxStep float64) geom.Point {
	d := target.Sub(cur)
	if dist := d.Len(); dist > maxStep {
		return cur.Add(d.Scale(maxStep / dist))
	}
	return target
}
