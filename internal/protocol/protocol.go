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

	"waggle/internal/geom"
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
// is configured with the sender's reference direction (local North for
// sense-of-direction schemes, the SEC horizon direction for the SEC
// scheme) and the diameter count.
type slicer struct {
	ref       geom.Vec // unit reference direction (diameter 0, positive end)
	refAngle  float64  // ref.Angle(), fixed with ref
	diameters int
}

// newSlicer builds a slicer; ref must be non-zero.
func newSlicer(ref geom.Vec, diameters int) slicer {
	u := ref.Unit()
	return slicer{ref: u, refAngle: u.Angle(), diameters: diameters}
}

// direction returns the unit vector of the positive (side-0) end of
// diameter k when side is 0, or the negative end when side is 1.
// Diameters are numbered clockwise from the reference direction, spaced
// pi/diameters apart. "Clockwise" is the fixed local convention; robots
// sharing handedness agree on it (chirality).
func (s slicer) direction(k int, side sideOf) geom.Vec {
	theta := float64(k) * math.Pi / float64(s.diameters)
	if side == 1 {
		theta += math.Pi
	}
	// Clockwise rotation = negative mathematical angle.
	return s.ref.Rotate(-theta)
}

// classify maps an observed displacement to the nearest (diameter, side)
// pair. The displacement must be non-zero.
func (s slicer) classify(d geom.Vec) (k int, side sideOf) {
	// Clockwise angle of d from the reference direction.
	alpha := geom.NormalizeAngle(s.refAngle - d.Angle())
	halfStep := math.Pi / float64(s.diameters)
	m := int(math.Round(alpha/halfStep)) % (2 * s.diameters)
	if m < 0 {
		m += 2 * s.diameters
	}
	k = m % s.diameters
	if m >= s.diameters {
		side = 1
	}
	return k, side
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
