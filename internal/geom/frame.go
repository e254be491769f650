package geom

import (
	"fmt"
	"math"
)

// Handedness is the orientation of a coordinate frame's y axis relative
// to its x axis. The paper's chirality assumption is that all robots
// share the same handedness.
type Handedness int

const (
	// RightHanded means the +y axis is 90° counterclockwise of +x.
	RightHanded Handedness = iota + 1
	// LeftHanded means the +y axis is 90° clockwise of +x.
	LeftHanded
)

// String implements fmt.Stringer.
func (h Handedness) String() string {
	switch h {
	case RightHanded:
		return "right-handed"
	case LeftHanded:
		return "left-handed"
	default:
		return fmt.Sprintf("Handedness(%d)", int(h))
	}
}

// Frame is a robot's private x-y Cartesian coordinate system: an origin
// in the world, an orientation for the +x axis, a unit of measure, and a
// handedness. Every observation a robot makes is expressed in its frame;
// every move it computes is mapped back to the world through it.
//
// The world itself is, by convention, a right-handed frame with scale 1,
// rotation 0, origin (0,0).
type Frame struct {
	Origin Point
	// Theta is the world polar angle of the frame's +x axis, in radians.
	Theta float64
	// Scale is the length, in world units, of one local unit. Must be
	// positive.
	Scale float64
	// Hand is the frame's handedness.
	Hand Handedness
}

// WorldFrame returns the canonical world frame.
func WorldFrame() Frame {
	return Frame{Scale: 1, Hand: RightHanded}
}

// NewFrame returns a frame with the given parameters, defaulting a
// non-positive scale to 1 and an unset handedness to right-handed.
func NewFrame(origin Point, theta, scale float64, hand Handedness) Frame {
	if scale <= 0 {
		scale = 1
	}
	if hand != LeftHanded {
		hand = RightHanded
	}
	return Frame{Origin: origin, Theta: theta, Scale: scale, Hand: hand}
}

func (f Frame) scaleOr1() float64 {
	if f.Scale <= 0 {
		return 1
	}
	return f.Scale
}

// Basis is a frame's transform evaluated once: its origin, the
// world-space vectors of one local unit along its x and y axes, and the
// inverse squared scale. Mapping many points through one frame with a
// Basis costs one Sincos in all instead of one per point; the Frame
// transforms delegate to it, so both give the same bits.
type Basis struct {
	origin Point
	ex, ey Vec
	inv    float64
}

// Basis evaluates the frame's transform.
func (f Frame) Basis() Basis {
	s, c := math.Sincos(f.Theta)
	ex := Vec{X: c, Y: s}.Scale(f.scaleOr1())
	ey := ex.Perp()
	if f.Hand == LeftHanded {
		ey = ey.Neg()
	}
	return Basis{origin: f.Origin, ex: ex, ey: ey, inv: 1 / (f.scaleOr1() * f.scaleOr1())}
}

// ToLocal maps a world point into the frame's coordinates.
func (b Basis) ToLocal(world Point) Point {
	d := world.Sub(b.origin)
	return Point{X: d.Dot(b.ex) * b.inv, Y: d.Dot(b.ey) * b.inv}
}

// ToWorld maps a local point into world coordinates.
func (b Basis) ToWorld(local Point) Point {
	return b.origin.Add(b.ex.Scale(local.X)).Add(b.ey.Scale(local.Y))
}

// VecToLocal maps a world displacement into the frame.
func (b Basis) VecToLocal(world Vec) Vec {
	return Vec{X: world.Dot(b.ex) * b.inv, Y: world.Dot(b.ey) * b.inv}
}

// VecToWorld maps a local displacement into the world.
func (b Basis) VecToWorld(local Vec) Vec {
	return b.ex.Scale(local.X).Add(b.ey.Scale(local.Y))
}

// ToLocal maps a world point into the frame's coordinates.
func (f Frame) ToLocal(world Point) Point { return f.Basis().ToLocal(world) }

// ToWorld maps a local point into world coordinates.
func (f Frame) ToWorld(local Point) Point { return f.Basis().ToWorld(local) }

// VecToLocal maps a world displacement into the frame.
func (f Frame) VecToLocal(world Vec) Vec { return f.Basis().VecToLocal(world) }

// VecToWorld maps a local displacement into the world.
func (f Frame) VecToWorld(local Vec) Vec { return f.Basis().VecToWorld(local) }

// WithOrigin returns a copy of the frame translated to the given world
// origin. Robots carry their frame with them as they move.
func (f Frame) WithOrigin(origin Point) Frame {
	f.Origin = origin
	return f
}

// ClockwiseIsPositive reports whether increasing polar angle in this
// frame corresponds to the world's clockwise direction. Two frames with
// equal handedness always agree on the answer relative to their own
// axes, which is exactly the chirality property the paper's protocols
// exploit.
func (f Frame) ClockwiseIsPositive() bool { return f.Hand == LeftHanded }
