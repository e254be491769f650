package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWorldFrameIsIdentity(t *testing.T) {
	f := WorldFrame()
	p := Pt(3, -7)
	if !f.ToLocal(p).Eq(p) || !f.ToWorld(p).Eq(p) {
		t.Error("world frame must be the identity transform")
	}
}

func TestFrameTranslation(t *testing.T) {
	f := NewFrame(Pt(10, 5), 0, 1, RightHanded)
	if got := f.ToLocal(Pt(10, 5)); !got.Eq(Pt(0, 0)) {
		t.Errorf("origin maps to %v, want (0,0)", got)
	}
	if got := f.ToLocal(Pt(11, 5)); !got.Eq(Pt(1, 0)) {
		t.Errorf("ToLocal = %v, want (1,0)", got)
	}
}

func TestFrameRotation(t *testing.T) {
	// Frame whose +x axis points along world +y.
	f := NewFrame(Pt(0, 0), math.Pi/2, 1, RightHanded)
	if got := f.ToLocal(Pt(0, 1)); !got.Eq(Pt(1, 0)) {
		t.Errorf("ToLocal(world +y) = %v, want (1,0)", got)
	}
	if got := f.ToWorld(Pt(1, 0)); !got.Eq(Pt(0, 1)) {
		t.Errorf("ToWorld(local +x) = %v, want (0,1)", got)
	}
}

func TestFrameScale(t *testing.T) {
	f := NewFrame(Pt(0, 0), 0, 2, RightHanded) // one local unit = 2 world units
	if got := f.ToLocal(Pt(4, 0)); !got.Eq(Pt(2, 0)) {
		t.Errorf("ToLocal = %v, want (2,0)", got)
	}
	if got := f.ToWorld(Pt(1, 1)); !got.Eq(Pt(2, 2)) {
		t.Errorf("ToWorld = %v, want (2,2)", got)
	}
}

func TestFrameHandedness(t *testing.T) {
	right := NewFrame(Pt(0, 0), 0, 1, RightHanded)
	left := NewFrame(Pt(0, 0), 0, 1, LeftHanded)
	// World +y is local +y in a right-handed frame, local -y in a
	// left-handed frame with the same x axis.
	if got := right.ToLocal(Pt(0, 1)); !got.Eq(Pt(0, 1)) {
		t.Errorf("right-handed ToLocal = %v, want (0,1)", got)
	}
	if got := left.ToLocal(Pt(0, 1)); !got.Eq(Pt(0, -1)) {
		t.Errorf("left-handed ToLocal = %v, want (0,-1)", got)
	}
	if right.ClockwiseIsPositive() {
		t.Error("right-handed frame must not report clockwise-positive")
	}
	if !left.ClockwiseIsPositive() {
		t.Error("left-handed frame must report clockwise-positive")
	}
}

func TestFrameDefaulting(t *testing.T) {
	f := NewFrame(Pt(0, 0), 0, -3, Handedness(0))
	if f.Scale != 1 {
		t.Errorf("non-positive scale should default to 1, got %v", f.Scale)
	}
	if f.Hand != RightHanded {
		t.Errorf("unset handedness should default to right-handed, got %v", f.Hand)
	}
}

func TestVecTransforms(t *testing.T) {
	f := NewFrame(Pt(100, 100), math.Pi/2, 2, RightHanded)
	// Vectors ignore the origin.
	v := f.VecToWorld(V(1, 0))
	if !ApproxEq(v.X, 0) || !ApproxEq(v.Y, 2) {
		t.Errorf("VecToWorld = %v, want <0,2>", v)
	}
	back := f.VecToLocal(v)
	if !ApproxEq(back.X, 1) || !ApproxEq(back.Y, 0) {
		t.Errorf("VecToLocal = %v, want <1,0>", back)
	}
}

// Property: ToWorld is the inverse of ToLocal for arbitrary frames.
func TestFramePropertyRoundTrip(t *testing.T) {
	f := func(ox, oy, theta, scale, px, py float64, leftHand bool) bool {
		hand := RightHanded
		if leftHand {
			hand = LeftHanded
		}
		s := math.Abs(math.Mod(clampCoord(scale), 10)) + 0.1
		fr := NewFrame(Pt(clampCoord(ox), clampCoord(oy)), math.Mod(clampCoord(theta), 2*math.Pi), s, hand)
		p := Pt(clampCoord(px), clampCoord(py))
		rt := fr.ToWorld(fr.ToLocal(p))
		return rt.Dist(p) <= 1e-6*(1+p.Sub(fr.Origin).Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: frames with the same handedness agree on the sign of the
// cross product of observed displacement pairs (the chirality property
// used throughout the paper), regardless of rotation and scale.
func TestFramePropertyChirality(t *testing.T) {
	f := func(t1, t2, s1, s2, ax, ay, bx, by float64) bool {
		sc1 := math.Abs(math.Mod(clampCoord(s1), 10)) + 0.1
		sc2 := math.Abs(math.Mod(clampCoord(s2), 10)) + 0.1
		f1 := NewFrame(Pt(0, 0), math.Mod(clampCoord(t1), 2*math.Pi), sc1, RightHanded)
		f2 := NewFrame(Pt(5, 5), math.Mod(clampCoord(t2), 2*math.Pi), sc2, RightHanded)
		a := V(clampCoord(ax), clampCoord(ay))
		b := V(clampCoord(bx), clampCoord(by))
		if a.Len() < 1e-3 || b.Len() < 1e-3 {
			return true
		}
		c := a.Cross(b)
		if math.Abs(c) < 1e-6 {
			return true // ambiguous, skip
		}
		c1 := f1.VecToLocal(a).Cross(f1.VecToLocal(b))
		c2 := f2.VecToLocal(a).Cross(f2.VecToLocal(b))
		return (c1 > 0) == (c > 0) && (c2 > 0) == (c > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a left-handed observer sees the opposite rotation sense from
// a right-handed one.
func TestFramePropertyMirrorFlipsChirality(t *testing.T) {
	f := func(theta, ax, ay, bx, by float64) bool {
		r := NewFrame(Pt(0, 0), math.Mod(clampCoord(theta), 2*math.Pi), 1, RightHanded)
		l := NewFrame(Pt(0, 0), math.Mod(clampCoord(theta), 2*math.Pi), 1, LeftHanded)
		a := V(clampCoord(ax), clampCoord(ay))
		b := V(clampCoord(bx), clampCoord(by))
		c := a.Cross(b)
		if math.Abs(c) < 1e-6 {
			return true
		}
		cr := r.VecToLocal(a).Cross(r.VecToLocal(b))
		cl := l.VecToLocal(a).Cross(l.VecToLocal(b))
		return (cr > 0) != (cl > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refAxes, refToLocal, refToWorld, refVecToLocal and refVecToWorld are
// the per-call frame arithmetic that Basis replaced, kept as the
// reference: every transform must return the same bits.
func refAxes(f Frame) (ex, ey Vec) {
	s, c := math.Sincos(f.Theta)
	ex = Vec{X: c, Y: s}.Scale(f.scaleOr1())
	ey = ex.Perp()
	if f.Hand == LeftHanded {
		ey = ey.Neg()
	}
	return ex, ey
}

func refToLocal(f Frame, world Point) Point {
	d := world.Sub(f.Origin)
	ex, ey := refAxes(f)
	inv := 1 / (f.scaleOr1() * f.scaleOr1())
	return Point{X: d.Dot(ex) * inv, Y: d.Dot(ey) * inv}
}

func refToWorld(f Frame, local Point) Point {
	ex, ey := refAxes(f)
	return f.Origin.Add(ex.Scale(local.X)).Add(ey.Scale(local.Y))
}

func refVecToLocal(f Frame, world Vec) Vec {
	ex, ey := refAxes(f)
	inv := 1 / (f.scaleOr1() * f.scaleOr1())
	return Vec{X: world.Dot(ex) * inv, Y: world.Dot(ey) * inv}
}

func refVecToWorld(f Frame, local Vec) Vec {
	ex, ey := refAxes(f)
	return ex.Scale(local.X).Add(ey.Scale(local.Y))
}

// sameBits reports whether a and b have identical float64 bit patterns.
func sameBits(a, b Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// TestBasisMatchesPerCallArithmetic compares the four Frame transforms,
// and the same transforms through one Basis, bit for bit with the
// reference arithmetic, over random frames of both handednesses and
// scales != 1 (including the defaulted non-positive scale).
func TestBasisMatchesPerCallArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	coord := func() float64 { return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-2)) }
	for it := 0; it < 20000; it++ {
		hand := RightHanded
		if it%2 == 1 {
			hand = LeftHanded
		}
		scale := math.Exp(rng.NormFloat64())
		switch it % 50 {
		case 7:
			scale = -2 // defaulted to 1 by scaleOr1
		case 13:
			scale = 1
		}
		f := Frame{Origin: Pt(coord(), coord()), Theta: (rng.Float64() - 0.5) * 20, Scale: scale, Hand: hand}
		b := f.Basis()
		p := Pt(coord(), coord())
		v := V(coord(), coord())
		cases := []struct {
			name            string
			got, viaB, want Point
		}{
			{"ToLocal", f.ToLocal(p), b.ToLocal(p), refToLocal(f, p)},
			{"ToWorld", f.ToWorld(p), b.ToWorld(p), refToWorld(f, p)},
			{"VecToLocal", Point(f.VecToLocal(v)), Point(b.VecToLocal(v)), Point(refVecToLocal(f, v))},
			{"VecToWorld", Point(f.VecToWorld(v)), Point(b.VecToWorld(v)), Point(refVecToWorld(f, v))},
		}
		for _, c := range cases {
			if !sameBits(c.got, c.want) || !sameBits(c.viaB, c.want) {
				t.Fatalf("%s of frame %+v: Frame %#v, Basis %#v, reference %#v", c.name, f, c.got, c.viaB, c.want)
			}
		}
	}
}
