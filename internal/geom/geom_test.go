package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	tests := []struct {
		name string
		got  Point
		want Point
	}{
		{"add", Pt(1, 2).Add(V(3, -1)), Pt(4, 1)},
		{"mid", Pt(0, 0).Mid(Pt(4, 6)), Pt(2, 3)},
		{"lerp0", Pt(1, 1).Lerp(Pt(5, 5), 0), Pt(1, 1)},
		{"lerp1", Pt(1, 1).Lerp(Pt(5, 5), 1), Pt(5, 5)},
		{"lerpHalf", Pt(0, 0).Lerp(Pt(2, 4), 0.5), Pt(1, 2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !tt.got.Eq(tt.want) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64
	}{
		{"same", Pt(1, 1), Pt(1, 1), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"345", Pt(0, 0), Pt(3, 4), 5},
		{"negative", Pt(-1, -1), Pt(2, 3), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Dist(tt.b); !ApproxEq(got, tt.want) {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVecOps(t *testing.T) {
	if got := V(1, 2).Dot(V(3, 4)); !ApproxEq(got, 11) {
		t.Errorf("Dot = %v, want 11", got)
	}
	if got := V(1, 0).Cross(V(0, 1)); !ApproxEq(got, 1) {
		t.Errorf("Cross = %v, want 1", got)
	}
	if got := V(0, 1).Cross(V(1, 0)); !ApproxEq(got, -1) {
		t.Errorf("Cross = %v, want -1", got)
	}
	if got := V(3, 4).Len(); !ApproxEq(got, 5) {
		t.Errorf("Len = %v, want 5", got)
	}
	u := V(10, 0).Unit()
	if !ApproxEq(u.X, 1) || !ApproxEq(u.Y, 0) {
		t.Errorf("Unit = %v, want <1,0>", u)
	}
	if !V(0, 0).Unit().IsZero() {
		t.Error("Unit of zero vector should be zero")
	}
}

func TestPerpAndRotate(t *testing.T) {
	p := V(1, 0).Perp()
	if !ApproxEq(p.X, 0) || !ApproxEq(p.Y, 1) {
		t.Errorf("Perp(<1,0>) = %v, want <0,1>", p)
	}
	r := V(1, 0).Rotate(math.Pi / 2)
	if !ApproxEq(r.X, 0) || !ApproxEq(r.Y, 1) {
		t.Errorf("Rotate 90 = %v, want <0,1>", r)
	}
	r = V(1, 0).Rotate(math.Pi)
	if !ApproxEq(r.X, -1) || !ApproxEq(r.Y, 0) {
		t.Errorf("Rotate 180 = %v, want <-1,0>", r)
	}
}

func TestOrientation(t *testing.T) {
	tests := []struct {
		name    string
		a, b, c Point
		want    int
	}{
		{"ccw", Pt(0, 0), Pt(1, 0), Pt(0, 1), 1},
		{"cw", Pt(0, 0), Pt(0, 1), Pt(1, 0), -1},
		{"collinear", Pt(0, 0), Pt(1, 1), Pt(2, 2), 0},
		{"collinear reversed", Pt(2, 2), Pt(1, 1), Pt(0, 0), 0},
		{"large ccw", Pt(0, 0), Pt(1e6, 0), Pt(1e6, 1e6), 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Orientation(tt.a, tt.b, tt.c); got != tt.want {
				t.Errorf("Orientation = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestNormalizeAngle(t *testing.T) {
	tests := []struct {
		give, want float64
	}{
		{0, 0},
		{2 * math.Pi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
		{-4 * math.Pi, 0},
	}
	for _, tt := range tests {
		if got := NormalizeAngle(tt.give); !ApproxEq(got, tt.want) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, 0, 0},
		{0, math.Pi, math.Pi},
		{0.1, 2*math.Pi - 0.1, 0.2},
		{math.Pi / 2, -math.Pi / 2, math.Pi},
	}
	for _, tt := range tests {
		if got := AngleDiff(tt.a, tt.b); !ApproxEq(got, tt.want) {
			t.Errorf("AngleDiff(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestCentroid(t *testing.T) {
	c := Centroid([]Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)})
	if !c.Eq(Pt(1, 1)) {
		t.Errorf("Centroid = %v, want (1,1)", c)
	}
}

// Property: rotating a vector preserves its length, and rotating by theta
// then -theta is the identity.
func TestRotatePropertyPreservesLength(t *testing.T) {
	f := func(x, y, theta float64) bool {
		x, y = clampCoord(x), clampCoord(y)
		theta = math.Mod(theta, 2*math.Pi)
		v := V(x, y)
		r := v.Rotate(theta)
		if !ApproxEq(v.Len(), r.Len()) {
			return false
		}
		back := r.Rotate(-theta)
		return back.Sub(v).Len() <= 1e-6*(1+v.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dist is a metric — symmetric and satisfies the triangle
// inequality.
func TestDistPropertyMetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(clampCoord(ax), clampCoord(ay))
		b := Pt(clampCoord(bx), clampCoord(by))
		c := Pt(clampCoord(cx), clampCoord(cy))
		if !ApproxEq(a.Dist(b), b.Dist(a)) {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cross product is antisymmetric.
func TestCrossPropertyAntisymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := V(clampCoord(ax), clampCoord(ay))
		b := V(clampCoord(bx), clampCoord(by))
		return ApproxEq(a.Cross(b), -b.Cross(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampCoord maps an arbitrary quick-generated float into a sane
// simulation coordinate range, discarding NaN/Inf.
func clampCoord(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e3)
}

func TestStringers(t *testing.T) {
	if got := Pt(1, 2).String(); got != "(1, 2)" {
		t.Errorf("Point.String = %q", got)
	}
	if got := V(1, 2).String(); got != "<1, 2>" {
		t.Errorf("Vec.String = %q", got)
	}
	if RightHanded.String() != "right-handed" || LeftHanded.String() != "left-handed" {
		t.Error("Handedness strings wrong")
	}
	if got := Handedness(9).String(); got != "Handedness(9)" {
		t.Errorf("unknown handedness = %q", got)
	}
}

func TestVecAngle(t *testing.T) {
	if got := V(0, 1).Angle(); !ApproxEq(got, math.Pi/2) {
		t.Errorf("Angle = %v", got)
	}
	if got := V(-1, 0).Angle(); !ApproxEq(got, math.Pi) {
		t.Errorf("Angle = %v", got)
	}
}

func TestCircleArea(t *testing.T) {
	c := Circle{Center: Pt(0, 0), R: 2}
	if !ApproxEq(c.Area(), 4*math.Pi) {
		t.Errorf("Area = %v", c.Area())
	}
}

func TestFrameWithOrigin(t *testing.T) {
	f := NewFrame(Pt(1, 1), 0, 2, RightHanded).WithOrigin(Pt(9, 9))
	if !f.Origin.Eq(Pt(9, 9)) || f.Scale != 2 {
		t.Errorf("WithOrigin = %+v", f)
	}
}
