package sim

import (
	"math"

	"waggle/internal/geom"
)

// sensorBand is the relative half-width δ of the band around r² inside
// which the sensor test falls back to math.Hypot. It only has to cover
// float64 rounding in the squared distance, in r² and its bounds, and in
// Hypot itself, about 11 units of 2^-53 in all (DESIGN.md §5f); 2^-40
// leaves a margin of about 700.
const sensorBand = 0x1p-40

// sensor decides the sensor predicate self.Dist(p) <= r with the same
// result as that expression, bit for bit, but calls math.Hypot only for
// points whose squared distance lies within the rounding band of r².
// Both compact-view paths use it; the dense path keeps Dist <= r, which
// is what the parity tests compare against.
type sensor struct {
	self geom.Point
	r    float64
	// lo and hi bound r²(1∓δ): a squared distance below lo is inside
	// the disc, one above hi outside. Radii outside [2^-511, 2^511],
	// where r² or a sum of two squares up to 2r² need not be a normal
	// float, get -Inf and +Inf, so every point reaches math.Hypot.
	lo, hi float64
}

func newSensor(self geom.Point, r float64) sensor {
	s := sensor{self: self, r: r, lo: math.Inf(-1), hi: math.Inf(1)}
	if r >= 0x1p-511 && r <= 0x1p511 {
		r2 := r * r
		s.lo, s.hi = r2*(1-sensorBand), r2*(1+sensorBand)
	}
	return s
}

// sees reports self.Dist(p) <= r. math.Hypot(dx, dy) is never below
// max(|dx|, |dy|), so a larger offset on either axis is outside; a NaN
// offset passes every fast test and reaches math.Hypot.
func (s *sensor) sees(p geom.Point) bool {
	dx, dy := s.self.X-p.X, s.self.Y-p.Y
	if math.Abs(dx) > s.r || math.Abs(dy) > s.r {
		return false
	}
	d2 := dx*dx + dy*dy
	if d2 < s.lo {
		return true
	}
	if d2 > s.hi {
		return false
	}
	return math.Hypot(dx, dy) <= s.r
}
