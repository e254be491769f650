package geom

import "math"

// bandWidth is the relative half-width δ of the band around r² inside
// which Band falls back to math.Hypot. It only has to cover float64
// rounding in the squared length, in r² and its bounds, and in Hypot
// itself, about 11 units of 2^-53 in all (DESIGN.md §5f); 2^-40 leaves a
// margin of about 700.
const bandWidth = 0x1p-40

// Band is the exact length test against a radius r: Within(dx, dy)
// returns what math.Hypot(dx, dy) <= r returns and Beyond(dx, dy) what
// math.Hypot(dx, dy) > r returns, bit for bit, NaN included, but both
// call math.Hypot only for offsets whose squared length lies within the
// rounding band of r². So p.Dist(q) <= r is
// NewBand(r).Within(p.X-q.X, p.Y-q.Y) and v.Len() <= r is
// NewBand(r).Within(v.X, v.Y). The compact views' sensor discs and the
// protocols' movement thresholds all decide through it.
type Band struct {
	r float64
	// lo and hi bound r²(1∓δ): a squared length below lo is within r,
	// one above hi beyond it. Radii outside [2^-511, 2^511], where r²
	// need not be a normal float, get -Inf and +Inf, so every offset
	// reaches math.Hypot.
	lo, hi float64
}

// NewBand returns the length test against r.
func NewBand(r float64) Band {
	if r >= 0x1p-511 && r <= 0x1p511 {
		return Band{r: r, lo: r * r * (1 - bandWidth), hi: r * r * (1 + bandWidth)}
	}
	return Band{r: r, lo: math.Inf(-1), hi: math.Inf(1)}
}

// Fast is the test without math.Hypot, small enough to inline into a
// loop: decided is false only inside the band, for a NaN squared length
// and for radii outside the fast range, where the caller asks Within
// or Beyond instead; otherwise within is the answer. A squared length
// that overflows is +Inf and so beyond any radius in the fast range.
func (b Band) Fast(dx, dy float64) (within, decided bool) {
	d2 := dx*dx + dy*dy
	return d2 < b.lo, d2 < b.lo || d2 > b.hi
}

// Within reports math.Hypot(dx, dy) <= r.
func (b Band) Within(dx, dy float64) bool {
	if within, ok := b.Fast(dx, dy); ok {
		return within
	}
	return math.Hypot(dx, dy) <= b.r
}

// Beyond reports math.Hypot(dx, dy) > r: the negation of Within except
// for a NaN length, which is neither.
func (b Band) Beyond(dx, dy float64) bool {
	if within, ok := b.Fast(dx, dy); ok {
		return !within
	}
	return math.Hypot(dx, dy) > b.r
}
