// Package sec computes the smallest enclosing circle (SEC) of a planar
// point set.
//
// The paper's anonymous-naming protocol (§3.4) has every robot compute
// the SEC of the observed configuration; the SEC is unique, so all robots
// agree on its centre O, and with chirality they agree on a clockwise
// sweep around it. The paper cites Megiddo's deterministic linear-time
// algorithm; this package implements Welzl's move-to-front algorithm,
// which computes the identical circle in expected linear time (the
// substitution is recorded in DESIGN.md §3).
package sec

import (
	"errors"
	"math/rand"

	"waggle/internal/geom"
)

// ErrNoPoints is returned when the point set is empty.
var ErrNoPoints = errors.New("sec: empty point set")

// Enclosing returns the unique smallest circle containing all points.
// Degenerate inputs are handled: one point yields a zero-radius circle
// and two points yield their diameter circle.
//
// The computation is deterministic: the internal shuffle uses a fixed
// seed, so every robot computing the SEC of the same configuration gets
// bit-identical output — mirroring the paper's requirement that all
// robots agree on SEC exactly.
func Enclosing(points []geom.Point) (geom.Circle, error) {
	return EnclosingInOrder(points, Order(len(points)))
}

// Order returns the order in which Enclosing visits n points: a shuffle
// of 0..n-1 by a fixed seed. Welzl's expected-linear bound needs a
// random permutation, determinism needs a fixed seed. The order depends
// on n alone, so a caller computing the SEC of many n-point sets (every
// robot of a swarm) computes it once and passes it to EnclosingInOrder.
func Order(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(0x5EC))
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// EnclosingInOrder is Enclosing visiting points[order[0]],
// points[order[1]], ...; order must be Order(len(points)), which makes
// the circle Enclosing's, bit for bit. The caller keeps ownership of
// both slices.
func EnclosingInOrder(points []geom.Point, order []int) (geom.Circle, error) {
	n := len(points)
	if n == 0 {
		return geom.Circle{}, ErrNoPoints
	}
	pts := make([]geom.Point, n)
	for i, j := range order {
		pts[i] = points[j]
	}

	c := geom.Circle{Center: pts[0], R: 0}
	for i := 1; i < n; i++ {
		if c.Contains(pts[i]) {
			continue
		}
		c = circleWithOneBoundary(pts[:i], pts[i])
	}
	return c, nil
}

// circleWithOneBoundary returns the SEC of pts ∪ {p} with p on the
// boundary.
func circleWithOneBoundary(pts []geom.Point, p geom.Point) geom.Circle {
	c := geom.Circle{Center: p, R: 0}
	for i, q := range pts {
		if c.Contains(q) {
			continue
		}
		c = circleWithTwoBoundary(pts[:i], p, q)
	}
	return c
}

// circleWithTwoBoundary returns the SEC of pts ∪ {p, q} with p and q on
// the boundary.
func circleWithTwoBoundary(pts []geom.Point, p, q geom.Point) geom.Circle {
	c := geom.CircleFrom2(p, q)
	for _, r := range pts {
		if c.Contains(r) {
			continue
		}
		if cc, ok := geom.CircleFrom3(p, q, r); ok {
			c = cc
		}
	}
	return c
}

// Support returns the points of pts lying on the boundary of the circle
// (within tolerance). For the SEC these are the support points; there
// are always between one and len(pts) of them, and at most three
// determine the circle.
func Support(pts []geom.Point, c geom.Circle) []geom.Point {
	var out []geom.Point
	for _, p := range pts {
		if c.OnBoundary(p) {
			out = append(out, p)
		}
	}
	return out
}
