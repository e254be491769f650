package spatial

import (
	"encoding/binary"
	"math"
	"testing"

	"waggle/internal/geom"
)

// fuzzMaxPoints caps the points one fuzz input decodes to, so every
// all-pairs reference scan stays cheap.
const fuzzMaxPoints = 80

// FuzzGridQueries checks every grid query against an ascending scan on
// the same points. A point is a pair of little-endian int16s scaled by
// 2^exp, so that small coordinates give exact ties, coincident points
// and clusters at any magnitude. The query runs at one more point with
// a radius chosen by rsel: 0, the grid's cell width, +Inf, MaxFloat64
// or rmul·2^exp. The checks:
//
//   - NearestTo, excluding nothing and excluding one index, returns the
//     scan's index and distance;
//   - VisitNeighborhood reports exact distances and, filtered by d <= r,
//     accepts the scan's set;
//   - FirstCoincident reports the scan's first coincident pair;
//   - every cell lists its members once, in ascending order, and its
//     AppendCellWindow holds every point within r of each member, once.
func FuzzGridQueries(f *testing.F) {
	pt := func(xy ...int16) []byte {
		var b []byte
		for _, v := range xy {
			b = binary.LittleEndian.AppendUint16(b, uint16(v))
		}
		return b
	}
	lattice := func(n int, step int16) []byte {
		var xy []int16
		for i := 0; i < n; i++ {
			xy = append(xy, int16(i%9)*step, int16(i/9)*step)
		}
		return pt(xy...)
	}
	f.Add(lattice(64, 3), int8(0), int16(10), int16(10), uint8(2), uint16(0), uint8(5))
	f.Add(lattice(64, 3), int8(-20), int16(-4), int16(30), uint8(3), uint16(0), uint8(0))
	f.Add(lattice(80, 1), int8(40), int16(4), int16(4), uint8(1), uint16(0), uint8(9))
	f.Add(pt(0, 0, 5, 5, 0, 0, -7, 3, 5, 5), int8(0), int16(0), int16(0), uint8(4), uint16(3), uint8(1))
	f.Add(pt(100, -100, 100, -100), int8(-1), int16(100), int16(-100), uint8(0), uint16(0), uint8(0))
	f.Add([]byte{}, int8(0), int16(0), int16(0), uint8(2), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, exp int8, qx, qy int16, rsel uint8, rmul uint16, exclude uint8) {
		scale := math.Ldexp(1, int(exp))
		var pts []geom.Point
		for ; len(data) >= 4 && len(pts) < fuzzMaxPoints; data = data[4:] {
			x := int16(binary.LittleEndian.Uint16(data))
			y := int16(binary.LittleEndian.Uint16(data[2:]))
			pts = append(pts, geom.Pt(float64(x)*scale, float64(y)*scale))
		}
		g := NewGrid(pts)
		q := geom.Pt(float64(qx)*scale, float64(qy)*scale)
		var r float64
		switch rsel % 5 {
		case 0:
			r = 0
		case 1:
			r = g.cellW
		case 2:
			r = math.Inf(1)
		case 3:
			r = math.MaxFloat64
		default:
			r = float64(rmul) * scale
		}

		ex := -1
		if len(pts) > 0 {
			ex = int(exclude) % len(pts)
		}
		for _, e := range []int{-1, ex} {
			gi, gd := g.NearestTo(q, e)
			bi, bd := bruteNearest(pts, q, e)
			if gi != bi || gd != bd {
				t.Fatalf("NearestTo(%v, %d) = (%d, %v), scan (%d, %v)", q, e, gi, gd, bi, bd)
			}
		}

		in := make([]bool, len(pts))
		g.VisitNeighborhood(q, r, func(j int, d float64) {
			if d != q.Dist(pts[j]) {
				t.Fatalf("VisitNeighborhood(%v, %v): point %d at %v, exact %v", q, r, j, d, q.Dist(pts[j]))
			}
			if d <= r {
				in[j] = true
			}
		})
		for j, p := range pts {
			if want := q.Dist(p) <= r; in[j] != want {
				t.Fatalf("VisitNeighborhood(%v, %v): point %d accepted %v, scan %v", q, r, j, in[j], want)
			}
		}

		gi, gj, gok := g.FirstCoincident()
		bi, bj, bok := bruteFirstCoincident(pts)
		if gi != bi || gj != bj || gok != bok {
			t.Fatalf("FirstCoincident = (%d, %d, %v), scan (%d, %d, %v)", gi, gj, gok, bi, bj, bok)
		}

		listed := make([]int, len(pts))
		var window []int32
		seen := make([]int, len(pts))
		for c := 0; c < g.CellCount(); c++ {
			var members []int32
			g.VisitCellMembers(c, func(j int32) { members = append(members, j) })
			if len(members) == 0 {
				continue
			}
			window = g.AppendCellWindow(window[:0], c, r)
			for _, j := range window {
				if seen[j] == c+1 {
					t.Fatalf("cell %d window (r %v) holds point %d twice", c, r, j)
				}
				seen[j] = c + 1
			}
			for k, i := range members {
				if k > 0 && members[k-1] >= i {
					t.Fatalf("cell %d lists %v, not ascending", c, members)
				}
				listed[i]++
				for j, p := range pts {
					if pts[i].Dist(p) <= r && seen[j] != c+1 {
						t.Fatalf("cell %d window (r %v) misses point %d within r of member %d", c, r, j, i)
					}
				}
			}
		}
		for i, m := range listed {
			if m != 1 {
				t.Fatalf("point %d is listed in %d cells", i, m)
			}
		}
	})
}

// bruteFirstCoincident is the ascending all-pairs scan FirstCoincident
// answers for: the smallest i, then the smallest j > i, with p.Eq(q).
func bruteFirstCoincident(pts []geom.Point) (int, int, bool) {
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Eq(pts[j]) {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}
