package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"waggle/internal/geom"
)

// slotBehavior reads everything a compact view carries: each point is
// weighted by its slot and its robot's ID, and the step depends on the
// view's size, so a reordered, missing, extra or mistransformed point
// moves the robot.
type slotBehavior struct{ calls int }

func (b *slotBehavior) Step(v View) geom.Point {
	b.calls++
	var cx, cy, wsum float64
	for k, p := range v.Points {
		wt := float64(k+1) + float64(v.IDs[k]%7)
		cx += wt * p.X
		cy += wt * p.Y
		wsum += wt
	}
	a := float64(b.calls)*0.9 + float64(len(v.Points))*0.37
	return geom.Pt(cx/wsum+math.Cos(a), cy/wsum+math.Sin(a))
}

// compactDigestWorld builds 2000 identified robots on a uniform square
// at about 20 robots per sensor disc, with frames of random rotation,
// scale != 1 and both handednesses, and compact views on.
func compactDigestWorld(t *testing.T, mode EngineMode) *World {
	t.Helper()
	const n, vis = 2000, 25.0
	rng := rand.New(rand.NewSource(2024))
	side := math.Sqrt(n) * 10
	positions := make([]geom.Point, n)
	robots := make([]*Robot, n)
	for i := range positions {
		positions[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		hand := geom.RightHanded
		if rng.Intn(2) == 1 {
			hand = geom.LeftHanded
		}
		scale := 0.25 + rng.Float64()*3
		robots[i] = &Robot{
			Frame:     geom.NewFrame(geom.Point{}, rng.Float64()*2*math.Pi, scale, hand),
			Sigma:     0.5,
			VisRadius: vis,
			Behavior:  &slotBehavior{},
		}
	}
	w, err := NewWorld(Config{Positions: positions, Robots: robots, Identified: true, Engine: mode})
	if err != nil {
		t.Fatal(err)
	}
	w.SetCompactViews(true)
	return w
}

// positionDigest is the SHA-256 of every position's float bits.
func positionDigest(w *World) string {
	h := sha256.New()
	var buf [16]byte
	for i := 0; i < w.N(); i++ {
		p := w.Position(i)
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compactDigest is TestCompactDigest's position digest as computed before
// the batched kernel gained row-run gathers, frame bases, the sensor test
// and the key sort. The parity tests compare compact with dense views
// inside one build, so a change that moved both paths the same way would
// pass them; this constant does not move.
const compactDigest = "f8f2bfbf2d15624d2c7f535d86ce1a3f0f8ebb838ccd15065a1f401e4ddae06b"

// TestCompactDigest pins the batched compact path's output bits over
// Synchronous instants, which move every robot, and sparse RandomFair
// instants, which move a few percent; the grid is rebuilt before each.
// Before each sparse instant one robot is teleported far from where it
// stood.
func TestCompactDigest(t *testing.T) {
	const k = 6
	for _, mode := range []EngineMode{EngineSequential, EngineParallel} {
		w := compactDigestWorld(t, mode)
		for s := 0; s < k; s++ {
			if _, err := w.Step(Synchronous{}); err != nil {
				t.Fatal(err)
			}
		}
		sched := NewRandomFair(5)
		sched.P = 0.03
		for s := 0; s < k; s++ {
			if err := w.Teleport(s*331, geom.Pt(float64(s+1)*61, float64(k-s)*53)); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Step(sched); err != nil {
				t.Fatal(err)
			}
		}
		if !w.viewIndexActive {
			t.Fatalf("%v: the sparse instants did not run over the grid", mode)
		}
		if got := positionDigest(w); got != compactDigest {
			t.Errorf("%v: position digest %s, want %s", mode, got, compactDigest)
		}
	}
}
