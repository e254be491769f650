package sim

import (
	"math"
	"math/rand"
	"testing"

	"waggle/internal/geom"
)

// limitedVisWorld builds a swarm of n limited-visibility robots that
// drift toward the centroid of whatever they can see — a behavior whose
// moves depend on the whole view, so any view discrepancy between the
// indexed and brute visibility paths diverges the trajectories.
func limitedVisWorld(t *testing.T, n int, visRadius float64) *World {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	pos := make([]geom.Point, n)
	robots := make([]*Robot, n)
	for i := range pos {
		pos[i] = geom.Pt(rng.Float64()*120, rng.Float64()*120)
		robots[i] = &Robot{
			Frame:     geom.WorldFrame(),
			Sigma:     0.5,
			VisRadius: visRadius,
			Behavior: BehaviorFunc(func(v View) geom.Point {
				cx, cy, seen := viewSums(v)
				return geom.Pt(cx/float64(seen), cy/float64(seen))
			}),
		}
	}
	w, err := NewWorld(Config{Positions: pos, Robots: robots})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestViewIndexParity steps two identical limited-visibility swarms —
// one with the per-step visibility grid, one forced onto the brute
// distance scan — and requires bit-identical configurations at every
// instant. The grid only culls candidates ahead of the exact
// Dist <= VisRadius predicate, so any divergence is a bug. An infinite
// sensor radius sees every robot, so its grid query must cover the
// whole grid.
func TestViewIndexParity(t *testing.T) {
	n := viewIndexMinN + 16
	for _, vis := range []float64{25, math.Inf(1)} {
		indexed := limitedVisWorld(t, n, vis)
		brute := limitedVisWorld(t, n, vis)
		brute.viewIndexOff = true
		for step := 0; step < 25; step++ {
			if _, err := indexed.Step(Synchronous{}); err != nil {
				t.Fatalf("vis %v: %v", vis, err)
			}
			if _, err := brute.Step(Synchronous{}); err != nil {
				t.Fatalf("vis %v: %v", vis, err)
			}
			if step == 0 && indexed.viewIndex == nil {
				t.Fatal("indexed world did not build the visibility grid")
			}
			if brute.viewIndex != nil {
				t.Fatal("viewIndexOff left the grid active")
			}
			for i := 0; i < n; i++ {
				if indexed.Position(i) != brute.Position(i) {
					t.Fatalf("vis %v step %d robot %d: indexed %v != brute %v",
						vis, step, i, indexed.Position(i), brute.Position(i))
				}
			}
		}
	}
}

// TestViewIndexSkippedBelowThreshold checks the small-swarm guard: under
// viewIndexMinN robots the grid rebuild costs more than it culls, so
// prepareStep must leave it nil.
func TestViewIndexSkippedBelowThreshold(t *testing.T) {
	w := limitedVisWorld(t, viewIndexMinN-1, 25)
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if w.viewIndex != nil {
		t.Error("visibility grid built below viewIndexMinN")
	}
}

// TestViewIndexSkippedUnderFullVisibility checks that fully-sighted
// swarms never pay the rebuild: the grid exists only to cull the
// limited-visibility loop.
func TestViewIndexSkippedUnderFullVisibility(t *testing.T) {
	n := viewIndexMinN + 16
	rng := rand.New(rand.NewSource(3))
	pos := make([]geom.Point, n)
	robots := make([]*Robot, n)
	for i := range pos {
		pos[i] = geom.Pt(rng.Float64()*120, rng.Float64()*120)
		robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 1, Behavior: stay()}
	}
	w, err := NewWorld(Config{Positions: pos, Robots: robots})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if w.viewIndex != nil {
		t.Error("visibility grid built for a fully-sighted swarm")
	}
}

// TestViewIndexParityParallelEngine repeats the parity check with the
// parallel step engine: the grid is rebuilt before the compute phase and
// read-only inside it, so worker goroutines must share it safely. Run
// with -race this doubles as the data-race check.
func TestViewIndexParityParallelEngine(t *testing.T) {
	n := viewIndexMinN + 16
	indexed := limitedVisWorld(t, n, 25)
	indexed.SetEngine(EngineParallel)
	brute := limitedVisWorld(t, n, 25)
	brute.viewIndexOff = true
	for step := 0; step < 10; step++ {
		if _, err := indexed.Step(Synchronous{}); err != nil {
			t.Fatal(err)
		}
		if _, err := brute.Step(Synchronous{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if indexed.Position(i) != brute.Position(i) {
				t.Fatalf("step %d robot %d: parallel-indexed %v != brute %v",
					step, i, indexed.Position(i), brute.Position(i))
			}
		}
	}
}
