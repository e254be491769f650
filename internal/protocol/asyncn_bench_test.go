package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"waggle/internal/geom"
	"waggle/internal/sim"
)

// viewTap records the views one robot is shown, in its init-local
// coordinates, before passing each to the robot.
type viewTap struct {
	r     *asyncNRobot
	views [][]geom.Point
}

func (v *viewTap) Step(view sim.View) geom.Point {
	if v.r.rk.initialized() {
		pts := make([]geom.Point, len(view.Points))
		for i, p := range view.Points {
			pts[i] = v.r.rk.toInit(p)
		}
		v.views = append(v.views, pts)
	}
	return v.r.Step(view)
}

// BenchmarkAsyncNObserve times one robot's receive path for one
// activation, observeAll and the change predicate, against 16 views its
// swarm showed it: n robots under the facade's scheduler, two messages
// in flight, recorded after 24 instants of warm-up. The robot replays
// the views in a loop without moving, and the row reports ns per
// observed robot, the decoder alone, without a world to step.
func BenchmarkAsyncNObserve(b *testing.B) {
	for _, n := range []int{32, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			positions := uniformPoints(rng, n, 12*float64(n))
			behaviors, endpoints, err := NewAsyncN(n, AsyncNConfig{})
			if err != nil {
				b.Fatal(err)
			}
			frames := frameSet(rng, n, false, geom.RightHanded)
			self := n / 2
			tap := &viewTap{r: behaviors[self].(*asyncNRobot)}
			robots := make([]*sim.Robot, n)
			for i := range robots {
				robots[i] = &sim.Robot{Frame: frames[i], Sigma: 1e9, Behavior: behaviors[i]}
			}
			robots[self].Behavior = tap
			w, err := sim.NewWorld(sim.Config{Positions: positions, Robots: robots})
			if err != nil {
				b.Fatal(err)
			}
			for k, from := range []int{1, n - 2} {
				if err := endpoints[from].Send(self-1+2*k, []byte{0x5E, byte(k)}); err != nil {
					b.Fatal(err)
				}
			}
			sched := sim.FirstSync{Inner: sim.NewRandomFair(int64(n))}
			for t := 0; len(tap.views) < 16 || t < 24; t++ {
				if t == 24 {
					tap.views = tap.views[:0]
				}
				if _, err := w.Step(sched); err != nil {
					b.Fatal(err)
				}
			}
			// The robot stays where its last view left it: each view
			// goes back to its current-local coordinates.
			r := tap.r
			views := make([]sim.View, len(tap.views))
			for k, pts := range tap.views {
				for i, p := range pts {
					pts[i] = r.rk.toCurrent(p)
				}
				views[k] = sim.View{Self: self, Points: pts}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.observeAll(views[i%len(views)])
				if r.allChangedTwice() {
					r.resetChanges()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n-1), "ns/robot")
			r.endpoint.Receive()
			r.endpoint.Overheard()
		})
	}
}
