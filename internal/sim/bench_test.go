package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"waggle/internal/ckpt"
	"waggle/internal/geom"
	"waggle/internal/wire"
)

// stepN advances w by k instants under sched.
func stepN(b *testing.B, w *World, sched Scheduler, k int) {
	b.Helper()
	for i := 0; i < k; i++ {
		if _, err := w.Step(sched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLimitedVisStep times one synchronous instant of a stationary
// 512-robot swarm on a 2n square (seed 15) whose sensors reach r = 40:
// views culled through the per-step visibility grid (grid) or by the
// sensor scan over every robot (brute, viewIndexOff).
func BenchmarkLimitedVisStep(b *testing.B) {
	const n = 512
	for _, name := range []string{"grid", "brute"} {
		b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(15))
			pos := make([]geom.Point, n)
			robots := make([]*Robot, n)
			for i := range pos {
				pos[i] = geom.Pt(rng.Float64()*2*n, rng.Float64()*2*n)
				robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 1, VisRadius: 40, Behavior: stay()}
			}
			w, err := NewWorld(Config{Positions: pos, Robots: robots})
			if err != nil {
				b.Fatal(err)
			}
			w.viewIndexOff = name == "brute"
			stepN(b, w, Synchronous{}, 1) // allocates the reusable buffers
			b.ReportAllocs()
			b.ResetTimer()
			stepN(b, w, Synchronous{}, b.N)
		})
	}
}

// centroidDrift walks a tenth of the way to the centroid of the robots
// it sees, itself included; viewSums makes both view shapes step one
// trajectory.
func centroidDrift(v View) geom.Point {
	cx, cy, n := viewSums(v)
	return geom.Pt(cx/float64(n)*0.1, cy/float64(n)*0.1)
}

// blockScheduler activates a rotating block of size robots per instant.
type blockScheduler struct{ size int }

func (s blockScheduler) Next(t, n int) []int {
	size := min(s.size, n)
	out := make([]int, size)
	start := (t * size) % n
	for k := range out {
		out[k] = (start + k) % n
	}
	return out
}

// scaleWorld builds the swarm of the scale benchmarks: n centroid
// drifters with r = 25 and σ = 0.5, uniform on a 10√n square (seed
// 23+n), so about 20 robots sit in each sensor disc at every n; the
// parallel engine is forced, as on a multi-core host.
func scaleWorld(b *testing.B, n int, compact bool) *World {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(23 + n)))
	side := math.Sqrt(float64(n)) * 10
	pos := make([]geom.Point, n)
	robots := make([]*Robot, n)
	for i := range pos {
		pos[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 0.5, VisRadius: 25, Behavior: BehaviorFunc(centroidDrift)}
	}
	w, err := NewWorld(Config{Positions: pos, Robots: robots, Engine: EngineParallel})
	if err != nil {
		b.Fatal(err)
	}
	w.SetCompactViews(compact)
	return w
}

// BenchmarkStepScale times one instant of the scale swarm after a
// warm-up: sync activates every robot, sparse a rotating 5% block; the
// grid is rebuilt before every instant of either. Compact
// views run at every size; dense views only at n=10000, for time: their
// buffers are per worker, but each dense view still costs O(n) to build,
// so a synchronous dense instant is O(n²), about 100 times the n=10000
// row's time at n=100000.
func BenchmarkStepScale(b *testing.B) {
	for _, sz := range []struct{ n, warm int }{{10_000, 3}, {100_000, 2}, {1_000_000, 1}} {
		for _, v := range []struct {
			name            string
			sparse, compact bool
		}{{"sync/compact", false, true}, {"sync/dense", false, false}, {"sparse/compact", true, true}, {"sparse/dense", true, false}} {
			if !v.compact && sz.n > 10_000 {
				continue
			}
			var sched Scheduler = Synchronous{}
			if v.sparse {
				sched = blockScheduler{size: sz.n/20 + 1}
			}
			b.Run(fmt.Sprintf("%s/n=%d", v.name, sz.n), func(b *testing.B) {
				w := scaleWorld(b, sz.n, v.compact)
				stepN(b, w, sched, sz.warm)
				b.ResetTimer()
				stepN(b, w, sched, b.N)
			})
		}
	}
}

// streamTap appends each instant to a waggle-stream/v1 writer with the
// facade's keyframe cadence, as waggle.StreamWriter does; the scale
// swarm never teleports, so every record is a step.
type streamTap struct {
	w        *wire.StreamWriter
	world    *World
	moves    []wire.StreamMove
	sinceKey int
	err      error
}

// attachStream opens a stream at path and taps w into it, starting
// with the attach-time keyframe.
func attachStream(b *testing.B, w *World, path string) *streamTap {
	b.Helper()
	sw, err := wire.OpenStream(path, w.N())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sw.Close() })
	t := &streamTap{w: sw, world: w}
	if err := sw.AppendKeyframe(0, t.positions(), 0, ""); err != nil {
		b.Fatal(err)
	}
	w.SetStreamSink(t)
	return t
}

func (t *streamTap) positions() []ckpt.XY {
	out := make([]ckpt.XY, t.world.N())
	for i, p := range t.world.Positions() {
		out[i] = ckpt.XY{X: p.X, Y: p.Y}
	}
	return out
}

func (t *streamTap) EndStep(tm int, active []int) {
	t.moves = t.moves[:0]
	for _, m := range t.world.Record().Moves {
		t.moves = append(t.moves, wire.StreamMove{Robot: m.Robot, To: ckpt.XY{X: m.To.X, Y: m.To.Y}})
	}
	t.err = errors.Join(t.err, t.w.AppendStep(tm, t.moves, active, nil, nil))
	if t.sinceKey++; t.sinceKey >= wire.StreamKeyframeEvery {
		t.sinceKey = 0
		t.err = errors.Join(t.err, t.w.AppendKeyframe(tm+1, t.positions(), 0, ""))
	}
}

// sync flushes the tap's writer, failing b on any append error.
func (t *streamTap) sync(b *testing.B) {
	b.Helper()
	if err := errors.Join(t.err, t.w.Sync()); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStreamStep times one synchronous instant of the scale swarm
// bare (off) and with a stream writer tapping it (on): the same world
// and trajectory, so the difference is the tap. An on row reports the
// stream bytes appended per instant and fails unless its stream decodes
// with no torn tail to one step record per stepped instant.
func BenchmarkStreamStep(b *testing.B) {
	for _, sz := range []struct{ n, warm int }{{10_000, 5}, {100_000, 3}, {1_000_000, 1}} {
		for _, name := range []string{"off", "on"} {
			b.Run(fmt.Sprintf("%s/n=%d", name, sz.n), func(b *testing.B) {
				w := scaleWorld(b, sz.n, true)
				if name == "off" {
					stepN(b, w, Synchronous{}, sz.warm)
					b.ResetTimer()
					stepN(b, w, Synchronous{}, b.N)
					return
				}
				path := filepath.Join(b.TempDir(), "bench.wstream")
				tap := attachStream(b, w, path)
				stepN(b, w, Synchronous{}, sz.warm)
				start := tap.w.Offset()
				b.ResetTimer()
				stepN(b, w, Synchronous{}, b.N)
				b.StopTimer()
				tap.sync(b)
				b.ReportMetric(float64(tap.w.Offset()-start)/float64(b.N), "stream-B/step")
				data, err := os.ReadFile(path)
				if err != nil {
					b.Fatal(err)
				}
				recs, torn, err := wire.DecodeStream(data)
				if err != nil || torn {
					b.Fatalf("recorded stream does not decode cleanly (torn=%v): %v", torn, err)
				}
				steps := 0
				for _, rec := range recs {
					if rec.Kind == wire.StreamStep {
						steps++
					}
				}
				if want := b.N + sz.warm; steps != want {
					b.Fatalf("stream holds %d step records, want %d", steps, want)
				}
			})
		}
	}
}

// BenchmarkSpectateJoin times a spectator joining a recorded stream at
// its latest keyframe: read the file, locate the keyframe, decode the
// tail (os.ReadFile + wire.TailStream(-1)). The stream holds 600
// synchronous instants of a 1000-robot scale swarm, so with a keyframe
// every 256 instants a join decodes about 90 records.
func BenchmarkSpectateJoin(b *testing.B) {
	const n, steps = 1000, 600
	w := scaleWorld(b, n, true)
	path := filepath.Join(b.TempDir(), "join.wstream")
	tap := attachStream(b, w, path)
	stepN(b, w, Synchronous{}, steps)
	tap.sync(b)
	records := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		recs, _, _, err := wire.TailStream(data, -1, 0)
		if err != nil {
			b.Fatal(err)
		}
		records = len(recs)
	}
	b.StopTimer()
	if records == 0 || records > steps+2 {
		b.Fatalf("join decoded %d records from a %d-step stream, want a keyframe and a short tail", records, steps)
	}
	b.ReportMetric(float64(records), "records")
}
