package waggle

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"waggle/internal/figures"
	"waggle/internal/sim"
)

// The paper has no measured tables — it is a brief announcement with
// six illustrative figures and asymptotic claims. Each benchmark below
// regenerates one figure-scenario (F1-F6) or quantitative claim (C1-C8)
// from DESIGN.md's experiment index; EXPERIMENTS.md records the
// resulting shapes next to the paper's statements.

// benchPositions delegates to the shared grid-backed placement helper
// (figures.RandomConfiguration, built on spatial.Placer) so generating a
// benchmark configuration costs O(n) expected instead of O(n²): min
// separation 8 on a side that grows with n, same as the sweep harness.
func benchPositions(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	gpts := figures.RandomConfiguration(rng, n, float64(n)*12, 8)
	pts := make([]Point, n)
	for i, p := range gpts {
		pts[i] = Point{X: p.X, Y: p.Y}
	}
	return pts
}

func deliverOne(b *testing.B, pts []Point, payload []byte, opts ...Option) int {
	b.Helper()
	s, err := NewSwarm(pts, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Send(0, s.N()-1, payload); err != nil {
		b.Fatal(err)
	}
	msgs, steps, err := s.RunUntilDelivered(1, 50_000_000)
	if err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(msgs[0].Payload, payload) {
		b.Fatal("payload corrupted")
	}
	return steps
}

// BenchmarkFig1Sync2 is experiment F1: the two-robot synchronous coding
// of Figure 1.
func BenchmarkFig1Sync2(b *testing.B) {
	pts := []Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	payload := []byte("FIG1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		steps := deliverOne(b, pts, payload, WithSynchronous(), WithSeed(1))
		b.ReportMetric(float64(steps), "instants/msg")
	}
}

// BenchmarkFig2SyncIDs is experiment F2: Figure 2's 12 identified
// robots; robot 0 sends across the swarm through sliced granulars.
func BenchmarkFig2SyncIDs(b *testing.B) {
	pts := benchPositions(12, 2)
	payload := []byte("FIG2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		steps := deliverOne(b, pts, payload, WithSynchronous(), WithIdentifiedRobots(), WithSeed(2))
		b.ReportMetric(float64(steps), "instants/msg")
	}
}

// BenchmarkFig3SymmetryCheck is experiment F3: certifying a Figure-3
// configuration (symmetry detection is the naming-impossibility test).
func BenchmarkFig3SymmetryCheck(b *testing.B) {
	// The check itself lives in internal/naming; here we measure the
	// public-path consequence: an anonymous chirality-only swarm still
	// communicates on a symmetric configuration via relative naming.
	pts := []Point{{X: 3, Y: 1}, {X: 1, Y: 4}, {X: -2, Y: 2}, {X: -3, Y: -1}, {X: -1, Y: -4}, {X: 2, Y: -2}}
	for i := range pts {
		pts[i].X *= 8
		pts[i].Y *= 8
	}
	payload := []byte("F3")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		steps := deliverOne(b, pts, payload, WithSynchronous(), WithSeed(3))
		b.ReportMetric(float64(steps), "instants/msg")
	}
}

// BenchmarkFig4SECNaming is experiment F4: anonymous robots, chirality
// only — addressing via the smallest-enclosing-circle relative naming.
func BenchmarkFig4SECNaming(b *testing.B) {
	pts := benchPositions(12, 4)
	payload := []byte("FIG4")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		steps := deliverOne(b, pts, payload, WithSynchronous(), WithSeed(4))
		b.ReportMetric(float64(steps), "instants/msg")
	}
}

// BenchmarkSECNamingScale runs the facade default, AsyncN under SEC
// naming (chirality only), as the swarm grows: a seed-7 placement on a
// 12n square, 3n instants, then 4 unicasts until delivered. The first
// instant is every robot's first activation, which builds the robot's
// naming of every other robot (DESIGN.md §5n). It reports that instant,
// the mean instant over the 3n, the live heap after them, the instants
// the 4 unicasts take and the Go runtime's Sys at the end. One n=1024
// iteration takes about a minute: run it with -benchtime 1x.
func BenchmarkSECNamingScale(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := benchPositions(n, 7)
			for i := 0; i < b.N; i++ {
				s, err := NewSwarm(pts, WithSeed(7))
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				var first time.Duration
				for t := 0; t < 3*n; t++ {
					if err := s.Step(); err != nil {
						b.Fatal(err)
					}
					if t == 0 {
						first = time.Since(start)
					}
				}
				warmup := time.Since(start)
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				heap := ms.HeapAlloc
				rng := rand.New(rand.NewSource(7))
				for k := 0; k < 4; k++ {
					from, to := rng.Intn(n), rng.Intn(n-1)
					if to >= from {
						to++
					}
					if err := s.Send(from, to, []byte{byte(k), 0x5E, 0xC0, 0xDE}); err != nil {
						b.Fatal(err)
					}
				}
				_, steps, err := s.RunUntilDelivered(4, 1_000_000)
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(first.Microseconds())/1e3, "first_instant_ms")
				b.ReportMetric(float64(warmup.Microseconds())/1e3/float64(3*n), "warmup_ms/instant")
				b.ReportMetric(float64(heap)/(1<<20), "heap_MiB")
				b.ReportMetric(float64(steps), "deliver_instants")
				b.ReportMetric(float64(ms.Sys)/(1<<20), "sys_MiB")
			}
		})
	}
}

// BenchmarkFig5Async2 is experiment F5: the two-robot asynchronous
// protocol with implicit acknowledgements.
func BenchmarkFig5Async2(b *testing.B) {
	pts := []Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	payload := []byte("FIG5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		steps := deliverOne(b, pts, payload, WithSeed(5))
		b.ReportMetric(float64(steps), "instants/msg")
	}
}

// BenchmarkFig6AsyncN is experiment F6: Protocol Asyncn with the idle
// slice κ, across swarm sizes.
func BenchmarkFig6AsyncN(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := benchPositions(n, 6)
			payload := []byte("F6")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				steps := deliverOne(b, pts, payload, WithSeed(6))
				b.ReportMetric(float64(steps), "instants/msg")
			}
		})
	}
}

// BenchmarkClaimLevelCoding is experiment C3: k amplitude levels carry
// log2(k) bits per excursion (§3.1 remark).
func BenchmarkClaimLevelCoding(b *testing.B) {
	pts := []Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	payload := bytes.Repeat([]byte{0xA7}, 16)
	for _, k := range []int{2, 16, 256} {
		b.Run(fmt.Sprintf("levels=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				steps := deliverOne(b, pts, payload, WithSynchronous(), WithLevels(k), WithSeed(7))
				b.ReportMetric(float64(steps), "instants/msg")
			}
		})
	}
}

// BenchmarkClaimSliceTradeoff is experiment C4: §5's bounded-slice
// variant trades granular slices for prelude excursions.
func BenchmarkClaimSliceTradeoff(b *testing.B) {
	pts := benchPositions(16, 8)
	payload := []byte{0x5C}
	variants := map[string][]Option{
		"direct":    nil,
		"bounded-2": {WithBoundedSlices(2)},
		"bounded-4": {WithBoundedSlices(4)},
	}
	for name, extra := range variants {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				steps := deliverOne(b, pts, payload, append(extra, WithSeed(8))...)
				b.ReportMetric(float64(steps), "instants/msg")
			}
		})
	}
}

// BenchmarkClaimDrift is experiment C6: the unbounded-drift base
// protocol versus the bounded alternating variant.
func BenchmarkClaimDrift(b *testing.B) {
	pts := []Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	payload := []byte("DRIFT")
	for name, extra := range map[string][]Option{
		"away":      nil,
		"alternate": {WithAlternatingDrift()},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				steps := deliverOne(b, pts, payload, append(extra, WithSeed(9))...)
				b.ReportMetric(float64(steps), "instants/msg")
			}
		})
	}
}

// BenchmarkClaimBackup is experiment C8: wireless backup under total
// jamming — all traffic falls over to movement signalling.
func BenchmarkClaimBackup(b *testing.B) {
	pts := benchPositions(4, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSwarm(pts, WithSynchronous(), WithSeed(10))
		if err != nil {
			b.Fatal(err)
		}
		radio := NewRadio(s.N(), 1)
		if err := radio.SetJamming(1); err != nil { // fully jammed
			b.Fatal(err)
		}
		bm, err := NewBackupMessenger(radio, s)
		if err != nil {
			b.Fatal(err)
		}
		if err := bm.Send(0, 2, []byte("J")); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.RunUntilDelivered(1, 50_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClaimLatencyScaling is the Latency sweep under testing.B:
// synchronous delivery cost is independent of n; asynchronous cost
// grows with n (every bit waits for 2 observed changes of every robot).
func BenchmarkClaimLatencyScaling(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		pts := benchPositions(n, int64(n))
		b.Run(fmt.Sprintf("sync/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				steps := deliverOne(b, pts, []byte{1}, WithSynchronous(), WithSeed(int64(n)))
				b.ReportMetric(float64(steps), "instants/msg")
			}
		})
		b.Run(fmt.Sprintf("async/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				steps := deliverOne(b, pts, []byte{1}, WithSeed(int64(n)))
				b.ReportMetric(float64(steps), "instants/msg")
			}
		})
	}
}

// BenchmarkSimulatorStep isolates the simulator's per-instant cost, the
// substrate every experiment pays.
func BenchmarkSimulatorStep(b *testing.B) {
	for _, n := range []int{2, 16, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, err := NewSwarm(benchPositions(n, 1), WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			// Warm up: the first instant runs the robots' preprocessing
			// (Voronoi, SEC, naming), which is not per-step cost.
			if err := s.Step(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStepParallel measures the tentpole: per-instant simulator
// cost with the compute phase sequential versus fanned out over the
// GOMAXPROCS worker pool, at swarm sizes where the O(n) per-robot view
// dominates. Synchronous scheduling activates all n robots every
// instant — the parallel engine's best case and the sweep harness's
// common case. (BenchmarkSweepParallel, the experiment-level
// counterpart, lives in bench_parallel_test.go: the sweep package
// imports waggle, so it needs the external test package.)
func BenchmarkStepParallel(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		for _, engine := range []struct {
			name string
			mode sim.EngineMode
		}{
			{"sequential", sim.EngineSequential},
			{"parallel", sim.EngineParallel},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, engine.name), func(b *testing.B) {
				s, err := onEngine(engine.mode)(NewSwarm(benchPositions(n, 1), WithSynchronous(), WithSeed(1)))
				if err != nil {
					b.Fatal(err)
				}
				// Warm up: first instant runs preprocessing (Voronoi,
				// SEC, naming) and allocates the reusable buffers.
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.Step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStepObserver measures the instrumentation tax: per-instant
// simulator cost with no observer (the default — every site is a nil
// check), with an attached observer, and with an attached observer
// whose trace ring is tiny (constant eviction). The ISSUE bound is
// disabled ≤ 2% over the uninstrumented baseline; EXPERIMENTS.md
// records the measured table.
func BenchmarkStepObserver(b *testing.B) {
	for _, n := range []int{64, 256} {
		for _, engine := range []struct {
			name string
			mode sim.EngineMode
		}{
			{"sequential", sim.EngineSequential},
			{"parallel", sim.EngineParallel},
		} {
			for _, obsv := range []struct {
				name string
				o    *Observer
			}{
				{"disabled", nil},
				{"enabled", NewObserver()},
				{"enabled-tiny-ring", NewObserverWithCapacity(64)},
			} {
				b.Run(fmt.Sprintf("n=%d/%s/%s", n, engine.name, obsv.name), func(b *testing.B) {
					opts := []Option{WithSynchronous(), WithSeed(1)}
					if obsv.o != nil {
						opts = append(opts, WithObserver(obsv.o))
					}
					s, err := onEngine(engine.mode)(NewSwarm(benchPositions(n, 1), opts...))
					if err != nil {
						b.Fatal(err)
					}
					if err := s.Step(); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := s.Step(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// benchCheckpointSwarm builds an n-robot swarm with a pending send.
// Stepped history is deliberately absent: run-length merging collapses
// any step run into one input-log entry, so history barely moves the
// checkpoint size, while restoring it re-pays the live per-instant
// cost 1:1 (the table in EXPERIMENTS.md separates that replay cost
// from the fixed capture/encode/rebuild overhead measured here).
func benchCheckpointSwarm(b *testing.B, n int) *Swarm {
	b.Helper()
	s, err := NewSwarm(benchPositions(n, 1), WithSynchronous(), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Send(0, n-1, []byte("CKPT")); err != nil {
		b.Fatal(err)
	}
	return s
}

// ckptScaleSwarm builds the codec rows' swarm: n robots of the facade's
// default protocol uniform on a 10√n square (seed 31+n), with one
// interval of sends queued, so the captured state carries outboxes and
// an input log that a restore replays.
func ckptScaleSwarm(b *testing.B, n int) *Swarm {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(31 + n)))
	side := math.Sqrt(float64(n)) * 10
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	s, err := NewSwarm(pts, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	ckptInterval(b, s, 0)
	return s
}

// ckptInterval is one save interval's churn: 16 robots send through the
// recorded API. The chatting protocols cannot step swarms this large,
// so the churn is sends, not moves.
func ckptInterval(b *testing.B, s *Swarm, interval int) {
	b.Helper()
	for k := 0; k < 16; k++ {
		from := (interval*16 + k) % s.N()
		if err := s.Send(from, (from+1)%s.N(), []byte{byte(interval), byte(k)}); err != nil {
			b.Fatal(err)
		}
	}
}

// savedWriter opens a checkpoint writer for s at path and makes its
// first save, the base frame.
func savedWriter(b *testing.B, s *Swarm, path string, codec CheckpointCodec) *CheckpointWriter {
	b.Helper()
	cw, err := s.NewCheckpointWriter(path, codec)
	if err == nil {
		err = cw.Save()
	}
	if err != nil {
		b.Fatal(err)
	}
	return cw
}

// bestSaves returns the fastest of five full and of five delta saves
// of s, in pairs a tenth of a second apart after an untimed interval
// each, so a disk busy for a moment (a test binary just linked, say)
// does not decide a comparison.
func bestSaves(b *testing.B, s *Swarm) (full, delta time.Duration) {
	b.Helper()
	dir := b.TempDir()
	fw := savedWriter(b, s, filepath.Join(dir, "full.wck"), CodecBinary)
	dw := savedWriter(b, s, filepath.Join(dir, "delta.wck"), CodecDelta)
	timed := func(w *CheckpointWriter) time.Duration {
		t0 := time.Now()
		if err := w.Save(); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	full, delta = math.MaxInt64, math.MaxInt64
	for i := 0; i < 5; i++ {
		time.Sleep(100 * time.Millisecond)
		ckptInterval(b, s, 1000+i)
		full, delta = min(full, timed(fw)), min(delta, timed(dw))
	}
	return full, delta
}

// ckptSizes are the codec rows' swarm sizes, each with the number of
// delta frames its restore row folds.
var ckptSizes = []struct{ n, chain int }{{512, 10}, {10_000, 5}, {100_000, 2}, {1_000_000, 1}}

// BenchmarkCheckpointSave measures capture + wire encoding, reporting
// the serialized size (the EXPERIMENTS.md checkpoint table). The
// binary and delta rows time a CheckpointWriter's durable saves of the
// codec swarm: binary rewrites a full snapshot each save, the first
// included, and delta appends one frame per interval (the interval
// untimed). Every timed delta save must be a delta, and at n=10000 the
// best delta save must be at least 10× faster than the best full one.
func BenchmarkCheckpointSave(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchCheckpointSwarm(b, n)
			var size int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ck, err := s.Checkpoint()
				if err != nil {
					b.Fatal(err)
				}
				var buf bytes.Buffer
				if err := WriteCheckpoint(&buf, ck); err != nil {
					b.Fatal(err)
				}
				size = buf.Len()
			}
			b.ReportMetric(float64(size), "ckpt-bytes")
		})
	}
	for _, sz := range ckptSizes {
		var s *Swarm // shared by the rows at this size, as one run's saves are
		for _, codec := range []CheckpointCodec{CodecBinary, CodecDelta} {
			b.Run(fmt.Sprintf("%s/n=%d", codec, sz.n), func(b *testing.B) {
				if s == nil {
					s = ckptScaleSwarm(b, sz.n)
				}
				cw, err := s.NewCheckpointWriter(filepath.Join(b.TempDir(), "ckpt.wck"), codec)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if codec == CodecDelta {
						b.StopTimer()
						if i == 0 || cw.ChainLen() == maxChainLen {
							// The base and every rebase are untimed, so
							// that every timed save appends.
							if err := cw.Save(); err != nil {
								b.Fatal(err)
							}
						}
						ckptInterval(b, s, i+1)
						b.StartTimer()
					}
					if err := cw.Save(); err != nil {
						b.Fatal(err)
					}
					if codec == CodecDelta && !cw.LastSaveWasDelta() {
						b.Fatalf("save %d was not a delta (an unexpected rebase)", i)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(cw.LastSaveBytes()), "B/save")
				if codec == CodecDelta && sz.n == 10_000 {
					if full, delta := bestSaves(b, s); 10*delta > full {
						b.Fatalf("delta save (%v) is not 10x faster than a full binary save (%v)", delta, full)
					}
				}
			})
		}
	}
}

// BenchmarkCheckpointRestore measures decode + rebuild + replay +
// verification — the full resume latency. The binary and delta rows
// load the codec swarm's file with LoadCheckpoint and Restore it: one
// full snapshot, or a base frame and chain delta frames.
func BenchmarkCheckpointRestore(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchCheckpointSwarm(b, n)
			ck, err := s.Checkpoint()
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteCheckpoint(&buf, ck); err != nil {
				b.Fatal(err)
			}
			wire := buf.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loaded, err := ReadCheckpoint(bytes.NewReader(wire))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Restore(loaded); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, sz := range ckptSizes {
		dir, written := b.TempDir(), false
		for _, codec := range []CheckpointCodec{CodecBinary, CodecDelta} {
			b.Run(fmt.Sprintf("%s/n=%d", codec, sz.n), func(b *testing.B) {
				if !written {
					// One swarm writes both files; it is garbage by the
					// time the restores are timed.
					s := ckptScaleSwarm(b, sz.n)
					savedWriter(b, s, filepath.Join(dir, "binary.wck"), CodecBinary)
					cw := savedWriter(b, s, filepath.Join(dir, "delta.wck"), CodecDelta)
					for i := 1; i <= sz.chain; i++ {
						ckptInterval(b, s, i)
						if err := cw.Save(); err != nil {
							b.Fatal(err)
						}
					}
					written = true
				}
				path := filepath.Join(dir, codec.String()+".wck")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ck, err := LoadCheckpoint(path)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := Restore(ck); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
