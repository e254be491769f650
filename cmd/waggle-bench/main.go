// Command waggle-bench measures the spatial-index fast paths against
// their brute-force twins and writes the results as machine-readable
// JSON (BENCH_spatial.json) — the before/after evidence behind the
// EXPERIMENTS.md performance table.
//
// Usage:
//
//	waggle-bench                      # full run, writes BENCH_spatial.json
//	waggle-bench -out results.json    # full run, custom output path
//	waggle-bench -smoke               # run every scenario body once, write nothing
//	waggle-bench -step                # step-engine scaling run, writes BENCH_step.json
//	waggle-bench -step -smoke         # tiny step-engine run, write nothing
//	waggle-bench -ckpt                # checkpoint codec run, writes BENCH_ckpt.json
//	waggle-bench -ckpt -smoke         # n=10k ratio check, write nothing
//	waggle-bench -stream              # stream-writer overhead run, writes BENCH_stream.json
//	waggle-bench -stream -smoke       # tiny paired run + decode check, write nothing
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"waggle/internal/geom"
	"waggle/internal/sim"
	"waggle/internal/spatial"
	"waggle/internal/voronoi"
)

// Result is one benchmark scenario's measurement.
type Result struct {
	// Name identifies the scenario, "workload/variant" with variant
	// "grid" (spatial-index path) or "brute" (reference scan).
	Name string `json:"name"`
	// N is the problem size (points, sites, or robots).
	N int `json:"n"`
	// Iterations is how many times testing.Benchmark ran the body.
	Iterations int `json:"iterations"`
	// NsPerOp is the measured wall time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are the allocation costs per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// scenario is one benchmark body. Setup (input generation, world
// construction, warm-up) happens when the scenario is built, so body
// measures only the operation under test and the smoke mode can run it
// exactly once.
type scenario struct {
	name string
	n    int
	body func() error
}

func main() {
	out := flag.String("out", "", "output JSON path (default BENCH_spatial.json; BENCH_step.json with -step; BENCH_ckpt.json with -ckpt; BENCH_stream.json with -stream)")
	smoke := flag.Bool("smoke", false, "run each scenario body once and write nothing")
	step := flag.Bool("step", false, "run the step-engine scaling benchmark instead of the spatial scenarios")
	ckpt := flag.Bool("ckpt", false, "run the checkpoint-codec benchmark (json vs binary vs delta) instead of the spatial scenarios")
	stream := flag.Bool("stream", false, "run the stream-writer overhead benchmark (waggle-stream/v1 on vs off) instead of the spatial scenarios")
	flag.Parse()
	if *step {
		if *out == "" {
			*out = "BENCH_step.json"
		}
		if err := runStep(*out, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, "waggle-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *ckpt {
		if *out == "" {
			*out = "BENCH_ckpt.json"
		}
		if err := runCkpt(*out, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, "waggle-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *stream {
		if *out == "" {
			*out = "BENCH_stream.json"
		}
		if err := runStream(*out, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, "waggle-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *out == "" {
		*out = "BENCH_spatial.json"
	}
	if err := run(*out, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "waggle-bench:", err)
		os.Exit(1)
	}
}

func run(out string, smoke bool) error {
	scenarios := buildScenarios()
	if smoke {
		// One iteration per scenario: proves every benchmark body still
		// runs (the guard against silently-empty bench trajectories).
		for _, sc := range scenarios {
			if err := sc.body(); err != nil {
				return fmt.Errorf("%s (n=%d): %w", sc.name, sc.n, err)
			}
			fmt.Printf("smoke %-28s n=%-5d ok\n", sc.name, sc.n)
		}
		return nil
	}
	results := make([]Result, 0, len(scenarios))
	for _, sc := range scenarios {
		sc := sc
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sc.body(); err != nil {
					b.Fatal(err)
				}
			}
		})
		res := Result{
			Name:        sc.name,
			N:           sc.n,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		}
		results = append(results, res)
		fmt.Printf("%-28s n=%-5d %14.1f ns/op %8d allocs/op\n",
			res.Name, res.N, res.NsPerOp, res.AllocsPerOp)
	}
	printSpeedups(results)
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d scenarios)\n", out, len(results))
	return nil
}

// printSpeedups pairs each grid scenario with its brute twin at the same
// n and prints the ratio — the headline before/after numbers.
func printSpeedups(results []Result) {
	type key struct {
		base string
		n    int
	}
	brutes := make(map[key]Result, len(results))
	for _, r := range results {
		if base, ok := trimVariant(r.Name, "/brute"); ok {
			brutes[key{base, r.N}] = r
		}
	}
	for _, r := range results {
		base, ok := trimVariant(r.Name, "/grid")
		if !ok {
			continue
		}
		if b, found := brutes[key{base, r.N}]; found && r.NsPerOp > 0 {
			fmt.Printf("speedup %-24s n=%-5d %6.1fx\n", base, r.N, b.NsPerOp/r.NsPerOp)
		}
	}
}

func trimVariant(name, suffix string) (string, bool) {
	if len(name) <= len(suffix) || name[len(name)-len(suffix):] != suffix {
		return "", false
	}
	return name[:len(name)-len(suffix)], true
}

// randomPoints draws n points uniformly over the same side the
// benchmark configurations use (side = 12n, the benchPositions scale).
func randomPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	side := float64(n) * 12
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	return pts
}

func buildScenarios() []scenario {
	var scenarios []scenario

	// Granular radii (protocol.granularRadii / §3.2): half the
	// nearest-neighbour distance per robot, the preprocessing every
	// n-robot protocol pays.
	for _, n := range []int{128, 512, 2048} {
		pts := randomPoints(rand.New(rand.NewSource(11)), n)
		scenarios = append(scenarios,
			scenario{"granulars/grid", n, func() error {
				spatial.NearestRadii(pts)
				return nil
			}},
			scenario{"granulars/brute", n, func() error {
				spatial.NearestRadiiBrute(pts)
				return nil
			}},
		)
	}

	// Voronoi diagram construction: grid-pruned half-plane clipping
	// versus the all-pairs scan, above the pruneMinSites crossover
	// (below it New itself routes to the scan).
	for _, n := range []int{256, 512} {
		sites := randomPoints(rand.New(rand.NewSource(13)), n)
		scenarios = append(scenarios,
			scenario{"voronoi/grid", n, func() error {
				_, err := voronoi.New(sites)
				return err
			}},
			scenario{"voronoi/brute", n, func() error {
				_, err := voronoi.NewBrute(sites)
				return err
			}},
		)
	}

	// Limited-visibility stepping: per-instant simulator cost when every
	// robot has a bounded sensor, with the per-step visibility grid on
	// (grid) and forced off (brute).
	{
		n := 512
		scenarios = append(scenarios,
			scenario{"limited-vis-step/grid", n, visStepBody(n, true)},
			scenario{"limited-vis-step/brute", n, visStepBody(n, false)},
		)
	}

	// Placement: the shared minimum-separation rejection sampler
	// (figures.RandomConfiguration / benchPositions / sweep), grid-backed
	// Placer versus the all-pairs conflict scan.
	{
		n := 512
		minSep := 8.0
		side := float64(n) * 12
		scenarios = append(scenarios,
			scenario{"placement/grid", n, func() error {
				rng := rand.New(rand.NewSource(14))
				pl := spatial.NewPlacer(minSep)
				for pl.Len() < n {
					p := geom.Pt(rng.Float64()*side, rng.Float64()*side)
					if !pl.TooClose(p) {
						pl.Add(p)
					}
				}
				pl.Points()
				return nil
			}},
			scenario{"placement/brute", n, func() error {
				rng := rand.New(rand.NewSource(14))
				pts := make([]geom.Point, 0, n)
				for len(pts) < n {
					p := geom.Pt(rng.Float64()*side, rng.Float64()*side)
					ok := true
					for _, q := range pts {
						if p.Dist(q) < minSep {
							ok = false
							break
						}
					}
					if ok {
						pts = append(pts, p)
					}
				}
				return nil
			}},
		)
	}

	return scenarios
}

// visStepBody builds an n-robot stationary swarm whose sensors reach a
// bounded radius, warms it up, and returns a body that advances one
// synchronous instant with the visibility grid toggled per indexed.
func visStepBody(n int, indexed bool) func() error {
	rng := rand.New(rand.NewSource(15))
	pos := make([]geom.Point, n)
	robots := make([]*sim.Robot, n)
	stay := sim.BehaviorFunc(func(v sim.View) geom.Point { return geom.Pt(0, 0) })
	side := float64(n) * 2
	for i := range pos {
		pos[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		robots[i] = &sim.Robot{
			Frame:     geom.WorldFrame(),
			Sigma:     1,
			VisRadius: 40,
			Behavior:  stay,
		}
	}
	w, err := sim.NewWorld(sim.Config{Positions: pos, Robots: robots})
	if err != nil {
		return func() error { return err }
	}
	w.SetViewIndexing(indexed)
	// Warm-up instant allocates the reusable buffers.
	if _, err := w.Step(sim.Synchronous{}); err != nil {
		return func() error { return err }
	}
	return func() error {
		_, err := w.Step(sim.Synchronous{})
		return err
	}
}
