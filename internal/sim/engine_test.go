package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"waggle/internal/geom"
)

// driftBehavior is a deterministic stateful behavior: each activation
// it walks towards a point derived from its observation count and the
// centroid of the view, exercising both view contents and private
// state.
type driftBehavior struct {
	calls int
}

func (d *driftBehavior) Step(v View) geom.Point {
	d.calls++
	var cx, cy float64
	for _, p := range v.Points {
		cx += p.X
		cy += p.Y
	}
	n := float64(len(v.Points))
	angle := float64(d.calls) * 0.7
	return geom.Pt(cx/n+math.Cos(angle)*0.5, cy/n+math.Sin(angle)*0.5)
}

func engineWorld(t *testing.T, n int, mode EngineMode, seed int64) *World {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	positions := make([]geom.Point, 0, n)
	for len(positions) < n {
		p := geom.Pt(rng.Float64()*float64(n)*10, rng.Float64()*float64(n)*10)
		ok := true
		for _, q := range positions {
			if p.Dist(q) < 4 {
				ok = false
				break
			}
		}
		if ok {
			positions = append(positions, p)
		}
	}
	robots := make([]*Robot, n)
	for i := range robots {
		robots[i] = &Robot{
			Frame:    geom.NewFrame(geom.Point{}, rng.Float64()*2*math.Pi, 1, geom.RightHanded),
			Sigma:    2,
			Behavior: &driftBehavior{},
		}
	}
	w, err := NewWorld(Config{Positions: positions, Robots: robots, RecordTrace: true, Engine: mode})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestEngineParity pins the tentpole guarantee: sequential and parallel
// engines produce byte-for-byte identical executions — same moves, same
// per-instant configurations — for the same seed and scheduler.
func TestEngineParity(t *testing.T) {
	const n, steps = 48, 200 // above parallelMinActive so EngineParallel really fans out
	for _, scheduler := range []Scheduler{Synchronous{}, FirstSync{Inner: NewRandomFair(7)}} {
		seq := engineWorld(t, n, EngineSequential, 99)
		par := engineWorld(t, n, EngineParallel, 99)
		// Random-fair schedulers are stateful: give each world its own.
		seqSched, parSched := scheduler, scheduler
		if _, ok := scheduler.(FirstSync); ok {
			seqSched = FirstSync{Inner: NewRandomFair(7)}
			parSched = FirstSync{Inner: NewRandomFair(7)}
		}
		for s := 0; s < steps; s++ {
			if _, err := seq.Step(seqSched); err != nil {
				t.Fatal(err)
			}
			if _, err := par.Step(parSched); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if seq.Position(i) != par.Position(i) {
				t.Fatalf("robot %d diverged: sequential %v, parallel %v", i, seq.Position(i), par.Position(i))
			}
		}
		seqMoves, parMoves := seq.Trace().Moves(), par.Trace().Moves()
		if len(seqMoves) != len(parMoves) {
			t.Fatalf("move counts diverged: %d vs %d", len(seqMoves), len(parMoves))
		}
		for i := range seqMoves {
			if seqMoves[i] != parMoves[i] {
				t.Fatalf("move %d diverged: %+v vs %+v", i, seqMoves[i], parMoves[i])
			}
		}
	}
}

// TestEngineAutoMatchesSequential checks the default adaptive mode
// computes the same execution as forced-sequential.
func TestEngineAutoMatchesSequential(t *testing.T) {
	auto := engineWorld(t, 40, EngineAuto, 3)
	seq := engineWorld(t, 40, EngineSequential, 3)
	for s := 0; s < 100; s++ {
		if _, err := auto.Step(Synchronous{}); err != nil {
			t.Fatal(err)
		}
		if _, err := seq.Step(Synchronous{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < auto.N(); i++ {
		if auto.Position(i) != seq.Position(i) {
			t.Fatalf("robot %d diverged under EngineAuto", i)
		}
	}
}

func TestSetEngine(t *testing.T) {
	w := engineWorld(t, 4, EngineAuto, 1)
	if w.engine != EngineAuto {
		t.Fatalf("initial engine %v", w.engine)
	}
	w.SetEngine(EngineParallel)
	if w.engine != EngineParallel {
		t.Fatalf("engine after SetEngine = %v", w.engine)
	}
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
}

// TestNonFiniteDestinationRejected pins the satellite fix: a behavior
// returning NaN or infinite coordinates must yield a descriptive error,
// not a silently corrupted configuration (NaN survives the sigma clamp
// because every comparison with NaN is false).
func TestNonFiniteDestinationRejected(t *testing.T) {
	for name, bad := range map[string]geom.Point{
		"nan-x":  geom.Pt(math.NaN(), 0),
		"nan-y":  geom.Pt(0, math.NaN()),
		"inf-x":  geom.Pt(math.Inf(1), 0),
		"-inf-y": geom.Pt(0, math.Inf(-1)),
	} {
		t.Run(name, func(t *testing.T) {
			for _, mode := range []EngineMode{EngineSequential, EngineParallel} {
				w, err := NewWorld(Config{
					Positions: []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)},
					Robots: []*Robot{
						{Frame: geom.WorldFrame(), Sigma: 1, Behavior: BehaviorFunc(func(View) geom.Point { return bad })},
						{Frame: geom.WorldFrame(), Sigma: 1, Behavior: BehaviorFunc(func(View) geom.Point { return geom.Pt(0, 0) })},
					},
					Engine: mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				_, err = w.Step(Synchronous{})
				if err == nil {
					t.Fatalf("engine %v accepted non-finite destination %v", mode, bad)
				}
				if !strings.Contains(err.Error(), "robot 0") || !strings.Contains(err.Error(), "non-finite") {
					t.Errorf("engine %v: undescriptive error %v", mode, err)
				}
				// The configuration must be untouched.
				if w.Position(0) != geom.Pt(0, 0) || w.Position(1) != geom.Pt(10, 0) {
					t.Errorf("engine %v: configuration corrupted: %v %v", mode, w.Position(0), w.Position(1))
				}
			}
		})
	}
}

type duplicatingScheduler struct{}

func (duplicatingScheduler) Next(_, n int) []int { return []int{0, 1, 0} }

// TestDuplicateActivationRejected: a scheduler activating the same
// robot twice in one instant would race in the parallel engine (two
// workers stepping one robot's behavior at once), so both engines
// reject it.
func TestDuplicateActivationRejected(t *testing.T) {
	w := engineWorld(t, 3, EngineSequential, 5)
	if _, err := w.Step(duplicatingScheduler{}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate activation err = %v", err)
	}
	// The detector state must be cleared: a valid step still works.
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatalf("step after rejected activation: %v", err)
	}
}

// TestBehaviorPanicInParallelWorker: a panic inside a worker goroutine
// must surface as an error, not kill the process.
func TestBehaviorPanicInParallelWorker(t *testing.T) {
	positions := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10)}
	robots := make([]*Robot, 3)
	for i := range robots {
		i := i
		robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 1, Behavior: BehaviorFunc(func(v View) geom.Point {
			if i == 2 {
				panic("boom")
			}
			return v.Points[v.Self]
		})}
	}
	w, err := NewWorld(Config{Positions: positions, Robots: robots, Engine: EngineParallel})
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Step(Synchronous{})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic surfaced as %v", err)
	}
}

// TestBehaviorPanicParityAcrossEngines pins the satellite fix: the
// sequential branch used to call computeMove unwrapped, so a behavior
// panic crashed the process under EngineSequential but surfaced as a
// per-robot error under EngineParallel. All three modes must now yield
// the identical error and leave the configuration untouched.
func TestBehaviorPanicParityAcrossEngines(t *testing.T) {
	build := func(mode EngineMode, compact bool) *World {
		const n = 64 // >= parallelMinActive and viewIndexMinN
		positions := make([]geom.Point, n)
		robots := make([]*Robot, n)
		for i := range positions {
			positions[i] = geom.Pt(float64(i%8)*10, float64(i/8)*10)
			i := i
			robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 1, VisRadius: 25, Behavior: BehaviorFunc(func(v View) geom.Point {
				if i == 17 {
					panic("boom")
				}
				return v.Points[v.Self]
			})}
		}
		w, err := NewWorld(Config{Positions: positions, Robots: robots, Engine: mode})
		if err != nil {
			t.Fatal(err)
		}
		w.SetCompactViews(compact)
		return w
	}
	for _, compact := range []bool{false, true} {
		var errs []string
		for _, mode := range []EngineMode{EngineSequential, EngineParallel, EngineAuto} {
			w := build(mode, compact)
			before := w.Positions()
			_, err := w.Step(Synchronous{})
			if err == nil {
				t.Fatalf("engine %v (compact=%v): behavior panic did not surface", mode, compact)
			}
			if !strings.Contains(err.Error(), "robot 17 behavior panicked: boom") {
				t.Fatalf("engine %v (compact=%v): wrong error %v", mode, compact, err)
			}
			for i, p := range w.Positions() {
				if p != before[i] {
					t.Fatalf("engine %v (compact=%v): configuration moved despite error", mode, compact)
				}
			}
			errs = append(errs, err.Error())
		}
		for _, e := range errs[1:] {
			if e != errs[0] {
				t.Fatalf("compact=%v: errors diverge across modes: %q vs %q", compact, errs[0], e)
			}
		}
	}
}

// viewSums sums and counts the robots a view shows, reading it through
// either layout — dense (skip invisible slots) or compact (every slot
// is visible). Both layouts enumerate the visible robots ascending by
// robot index, so the float accumulation order, and hence any
// destination computed from the sums, is bit-identical.
func viewSums(v View) (cx, cy float64, n int) {
	for k, p := range v.Points {
		if v.Indices == nil && v.Visible != nil && !v.Visible[k] {
			continue
		}
		cx += p.X
		cy += p.Y
		n++
	}
	return cx, cy, n
}

// visCentroidBehavior walks toward the centroid of the robots it can
// see, plus a turning offset.
type visCentroidBehavior struct{ calls int }

func (b *visCentroidBehavior) Step(v View) geom.Point {
	b.calls++
	cx, cy, n := viewSums(v)
	angle := float64(b.calls) * 1.3
	return geom.Pt(cx/float64(n)+math.Cos(angle), cy/float64(n)+math.Sin(angle))
}

// limitedWorld builds a jittered-grid swarm with bounded sensors.
func limitedWorld(t *testing.T, n int, mode EngineMode, vis float64, compact bool, seed int64) *World {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	side := int(math.Ceil(math.Sqrt(float64(n))))
	positions := make([]geom.Point, n)
	robots := make([]*Robot, n)
	for i := range positions {
		positions[i] = geom.Pt(float64(i%side)*8+rng.Float64()*3, float64(i/side)*8+rng.Float64()*3)
		robots[i] = &Robot{
			Frame:     geom.NewFrame(geom.Point{}, rng.Float64()*2*math.Pi, 1, geom.RightHanded),
			Sigma:     2,
			VisRadius: vis,
			Behavior:  &visCentroidBehavior{},
		}
	}
	w, err := NewWorld(Config{Positions: positions, Robots: robots, Engine: mode})
	if err != nil {
		t.Fatal(err)
	}
	w.SetCompactViews(compact)
	return w
}

// TestCompactViewParity pins the compact-view guarantee: a compact world
// computes the identical trajectory to a dense one — across engine
// modes (per-robot and cell-batched construction) and with the spatial
// index disabled (the brute compact path).
func TestCompactViewParity(t *testing.T) {
	const n, steps = 150, 120
	ref := limitedWorld(t, n, EngineSequential, 20, false, 42)
	variants := map[string]*World{
		"compact-seq":     limitedWorld(t, n, EngineSequential, 20, true, 42),
		"compact-par":     limitedWorld(t, n, EngineParallel, 20, true, 42),
		"compact-noindex": limitedWorld(t, n, EngineSequential, 20, true, 42),
		"dense-par":       limitedWorld(t, n, EngineParallel, 20, false, 42),
	}
	variants["compact-noindex"].viewIndexOff = true
	refSched := NewRandomFair(9)
	scheds := map[string]*RandomFair{}
	for name := range variants {
		scheds[name] = NewRandomFair(9)
	}
	for s := 0; s < steps; s++ {
		if _, err := ref.Step(refSched); err != nil {
			t.Fatal(err)
		}
		for name, w := range variants {
			if _, err := w.Step(scheds[name]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	for name, w := range variants {
		for i := 0; i < n; i++ {
			if w.Position(i) != ref.Position(i) {
				t.Fatalf("%s: robot %d diverged: %v vs dense %v", name, i, w.Position(i), ref.Position(i))
			}
		}
	}
}

// TestIncrementalGridParity drives the per-step grid end-to-end:
// partial activations (few robots move per instant, and prepareStep
// rebuilds the grid for each), a mid-run teleport, and a mid-run engine
// switch must all leave the trajectory bit-identical to a world with
// the index disabled entirely.
func TestIncrementalGridParity(t *testing.T) {
	const n, steps = 200, 250
	indexed := limitedWorld(t, n, EngineSequential, 24, false, 7)
	brute := limitedWorld(t, n, EngineSequential, 24, false, 7)
	brute.viewIndexOff = true
	si, sb := NewRandomFair(13), NewRandomFair(13)
	for s := 0; s < steps; s++ {
		if s == 100 {
			// A teleport moves a robot that no scheduler activated;
			// the next snapshot must carry it.
			if err := indexed.Teleport(3, geom.Pt(-50, -50)); err != nil {
				t.Fatal(err)
			}
			if err := brute.Teleport(3, geom.Pt(-50, -50)); err != nil {
				t.Fatal(err)
			}
		}
		if s == 170 {
			indexed.SetEngine(EngineParallel)
			brute.SetEngine(EngineParallel)
		}
		if _, err := indexed.Step(si); err != nil {
			t.Fatal(err)
		}
		if _, err := brute.Step(sb); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if indexed.Position(i) != brute.Position(i) {
				t.Fatalf("step %d: robot %d diverged: indexed %v, brute %v", s, i, indexed.Position(i), brute.Position(i))
			}
		}
	}
}

// TestGridRetainedAcrossIndexingToggle pins the buffer-reuse satellite
// fix: prepareStep used to nil the grid whenever indexing did not apply,
// discarding its warmed CSR buffers; now the object survives toggles of
// viewIndexOff and of the robots' sensor radii.
func TestGridRetainedAcrossIndexingToggle(t *testing.T) {
	w := limitedWorld(t, 64, EngineSequential, 20, false, 11)
	step := func() {
		t.Helper()
		if _, err := w.Step(Synchronous{}); err != nil {
			t.Fatal(err)
		}
	}
	step()
	g := w.viewIndex
	if g == nil || !w.viewIndexActive {
		t.Fatal("no active grid after a limited-visibility step")
	}
	w.viewIndexOff = true
	step()
	if w.viewIndex != g {
		t.Fatal("grid discarded while indexing was off")
	}
	if w.viewIndexActive {
		t.Fatal("viewIndexActive while indexing is off")
	}
	w.viewIndexOff = false
	step()
	if w.viewIndex != g || !w.viewIndexActive {
		t.Fatal("grid not reused after re-enabling indexing")
	}
	// Toggling visibility itself (VisRadius edits) keeps it too.
	for i := 0; i < w.N(); i++ {
		w.Robot(i).VisRadius = 0
	}
	step()
	if w.viewIndex != g || w.viewIndexActive {
		t.Fatal("grid handling wrong after visibility removed")
	}
	for i := 0; i < w.N(); i++ {
		w.Robot(i).VisRadius = 20
	}
	step()
	if w.viewIndex != g || !w.viewIndexActive {
		t.Fatal("grid not reused after visibility restored")
	}
}

// TestCoincidentCheckGridParity: the grid-backed distinctness check of
// large configurations must report the same pair as the ascending
// all-pairs scan: for two partners of one robot, for pairs straddling a
// cell edge and a cell corner, for pairs exactly Eps apart and one ulp
// beyond, and at coordinates so large that one ulp exceeds Eps.
func TestCoincidentCheckGridParity(t *testing.T) {
	const n = 300 // >= coincidentGridMinN
	// A 20×15 lattice, 5 apart, at the given offset: its grid has 12×12
	// cells over the lattice's box, 95/12 wide and 70/12 high.
	mk := func(off float64) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(off+float64(i%20)*5, off+float64(i/20)*5)
		}
		return pts
	}
	scan := func(pts []geom.Point) error {
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if pts[i].Eq(pts[j]) {
					return fmt.Errorf("robots %d and %d: %w", i, j, ErrCoincidentRobots)
				}
			}
		}
		return nil
	}
	// An edge point of the grid over mk(0): where cell column cx begins
	// and cell row cy begins, by the grid's own arithmetic.
	edgeX := func(cx int) float64 { return float64(cx) * (95.0 / 12) }
	edgeY := func(cy int) float64 { return float64(cy) * (70.0 / 12) }
	col := func(x float64) int { return int(x / (95.0 / 12)) }
	row := func(y float64) int { return int(y / (70.0 / 12)) }
	ulp := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	for _, tc := range []struct {
		name string
		pts  []geom.Point
		want string // the pair, or "" when the configuration is distinct
	}{
		{"distinct", mk(0), ""},
		{"two partners", func() []geom.Point {
			pts := mk(0)
			pts[120] = pts[37]
			pts[205] = pts[37] // the scan reports the smaller j
			return pts
		}(), "robots 37 and 120"},
		{"across a cell edge", func() []geom.Point {
			pts := mk(0)
			x, y := edgeX(5), 31.0
			pts[250] = geom.Pt(x+0.4e-9, y)
			pts[60] = geom.Pt(x-0.4e-9, y)
			if col(pts[250].X) == col(pts[60].X) {
				t.Fatal("the pair does not straddle a cell edge")
			}
			return pts
		}(), "robots 60 and 250"},
		{"across a cell corner", func() []geom.Point {
			pts := mk(0)
			x, y := edgeX(7), edgeY(4)
			pts[10] = geom.Pt(x+0.3e-9, y+0.3e-9)
			pts[299] = geom.Pt(x-0.3e-9, y-0.3e-9)
			if col(pts[10].X) == col(pts[299].X) || row(pts[10].Y) == row(pts[299].Y) {
				t.Fatal("the pair does not straddle a cell corner")
			}
			return pts
		}(), "robots 10 and 299"},
		{"exactly Eps apart", func() []geom.Point {
			pts := mk(0)
			pts[150] = geom.Pt(0, geom.Eps) // pts[0] is the origin
			return pts
		}(), "robots 0 and 150"},
		{"one ulp beyond Eps", func() []geom.Point {
			pts := mk(0)
			pts[150] = geom.Pt(ulp(geom.Eps), 0)
			pts[151] = geom.Pt(0, -ulp(geom.Eps))
			return pts
		}(), ""},
		{"one ulp above Eps, equal", func() []geom.Point {
			pts := mk(1e8) // ulp(1e8) is about 1.5e-8
			pts[42] = geom.Pt(ulp(pts[41].X), pts[41].Y)
			pts[43] = geom.Pt(pts[44].X, ulp(pts[44].Y))
			if pts[42].X-pts[41].X <= geom.Eps {
				t.Fatal("one ulp does not exceed Eps")
			}
			pts[200] = pts[99]
			return pts
		}(), "robots 99 and 200"},
	} {
		want := scan(tc.pts)
		if got := checkDistinctPositions(tc.pts); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: grid check %v, all-pairs scan %v", tc.name, got, want)
		}
		if tc.want == "" && want != nil || tc.want != "" && (want == nil || !strings.Contains(want.Error(), tc.want)) {
			t.Errorf("%s: the scan reports %v, want %q", tc.name, want, tc.want)
		}
	}
	robots := make([]*Robot, n)
	for i := range robots {
		robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 1, Behavior: BehaviorFunc(func(v View) geom.Point { return v.Points[v.Self] })}
	}
	pts := mk(0)
	pts[120] = pts[37]
	if _, err := NewWorld(Config{Positions: pts, Robots: robots}); err == nil || !strings.Contains(err.Error(), "robots 37 and 120") {
		t.Fatalf("NewWorld reported %v, want robots 37 and 120", err)
	}
}

// recordSink reads every closed record the way a stream writer does,
// into a buffer it reuses.
type recordSink struct {
	w     *World
	moves []Move
}

func (s *recordSink) EndStep(t int, active []int) {
	s.moves = append(s.moves[:0], s.w.Record().Moves...)
}

// TestStepAllocationFree pins the buffer-reuse goal: after warm-up, a
// sequential step of a plain (untraced, anonymous, unlimited-vision)
// world performs zero heap allocations in the engine itself, and so
// does one whose record feeds a stream sink and the delta-checkpoint
// touch set — the record's buffers are reused too — and a compact world
// with limited visibility, whose every instant rebuilds the grid and
// runs the batched kernel on its per-worker gather, position and key
// buffers.
func TestStepAllocationFree(t *testing.T) {
	stay := func(v View) geom.Point { return v.Points[v.Self] }
	sway := func(v View) geom.Point { return geom.Pt(0.5-float64(v.Time%2), 0) }
	for _, tc := range []struct {
		name   string
		n      int
		vis    float64 // sensor radius; 0 is unlimited
		step   BehaviorFunc
		attach func(w *World)
	}{
		{"bare", 32, 0, stay, func(*World) {}},
		{"sink+touch", 32, 0, stay, func(w *World) {
			w.SetStreamSink(&recordSink{w: w})
			w.EnableTouchTracking()
		}},
		{"compact-batched", 2 * viewIndexMinN, 25, sway, func(w *World) { w.SetCompactViews(true) }},
	} {
		positions := make([]geom.Point, tc.n)
		robots := make([]*Robot, tc.n)
		for i := range positions {
			positions[i] = geom.Pt(float64(i%32)*10, float64(i/32)*10)
			robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 1, VisRadius: tc.vis, Behavior: tc.step}
		}
		w, err := NewWorld(Config{Positions: positions, Robots: robots, Engine: EngineSequential})
		if err != nil {
			t.Fatal(err)
		}
		tc.attach(w)
		sched := Synchronous{}
		if _, err := w.Step(sched); err != nil { // warm up scratch buffers
			t.Fatal(err)
		}
		if tc.vis > 0 && !w.viewIndexActive {
			t.Fatalf("%s: the step did not use the grid", tc.name)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := w.Step(sched); err != nil {
				t.Fatal(err)
			}
		})
		// The scheduler allocates its activation slice; the engine itself
		// must add nothing beyond it.
		if allocs > 1 {
			t.Errorf("%s: Step allocates %.1f objects/op after warm-up, want <= 1", tc.name, allocs)
		}
	}
}

// TestViewBuffersPerWorker pins the view contract: a view is valid
// only until Behavior.Step returns, so the sequential engine builds
// every view in its one worker's buffers. Two robots of one instant see
// the same backing array, and the next instant reuses it.
func TestViewBuffersPerWorker(t *testing.T) {
	var seen []*geom.Point
	b := BehaviorFunc(func(v View) geom.Point {
		seen = append(seen, &v.Points[0])
		return v.Points[v.Self]
	})
	w, err := NewWorld(Config{
		Positions: []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)},
		Robots: []*Robot{
			{Frame: geom.WorldFrame(), Sigma: 1, Behavior: b},
			{Frame: geom.WorldFrame(), Sigma: 1, Behavior: b},
		},
		Engine: EngineSequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if _, err := w.Step(Synchronous{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("behaviors saw %d views, want 4", len(seen))
	}
	if seen[1] != seen[0] {
		t.Error("the two robots of one instant got views in different buffers")
	}
	if seen[2] != seen[0] || seen[3] != seen[0] {
		t.Error("the second instant's views were built in new buffers")
	}
}

// TestViewHeapPerWorker: a synchronous instant of a dense,
// full-visibility world at n=1024 adds under 1 MiB of live heap on
// both compute paths. The views live in one buffer set per worker;
// one per robot would hold n points for each of the n robots, 16 MiB.
func TestViewHeapPerWorker(t *testing.T) {
	const n, limit = 1024, 1 << 20
	for _, mode := range []EngineMode{EngineSequential, EngineParallel} {
		positions := make([]geom.Point, n)
		robots := make([]*Robot, n)
		for i := range positions {
			positions[i] = geom.Pt(float64(i%32)*10, float64(i/32)*10)
			robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 1, Behavior: BehaviorFunc(func(v View) geom.Point { return v.Points[v.Self] })}
		}
		w, err := NewWorld(Config{Positions: positions, Robots: robots, Engine: mode})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		// One collection can leave set-up garbage counted in HeapAlloc.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := w.Step(Synchronous{}); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(w)
		grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("engine %v: one instant grew the live heap by %d B", mode, grew)
		if grew >= limit {
			t.Errorf("engine %v: one instant grew the live heap by %d B, want under %d", mode, grew, limit)
		}
	}
}
