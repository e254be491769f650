package sim

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"waggle/internal/geom"
)

// stay is a behavior that never moves (local origin = own position).
func stay() Behavior {
	return BehaviorFunc(func(View) geom.Point { return geom.Pt(0, 0) })
}

// walker moves a fixed local displacement every activation.
func walker(dx, dy float64) Behavior {
	return BehaviorFunc(func(View) geom.Point { return geom.Pt(dx, dy) })
}

// cloneView copies a view's slices, as a behavior must to keep the view
// past Step: the world reuses them for the next view it builds. Nil
// slices stay nil.
func cloneView(v View) View {
	v.Points = slices.Clone(v.Points)
	v.IDs = slices.Clone(v.IDs)
	v.Visible = slices.Clone(v.Visible)
	v.Indices = slices.Clone(v.Indices)
	return v
}

func newTestWorld(t *testing.T, positions []geom.Point, behaviors []Behavior, opts ...func(*Config)) *World {
	t.Helper()
	robots := make([]*Robot, len(positions))
	for i := range robots {
		robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 10, Behavior: behaviors[i]}
	}
	cfg := Config{Positions: positions, Robots: robots, RecordTrace: true}
	for _, o := range opts {
		o(&cfg)
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldErrors(t *testing.T) {
	if _, err := NewWorld(Config{}); !errors.Is(err, ErrNoRobots) {
		t.Errorf("empty config: err = %v, want ErrNoRobots", err)
	}
	r := &Robot{Sigma: 1, Behavior: stay()}
	if _, err := NewWorld(Config{
		Positions: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)},
		Robots:    []*Robot{r},
	}); !errors.Is(err, ErrMismatchedRobots) {
		t.Errorf("mismatch: err = %v, want ErrMismatchedRobots", err)
	}
	if _, err := NewWorld(Config{
		Positions: []geom.Point{geom.Pt(0, 0), geom.Pt(0, 0)},
		Robots:    []*Robot{r, r},
	}); !errors.Is(err, ErrCoincidentRobots) {
		t.Errorf("coincident: err = %v, want ErrCoincidentRobots", err)
	}
	bad := &Robot{Sigma: 0, Behavior: stay()}
	if _, err := NewWorld(Config{
		Positions: []geom.Point{geom.Pt(0, 0)},
		Robots:    []*Robot{bad},
	}); !errors.Is(err, ErrBadSigma) {
		t.Errorf("bad sigma: err = %v, want ErrBadSigma", err)
	}
	if _, err := NewWorld(Config{
		Positions: []geom.Point{geom.Pt(0, 0)},
		Robots:    []*Robot{{Sigma: math.NaN(), Behavior: stay()}},
	}); !errors.Is(err, ErrBadSigma) {
		t.Errorf("NaN sigma: err = %v, want ErrBadSigma", err)
	}
	if _, err := NewWorld(Config{
		Positions: []geom.Point{geom.Pt(0, 0)},
		Robots:    []*Robot{{Sigma: 1}},
	}); err == nil {
		t.Error("nil behavior should be rejected")
	}
}

func TestSynchronousStepMovesEveryone(t *testing.T) {
	w := newTestWorld(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(5, 0)},
		[]Behavior{walker(1, 0), walker(0, 1)},
	)
	active, err := w.Step(Synchronous{})
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != 2 {
		t.Fatalf("active = %v, want both robots", active)
	}
	if !w.Position(0).Eq(geom.Pt(1, 0)) {
		t.Errorf("robot 0 at %v, want (1,0)", w.Position(0))
	}
	if !w.Position(1).Eq(geom.Pt(5, 1)) {
		t.Errorf("robot 1 at %v, want (5,1)", w.Position(1))
	}
	if w.Time() != 1 {
		t.Errorf("time = %d, want 1", w.Time())
	}
}

func TestSigmaClamping(t *testing.T) {
	robots := []*Robot{{Frame: geom.WorldFrame(), Sigma: 1, Behavior: walker(10, 0)}}
	w, err := NewWorld(Config{Positions: []geom.Point{geom.Pt(0, 0)}, Robots: robots})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if !w.Position(0).Eq(geom.Pt(1, 0)) {
		t.Errorf("clamped position = %v, want (1,0)", w.Position(0))
	}
}

func TestEgocentricFrames(t *testing.T) {
	// A robot whose frame is rotated 90 degrees: a local move of (1,0)
	// is a world move of (0,1), and its view of a world point is rotated
	// accordingly.
	var sawView View
	b := BehaviorFunc(func(v View) geom.Point {
		sawView = cloneView(v)
		return geom.Pt(1, 0)
	})
	robots := []*Robot{
		{Frame: geom.NewFrame(geom.Point{}, math.Pi/2, 1, geom.RightHanded), Sigma: 5, Behavior: b},
		{Frame: geom.WorldFrame(), Sigma: 5, Behavior: stay()},
	}
	w, err := NewWorld(Config{
		Positions: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)},
		Robots:    robots,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	// World +x neighbour appears at local (0,-1) for the rotated robot.
	if !sawView.Points[1].Eq(geom.Pt(0, -1)) {
		t.Errorf("rotated view of neighbour = %v, want (0,-1)", sawView.Points[1])
	}
	if !sawView.Points[0].Eq(geom.Pt(0, 0)) {
		t.Errorf("self must be at local origin, got %v", sawView.Points[0])
	}
	if !w.Position(0).Eq(geom.Pt(0, 1)) {
		t.Errorf("world position = %v, want (0,1)", w.Position(0))
	}
	// The frame follows the robot: after the move, self is origin again.
	loc := w.Robot(0).Frame.ToLocal(w.Position(0))
	if !loc.Eq(geom.Pt(0, 0)) {
		t.Errorf("frame did not follow robot: self at local %v", loc)
	}
}

func TestAnonymousViewsCarryNoIDs(t *testing.T) {
	var saw View
	b := BehaviorFunc(func(v View) geom.Point { saw = cloneView(v); return geom.Pt(0, 0) })
	w := newTestWorld(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)},
		[]Behavior{b, stay()},
	)
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if saw.IDs != nil {
		t.Errorf("anonymous view has IDs %v", saw.IDs)
	}
}

func TestIdentifiedViewsCarryIDs(t *testing.T) {
	var saw View
	b := BehaviorFunc(func(v View) geom.Point { saw = cloneView(v); return geom.Pt(0, 0) })
	w := newTestWorld(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)},
		[]Behavior{b, stay()},
		func(c *Config) { c.Identified = true },
	)
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if len(saw.IDs) != 2 || saw.IDs[0] != 0 || saw.IDs[1] != 1 {
		t.Errorf("identified view IDs = %v, want [0 1]", saw.IDs)
	}
}

func TestSimultaneousSnapshot(t *testing.T) {
	// Both robots chase each other's observed position. With a
	// simultaneous snapshot they swap; with sequential application robot
	// 1 would see robot 0's new position.
	chase := func(other int) Behavior {
		return BehaviorFunc(func(v View) geom.Point { return v.Points[other] })
	}
	w := newTestWorld(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(4, 0)},
		[]Behavior{chase(1), chase(0)},
	)
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if !w.Position(0).Eq(geom.Pt(4, 0)) || !w.Position(1).Eq(geom.Pt(0, 0)) {
		t.Errorf("positions = %v, %v; want swapped", w.Position(0), w.Position(1))
	}
}

func TestInactiveRobotDoesNotObserveOrMove(t *testing.T) {
	calls := 0
	b := BehaviorFunc(func(View) geom.Point { calls++; return geom.Pt(1, 0) })
	w := newTestWorld(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(5, 0)},
		[]Behavior{b, stay()},
	)
	// Activate only robot 1 for three instants.
	only1 := BehaviorlessScheduler{set: []int{1}}
	for i := 0; i < 3; i++ {
		if _, err := w.Step(only1); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 0 {
		t.Errorf("inactive robot's behavior called %d times", calls)
	}
	if !w.Position(0).Eq(geom.Pt(0, 0)) {
		t.Errorf("inactive robot moved to %v", w.Position(0))
	}
}

// BehaviorlessScheduler activates a fixed set (test helper).
type BehaviorlessScheduler struct{ set []int }

// Next implements Scheduler.
func (s BehaviorlessScheduler) Next(_, _ int) []int { return s.set }

func TestEmptyActivationRejected(t *testing.T) {
	w := newTestWorld(t, []geom.Point{geom.Pt(0, 0)}, []Behavior{stay()})
	if _, err := w.Step(BehaviorlessScheduler{}); !errors.Is(err, ErrEmptyActivation) {
		t.Errorf("err = %v, want ErrEmptyActivation", err)
	}
}

func TestRunStopsOnPredicate(t *testing.T) {
	w := newTestWorld(t, []geom.Point{geom.Pt(0, 0)}, []Behavior{walker(1, 0)})
	steps, ok, err := w.Run(Synchronous{}, 100, func(w *World) bool {
		return w.Position(0).X >= 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("predicate never satisfied")
	}
	if steps != 5 {
		t.Errorf("steps = %d, want 5", steps)
	}
}

func TestTraceRecording(t *testing.T) {
	w := newTestWorld(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)},
		[]Behavior{walker(1, 0), stay()},
	)
	for i := 0; i < 4; i++ {
		if _, err := w.Step(Synchronous{}); err != nil {
			t.Fatal(err)
		}
	}
	tr := w.Trace()
	if tr == nil {
		t.Fatal("trace missing")
	}
	if got := len(tr.Steps()); got != 4 {
		t.Errorf("recorded %d steps, want 4", got)
	}
	if got := len(tr.MovesBy(0)); got != 4 {
		t.Errorf("robot 0 has %d moves, want 4", got)
	}
	if d := tr.TotalDistance(0); !geom.ApproxEq(d, 4) {
		t.Errorf("robot 0 distance = %v, want 4", d)
	}
	if d := tr.TotalDistance(1); d > geom.Eps {
		t.Errorf("robot 1 distance = %v, want 0", d)
	}
	if got := tr.NonTrivialMoves(1, 1e-9); got != 0 {
		t.Errorf("robot 1 non-trivial moves = %d, want 0", got)
	}
	// Min pairwise distance: robot 0 walks from x=0 to x=4 past robot 1
	// at x=3 -> minimum separation is 0 at t with x=3... positions are
	// sampled per instant: x in {1,2,3,4}, so min distance is 0.
	if d := tr.MinPairwiseDistance(); d > geom.Eps {
		t.Errorf("min pairwise distance = %v, want 0", d)
	}
}

func TestRobotTemplateNotMutated(t *testing.T) {
	tpl := &Robot{Frame: geom.WorldFrame(), Sigma: 2, Behavior: walker(1, 0)}
	w, err := NewWorld(Config{
		Positions: []geom.Point{geom.Pt(7, 7)},
		Robots:    []*Robot{tpl},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if !tpl.Frame.Origin.Eq(geom.Point{}) {
		t.Errorf("template frame mutated: origin = %v", tpl.Frame.Origin)
	}
}

func TestTeleport(t *testing.T) {
	w := newTestWorld(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)},
		[]Behavior{stay(), stay()},
	)
	if err := w.Teleport(0, geom.Pt(5, 5)); err != nil {
		t.Fatal(err)
	}
	if !w.Position(0).Eq(geom.Pt(5, 5)) {
		t.Errorf("position = %v after teleport", w.Position(0))
	}
	// The frame follows the fault, as it would for a physically moved
	// robot.
	if !w.Robot(0).Frame.ToLocal(geom.Pt(5, 5)).Eq(geom.Pt(0, 0)) {
		t.Error("frame origin did not follow the teleport")
	}
	if err := w.Teleport(9, geom.Pt(0, 0)); err == nil {
		t.Error("out-of-range teleport accepted")
	}
	// The teleport is recorded in the trace as a move.
	if got := len(w.Trace().MovesBy(0)); got != 1 {
		t.Errorf("teleport not traced: %d moves", got)
	}
}

func TestFirstSync(t *testing.T) {
	s := FirstSync{Inner: RoundRobin{}}
	if got := s.Next(0, 4); len(got) != 4 {
		t.Errorf("instant 0 activated %v, want everyone", got)
	}
	if got := s.Next(1, 4); len(got) != 1 || got[0] != 1 {
		t.Errorf("instant 1 activated %v, want [1]", got)
	}
}

func TestViewAccessors(t *testing.T) {
	v := View{Self: 1, Points: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}}
	if v.N() != 2 {
		t.Errorf("N = %d", v.N())
	}
	if v.Other() != 0 {
		t.Errorf("Other = %d", v.Other())
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on 3 robots did not panic")
		}
	}()
	three := View{Self: 0, Points: make([]geom.Point, 3)}
	three.Other()
}

func TestWorldAccessorsAndRunError(t *testing.T) {
	w := newTestWorld(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)},
		[]Behavior{walker(1, 0), stay()},
	)
	if w.N() != 2 {
		t.Errorf("N = %d", w.N())
	}
	pos := w.Positions()
	if len(pos) != 2 || !pos[1].Eq(geom.Pt(3, 0)) {
		t.Errorf("Positions = %v", pos)
	}
	// Run propagates scheduler errors.
	if _, _, err := w.Run(BehaviorlessScheduler{}, 5, nil); err == nil {
		t.Error("empty-activation error not propagated by Run")
	}
	// Run with a nil predicate executes the full budget.
	steps, ok, err := w.Run(Synchronous{}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 || ok {
		t.Errorf("steps=%d ok=%v, want 3 false", steps, ok)
	}
}

func TestTraceAccessors(t *testing.T) {
	w := newTestWorld(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)},
		[]Behavior{walker(1, 0), stay()},
	)
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	tr := w.Trace()
	init := tr.Initial()
	if len(init) != 2 || !init[0].Eq(geom.Pt(0, 0)) {
		t.Errorf("Initial = %v", init)
	}
	moves := tr.Moves()
	if len(moves) != 2 {
		t.Fatalf("Moves = %d entries", len(moves))
	}
	if moves[0].Dist() == 0 && moves[1].Dist() == 0 {
		t.Error("all moves have zero distance")
	}
}

func TestSchedulerEdgeCases(t *testing.T) {
	// Starver with a negative victim clamps to robot 0.
	s := Starver{Victim: -3, Delay: 2}
	saw0 := false
	for i := 0; i < 6; i++ {
		for _, r := range s.Next(i, 3) {
			if r == 0 {
				saw0 = true
			}
		}
	}
	if !saw0 {
		t.Error("clamped victim never activated")
	}
	// RandomFair with a zero value works with defaults.
	var rf RandomFair
	if got := rf.Next(0, 3); len(got) == 0 {
		t.Error("zero-value RandomFair produced an empty activation")
	}
}

func TestLimitedVisibilityViews(t *testing.T) {
	var saw View
	b := BehaviorFunc(func(v View) geom.Point { saw = cloneView(v); return geom.Pt(0, 0) })
	robots := []*Robot{
		{Frame: geom.WorldFrame(), Sigma: 1, VisRadius: 5, Behavior: b},
		{Frame: geom.WorldFrame(), Sigma: 1, Behavior: stay()},
		{Frame: geom.WorldFrame(), Sigma: 1, Behavior: stay()},
	}
	w, err := NewWorld(Config{
		Positions: []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(30, 0)},
		Robots:    robots,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if saw.Visible == nil {
		t.Fatal("limited-visibility view carries no Visible mask")
	}
	if !saw.Visible[0] || !saw.Visible[1] || saw.Visible[2] {
		t.Errorf("Visible = %v, want [true true false]", saw.Visible)
	}
	// The near robot is seen where it is; the far robot's slot holds the
	// observer's own position (nothing sensed there).
	if !saw.Points[1].Eq(geom.Pt(3, 0)) {
		t.Errorf("near robot at %v", saw.Points[1])
	}
	if !saw.Points[2].Eq(geom.Pt(0, 0)) {
		t.Errorf("invisible robot leaked its position: %v", saw.Points[2])
	}
	// Unlimited robots see no mask at all.
	var sawFull View
	robots2 := []*Robot{
		{Frame: geom.WorldFrame(), Sigma: 1, Behavior: BehaviorFunc(func(v View) geom.Point { sawFull = cloneView(v); return geom.Pt(0, 0) })},
		{Frame: geom.WorldFrame(), Sigma: 1, Behavior: stay()},
	}
	w2, err := NewWorld(Config{Positions: []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}, Robots: robots2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if sawFull.Visible != nil {
		t.Error("unlimited visibility should carry a nil mask")
	}
}

func TestTraceWriteCSV(t *testing.T) {
	w := newTestWorld(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)},
		[]Behavior{walker(1, 0), stay()},
	)
	for i := 0; i < 2; i++ {
		if _, err := w.Step(Synchronous{}); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := w.Trace().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time,robot,x,y\n") {
		t.Errorf("missing header: %q", out[:20])
	}
	for _, row := range []string{"-1,0,0,0", "-1,1,3,0", "0,0,1,0", "1,0,2,0"} {
		if !strings.Contains(out, row+"\n") {
			t.Errorf("missing row %q in:\n%s", row, out)
		}
	}
}
