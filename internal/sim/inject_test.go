package sim

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"waggle/internal/geom"
	"waggle/internal/obs"
)

// marcher moves one unit along +x every activation.
type marcher struct{}

func (marcher) Step(v View) geom.Point { return v.Points[v.Self].Add(geom.V(1, 0)) }

func injectWorld(t *testing.T, n int) *World {
	t.Helper()
	positions := make([]geom.Point, n)
	robots := make([]*Robot, n)
	for i := range positions {
		positions[i] = geom.Pt(float64(i)*10, 0)
		robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 1e9, Behavior: marcher{}}
	}
	w, err := NewWorld(Config{Positions: positions, Robots: robots})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// scriptInjector records the hook call order and applies scripted
// transformations. The parallel engine calls PerturbView from its
// workers, so that hook appends to the log under mu.
type scriptInjector struct {
	mu        sync.Mutex
	log       []string
	filter    func(t int, active []int) []int
	viewShift geom.Vec
	moveScale float64
	badDest   bool
}

func (s *scriptInjector) BeginStep(t int, w *World) { s.log = append(s.log, "begin") }

func (s *scriptInjector) FilterActive(t int, active []int) []int {
	s.log = append(s.log, "filter")
	if s.filter != nil {
		return s.filter(t, active)
	}
	return active
}

func (s *scriptInjector) PerturbView(t, observer int, frame geom.Frame, view View) View {
	s.mu.Lock()
	s.log = append(s.log, "view")
	s.mu.Unlock()
	for j := range view.Points {
		if j != view.Self {
			view.Points[j] = view.Points[j].Add(s.viewShift)
		}
	}
	return view
}

func (s *scriptInjector) PerturbMove(t, robot int, from, dest geom.Point) geom.Point {
	s.log = append(s.log, "move")
	if s.badDest {
		return geom.Pt(math.NaN(), 0)
	}
	if s.moveScale != 0 {
		return from.Add(dest.Sub(from).Scale(s.moveScale))
	}
	return dest
}

func (s *scriptInjector) AppendEvents(dst []obs.Event) []obs.Event { return dst }

func TestInjectorHookOrder(t *testing.T) {
	w := injectWorld(t, 2)
	inj := &scriptInjector{}
	w.SetInjector(inj)
	if w.Injector() != inj {
		t.Fatal("Injector accessor broken")
	}
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(inj.log, " ")
	want := "begin filter view view move move"
	if got != want {
		t.Errorf("hook order %q, want %q", got, want)
	}
}

func TestInjectorCrashStopsEverything(t *testing.T) {
	w := injectWorld(t, 3)
	inj := &scriptInjector{filter: func(tt int, active []int) []int {
		// Crash-stop robot 1 at every instant.
		out := active[:0]
		for _, i := range active {
			if i != 1 {
				out = append(out, i)
			}
		}
		return out
	}}
	w.SetInjector(inj)
	for k := 0; k < 4; k++ {
		active, err := w.Step(Synchronous{})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range active {
			if i == 1 {
				t.Fatal("crashed robot reported active")
			}
		}
	}
	if got := w.Position(1); got != geom.Pt(10, 0) {
		t.Errorf("crashed robot moved to %v", got)
	}
	if got := w.Position(0); got != geom.Pt(4, 0) {
		t.Errorf("healthy robot at %v, want (4,0)", got)
	}
	if w.Time() != 4 {
		t.Errorf("time %d, want 4", w.Time())
	}
}

func TestInjectorEmptyActivationSetAdvancesTime(t *testing.T) {
	w := injectWorld(t, 2)
	w.SetInjector(&scriptInjector{filter: func(int, []int) []int { return nil }})
	active, err := w.Step(Synchronous{})
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != 0 {
		t.Errorf("active = %v, want none", active)
	}
	if w.Time() != 1 {
		t.Errorf("time %d, want 1 (the instant still passes)", w.Time())
	}
	if got := w.Position(0); got != geom.Pt(0, 0) {
		t.Errorf("robot moved with an empty activation set: %v", got)
	}
}

func TestInjectorPerturbMoveApplied(t *testing.T) {
	w := injectWorld(t, 2)
	w.SetInjector(&scriptInjector{moveScale: 0.5})
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if got := w.Position(0); got != geom.Pt(0.5, 0) {
		t.Errorf("truncated move landed at %v, want (0.5,0)", got)
	}
}

func TestInjectorNonFiniteDestinationRejected(t *testing.T) {
	w := injectWorld(t, 2)
	w.SetInjector(&scriptInjector{badDest: true})
	if _, err := w.Step(Synchronous{}); err == nil {
		t.Error("non-finite injected destination accepted")
	}
}

func TestInjectorDetach(t *testing.T) {
	w := injectWorld(t, 2)
	inj := &scriptInjector{}
	w.SetInjector(inj)
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	w.SetInjector(nil)
	n := len(inj.log)
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if len(inj.log) != n {
		t.Error("detached injector still invoked")
	}
}

// TestInjectorViewPerturbationReachesBehavior verifies the perturbed
// view is what the behavior actually observes, under both engines.
func TestInjectorViewPerturbationReachesBehavior(t *testing.T) {
	for _, mode := range []EngineMode{EngineSequential, EngineParallel} {
		positions := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
		seen := make([]geom.Point, 2)
		robots := make([]*Robot, 2)
		for i := range robots {
			i := i
			robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 1e9, Behavior: behaviorFunc(func(v View) geom.Point {
				seen[i] = v.Points[1-v.Self]
				return v.Points[v.Self]
			})}
		}
		w, err := NewWorld(Config{Positions: positions, Robots: robots, Engine: mode})
		if err != nil {
			t.Fatal(err)
		}
		w.SetInjector(&scriptInjector{viewShift: geom.V(0, 5)})
		if _, err := w.Step(Synchronous{}); err != nil {
			t.Fatal(err)
		}
		// Views are egocentric: each robot observes the other relative to
		// its own position, plus the injected (0,5) shift.
		if seen[0] != geom.Pt(10, 5) || seen[1] != geom.Pt(-10, 5) {
			t.Errorf("engine %v: behaviors saw %v, want shifted views", mode, seen)
		}
	}
}

type behaviorFunc func(View) geom.Point

func (f behaviorFunc) Step(v View) geom.Point { return f(v) }

// displacer teleports robot 1 from BeginStep, as fault displacements do.
type displacer struct{ scriptInjector }

func (d *displacer) BeginStep(t int, w *World) { _ = w.Teleport(1, geom.Pt(50, 0)) }

// recordLog keeps a copy of every record the world closes.
type recordLog struct {
	w    *World
	recs []Record
}

func (l *recordLog) EndStep(t int, active []int) {
	r := *l.w.Record()
	r.Active = append([]int(nil), r.Active...)
	r.Moves = append([]Move(nil), r.Moves...)
	l.recs = append(l.recs, r)
}

// TestRecordOutOfStep pins the record's two shapes: a Teleport between
// instants closes a one-move out-of-step record at once, while an
// injector displacement joins its instant's record ahead of the apply
// loop's moves. Every consumer — sink, trace, touch set — sees both.
func TestRecordOutOfStep(t *testing.T) {
	w := newTestWorld(t, []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}, []Behavior{walker(1, 0), walker(1, 0)})
	log := &recordLog{w: w}
	w.SetStreamSink(log)
	w.EnableTouchTracking()
	if err := w.Teleport(0, geom.Pt(5, 5)); err != nil {
		t.Fatal(err)
	}
	if len(log.recs) != 1 {
		t.Fatalf("teleport closed %d records, want 1", len(log.recs))
	}
	if r := log.recs[0]; r.InStep || r.Time != 0 || r.Active != nil || len(r.Moves) != 1 ||
		r.Moves[0] != (Move{Time: 0, Robot: 0, From: geom.Pt(0, 0), To: geom.Pt(5, 5)}) {
		t.Errorf("out-of-step record = %+v", r)
	}
	if got := w.AppendTouchedSince(0, nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("touched after teleport = %v, want [0]", got)
	}
	w.SetInjector(&displacer{})
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if len(log.recs) != 2 {
		t.Fatalf("step closed %d records, want 1", len(log.recs)-1)
	}
	r := log.recs[1]
	want := []Move{
		{Time: 0, Robot: 1, From: geom.Pt(10, 0), To: geom.Pt(50, 0)},
		{Time: 0, Robot: 0, From: geom.Pt(5, 5), To: geom.Pt(6, 5)},
		{Time: 0, Robot: 1, From: geom.Pt(50, 0), To: geom.Pt(51, 0)},
	}
	if !r.InStep || r.Time != 0 || len(r.Active) != 2 || !reflect.DeepEqual(r.Moves, want) {
		t.Errorf("instant record = %+v, want moves %v", r, want)
	}
	if got := len(w.Trace().Moves()); got != 4 {
		t.Errorf("trace holds %d moves, want 4", got)
	}
}
