package fault

import (
	"math"
	"testing"

	"waggle/internal/geom"
	"waggle/internal/sim"
)

// still is a behavior that never moves.
type still struct{}

func (still) Step(v sim.View) geom.Point { return v.Points[v.Self] }

func testWorld(t *testing.T, positions []geom.Point) *sim.World {
	t.Helper()
	robots := make([]*sim.Robot, len(positions))
	for i := range robots {
		robots[i] = &sim.Robot{Frame: geom.WorldFrame(), Sigma: 1e9, Behavior: still{}}
	}
	w, err := sim.NewWorld(sim.Config{Positions: positions, Robots: robots})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		e    Event
	}{
		{"zero kind", Event{At: 0, Until: 10}},
		{"unknown kind", Event{Kind: JamRamp + 1, At: 0, Until: 10}},
		{"robot out of range", Event{Kind: Crash, Robot: 4, At: 0, Until: 10}},
		{"robot negative non-sentinel", Event{Kind: Crash, Robot: -2, At: 0, Until: 10}},
		{"negative start", Event{Kind: Crash, At: -1, Until: 10}},
		{"empty window", Event{Kind: ObserveNoise, At: 10, Until: 10}},
		{"inverted window", Event{Kind: DropSight, At: 10, Until: 5, Mag: 0.5}},
		{"NaN noise", Event{Kind: ObserveNoise, At: 0, Until: 10, Mag: math.NaN()}},
		{"negative noise", Event{Kind: ObserveNoise, At: 0, Until: 10, Mag: -1}},
		{"infinite noise", Event{Kind: ObserveNoise, At: 0, Until: 10, Mag: math.Inf(1)}},
		{"drop prob above 1", Event{Kind: DropSight, At: 0, Until: 10, Mag: 1.5}},
		{"move range inverted", Event{Kind: MoveError, At: 0, Until: 10, Min: 2, Max: 1}},
		{"move range negative", Event{Kind: MoveError, At: 0, Until: 10, Min: -0.5, Max: 1}},
		{"move range NaN", Event{Kind: MoveError, At: 0, Until: 10, Min: math.NaN(), Max: 1}},
		{"jam prob above 1", Event{Kind: JamRamp, At: 0, Until: 10, Min: 0, Max: 1.2}},
		{"jam prob NaN", Event{Kind: JamRamp, At: 0, Until: 10, Min: math.NaN(), Max: 1}},
		{"displacement NaN", Event{Kind: Displace, At: 0, Delta: geom.V(math.NaN(), 0)}},
		{"displacement infinite", Event{Kind: Displace, At: 0, Delta: geom.V(0, math.Inf(-1))}},
	}
	for _, c := range cases {
		if err := (Plan{Events: []Event{c.e}}).Validate(4); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	ok := Plan{Events: []Event{
		{Kind: Crash, Robot: 0, At: 5},                               // crash-stop forever
		{Kind: Crash, Robot: AllRobots, At: 0, Until: 3},             // crash-recover, everyone
		{Kind: Displace, Robot: 1, At: 7, Delta: geom.V(1, 2)},       // no window needed
		{Kind: MoveError, Robot: 2, At: 0, Until: 9, Min: 1, Max: 1}, // degenerate range
	}}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestPlanEndAndNeedsRadio(t *testing.T) {
	if end := (Plan{}).End(); end != 0 {
		t.Errorf("empty plan End() = %d", end)
	}
	p := Plan{Events: []Event{
		{Kind: Displace, Robot: 0, At: 30, Delta: geom.V(1, 0)},
		{Kind: ObserveNoise, Robot: AllRobots, At: 10, Until: 50, Mag: 1},
	}}
	if end := p.End(); end != 50 {
		t.Errorf("End() = %d, want 50", end)
	}
	if p.NeedsRadio() {
		t.Error("movement-only plan claims to need a radio")
	}
	p.Events = append(p.Events, Event{Kind: JamRamp, At: 60, Until: 70, Max: 1})
	if end := p.End(); end != 70 {
		t.Errorf("End() = %d, want 70", end)
	}
	if !p.NeedsRadio() {
		t.Error("jam plan does not need a radio")
	}
	forever := Plan{Events: []Event{{Kind: Crash, Robot: 0, At: 5}}}
	if end := forever.End(); end != -1 {
		t.Errorf("never-ending plan End() = %d, want -1", end)
	}
}

func TestInjectorCrashFilter(t *testing.T) {
	plan := Plan{Events: []Event{{Kind: Crash, Robot: 1, At: 5, Until: 8}}}
	inj, err := NewInjector(plan, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorld(t, []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10)})
	check := func(tt int, want []int) {
		t.Helper()
		inj.BeginStep(tt, w)
		got := inj.FilterActive(tt, []int{0, 1, 2})
		if len(got) != len(want) {
			t.Fatalf("t=%d: active %v, want %v", tt, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("t=%d: active %v, want %v", tt, got, want)
			}
		}
	}
	check(4, []int{0, 1, 2})
	check(5, []int{0, 2})
	check(7, []int{0, 2})
	check(8, []int{0, 1, 2})
	if !inj.Crashed(6, 1) || inj.Crashed(6, 0) || inj.Crashed(8, 1) {
		t.Error("Crashed window wrong")
	}
}

func TestInjectorDisplace(t *testing.T) {
	plan := Plan{Events: []Event{{Kind: Displace, Robot: 0, At: 3, Delta: geom.V(2, -1)}}}
	inj, err := NewInjector(plan, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorld(t, []geom.Point{geom.Pt(1, 1), geom.Pt(9, 9)})
	inj.BeginStep(2, w)
	if got := w.Position(0); got != geom.Pt(1, 1) {
		t.Fatalf("displaced early: %v", got)
	}
	inj.BeginStep(3, w)
	if got := w.Position(0); got != geom.Pt(3, 0) {
		t.Fatalf("position after displacement %v, want (3,0)", got)
	}
	inj.BeginStep(4, w)
	if got := w.Position(0); got != geom.Pt(3, 0) {
		t.Fatalf("displacement applied twice: %v", got)
	}
}

// recordingRadio records the injector's control calls.
type recordingRadio struct {
	calls []string
	jams  []float64
}

func (r *recordingRadio) Break(i int) error  { r.calls = append(r.calls, "break"); return nil }
func (r *recordingRadio) Repair(i int) error { r.calls = append(r.calls, "repair"); return nil }
func (r *recordingRadio) SetJamming(p float64) error {
	r.calls = append(r.calls, "jam")
	r.jams = append(r.jams, p)
	return nil
}

func TestInjectorRadioOutageEdges(t *testing.T) {
	plan := Plan{Events: []Event{{Kind: RadioOutage, Robot: 1, At: 2, Until: 4}}}
	inj, err := NewInjector(plan, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	radio := &recordingRadio{}
	if err := inj.AttachRadio(radio); err != nil {
		t.Fatal(err)
	}
	w := testWorld(t, []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)})
	for tt := 0; tt < 6; tt++ {
		inj.BeginStep(tt, w)
	}
	// Exactly one Break at the window start and one Repair at its end —
	// edge-triggered, so manual radio control between them is untouched.
	if len(radio.calls) != 2 || radio.calls[0] != "break" || radio.calls[1] != "repair" {
		t.Errorf("radio calls %v, want [break repair]", radio.calls)
	}
}

func TestInjectorJamRamp(t *testing.T) {
	plan := Plan{Events: []Event{{Kind: JamRamp, Robot: AllRobots, At: 10, Until: 14, Min: 0.2, Max: 0.8}}}
	inj, err := NewInjector(plan, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	radio := &recordingRadio{}
	if err := inj.AttachRadio(radio); err != nil {
		t.Fatal(err)
	}
	w := testWorld(t, []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)})
	for tt := 9; tt <= 15; tt++ {
		inj.BeginStep(tt, w)
	}
	// Linear from Min at t=10 to Max at t=13, then one restore to 0.
	want := []float64{0.2, 0.4, 0.6, 0.8, 0}
	if len(radio.jams) != len(want) {
		t.Fatalf("jam values %v, want %v", radio.jams, want)
	}
	for k := range want {
		if math.Abs(radio.jams[k]-want[k]) > 1e-12 {
			t.Fatalf("jam values %v, want %v", radio.jams, want)
		}
	}
}

func TestAttachRadioRequired(t *testing.T) {
	plan := Plan{Events: []Event{{Kind: RadioOutage, Robot: 0, At: 0, Until: 5}}}
	inj, err := NewInjector(plan, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.AttachRadio(nil); err == nil {
		t.Error("radio plan accepted a nil radio")
	}
	clean, err := NewInjector(Plan{}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.AttachRadio(nil); err != nil {
		t.Errorf("fault-free plan rejected a nil radio: %v", err)
	}
}

func viewFor(positions []geom.Point, self, time int) sim.View {
	pts := append([]geom.Point(nil), positions...)
	return sim.View{Time: time, Self: self, Points: pts}
}

func TestPerturbViewNoiseDeterministic(t *testing.T) {
	positions := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10)}
	plan := Plan{Events: []Event{{Kind: ObserveNoise, Robot: AllRobots, At: 0, Until: 100, Mag: 0.5}}}
	frame := geom.WorldFrame()
	build := func(seed int64) *Injector {
		inj, err := NewInjector(plan, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	a := build(7).PerturbView(3, 1, frame, viewFor(positions, 1, 3))
	b := build(7).PerturbView(3, 1, frame, viewFor(positions, 1, 3))
	for j := range a.Points {
		if a.Points[j] != b.Points[j] {
			t.Fatalf("same (seed,t,observer) produced different noise: %v vs %v", a.Points, b.Points)
		}
	}
	if a.Points[1] != positions[1] {
		t.Error("observer's own sighting was perturbed")
	}
	if a.Points[0] == positions[0] && a.Points[2] == positions[2] {
		t.Error("no sighting was perturbed")
	}
	c := build(8).PerturbView(3, 1, frame, viewFor(positions, 1, 3))
	same := true
	for j := range a.Points {
		if a.Points[j] != c.Points[j] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestPerturbViewDropSight(t *testing.T) {
	positions := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10)}
	plan := Plan{Events: []Event{{Kind: DropSight, Robot: 0, At: 0, Until: 10, Mag: 1}}}
	inj, err := NewInjector(plan, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := inj.PerturbView(2, 0, geom.WorldFrame(), viewFor(positions, 0, 2))
	if v.Visible == nil {
		t.Fatal("drop-sight left Visible nil")
	}
	if !v.Visible[0] {
		t.Error("observer lost sight of itself")
	}
	for _, j := range []int{1, 2} {
		if v.Visible[j] {
			t.Errorf("sighting of robot %d survived drop probability 1", j)
		}
		if v.Points[j] != positions[0] {
			t.Errorf("dropped slot %d holds %v, want the observer's own position", j, v.Points[j])
		}
	}
	// An untargeted observer is untouched.
	u := inj.PerturbView(2, 1, geom.WorldFrame(), viewFor(positions, 1, 2))
	if u.Visible != nil {
		t.Error("drop-sight leaked onto an untargeted observer")
	}
}

func TestPerturbMoveRange(t *testing.T) {
	plan := Plan{Events: []Event{{Kind: MoveError, Robot: 0, At: 0, Until: 1000, Min: 0.25, Max: 0.75}}}
	inj, err := NewInjector(plan, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	from, dest := geom.Pt(0, 0), geom.Pt(4, 0)
	sawLow, sawHigh := false, false
	for tt := 0; tt < 200; tt++ {
		got := inj.PerturbMove(tt, 0, from, dest)
		f := got.X / dest.X
		if f < 0.25 || f > 0.75 {
			t.Fatalf("t=%d: scale factor %v outside [0.25,0.75]", tt, f)
		}
		if f < 0.4 {
			sawLow = true
		}
		if f > 0.6 {
			sawHigh = true
		}
		if again := inj.PerturbMove(tt, 0, from, dest); again != got {
			t.Fatalf("t=%d: PerturbMove not deterministic", tt)
		}
	}
	if !sawLow || !sawHigh {
		t.Error("200 draws never spanned the factor range")
	}
	if got := inj.PerturbMove(5, 1, from, dest); got != dest {
		t.Errorf("untargeted robot's move was perturbed to %v", got)
	}
}

func TestNewInjectorValidation(t *testing.T) {
	if _, err := NewInjector(Plan{}, 0, 1); err == nil {
		t.Error("zero robots accepted")
	}
	bad := Plan{Events: []Event{{Kind: Crash, Robot: 9, At: 0, Until: 5}}}
	if _, err := NewInjector(bad, 3, 1); err == nil {
		t.Error("invalid plan accepted")
	}
}

// TestNewInjectorAllocations: compiling a plan without DropSight events
// allocates no per-robot drop masks, so the allocation count does not
// grow with n (one n-long mask per robot would be n allocations).
func TestNewInjectorAllocations(t *testing.T) {
	const n = 4096
	plan := Plan{Events: []Event{{Kind: Crash, Robot: 1, At: 5, Until: 8}}}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewInjector(plan, n, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("NewInjector of a crash-only plan at n=%d allocates %.0f objects, want at most 8", n, allocs)
	}
}

func TestKindString(t *testing.T) {
	for k := Crash; k <= JamRamp; k++ {
		if s := k.String(); s == "" || s == "Kind(0)" {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if s := Kind(0).String(); s != "Kind(0)" {
		t.Errorf("zero kind String() = %q", s)
	}
}
