package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"waggle/internal/geom"
	"waggle/internal/sim"
)

// span is one timed interval of a traced run. Per-robot Behavior calls
// are folded into one span per instant that carries their count and
// summed busy time.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	ID     int64  `json:"id"`     // round, instant or request id
	Count  int    `json:"count,omitempty"`
	BusyNs int64  `json:"busy_ns,omitempty"`
}

// tracer is a traced run's clock and, when the spans are to be written
// out, their store: spans stay in memory until the run ends. Times are
// nanoseconds since the tracer was made.
type tracer struct {
	base  time.Time
	keep  bool
	mu    sync.Mutex
	spans []span
}

func newTracer(keep bool) *tracer { return &tracer{base: time.Now(), keep: keep} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a span and returns its index, the Parent of its children
// (-1 when spans are not kept).
func (t *tracer) add(s span) int {
	if !t.keep {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// setEnd closes a span opened before its children were known.
func (t *tracer) setEnd(idx int, end int64) {
	if idx < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = end
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// simProbe times the sim layer from outside. It wraps the Scheduler
// (whose Next opens World.Step), every robot's Behavior, and, where the
// caller cannot see World.Step return, a stream sink (whose EndStep
// closes the apply loop), and after each instant folds the per-robot
// timings into the instant's phases:
//
//	schedule  Next start .. Next end
//	prepare   Next end .. first Behavior start
//	compute   first Behavior start .. last Behavior end
//	apply     last Behavior end .. step end
//
// The four phases tile the step, so they sum to it on every instant as
// long as the events arrive in that order; an instant where they do not
// is counted in violations. Each robot writes only its own slot and the
// engine joins its workers before applying moves, so the slots need no
// locking.
type simProbe struct {
	tr    *tracer
	slots []callSlot
	// active, base (the slot of robot 0 of the world stepping) and the
	// stamps below describe the instant in progress.
	active              []int
	base                int
	stepStart, schedEnd int64
	sinkEnd             int64

	tot        simTotals
	violations int
	// steady holds the durations (µs) of activations after each robot's
	// first, up to maxSteadySamples of them. The first activations (the
	// protocols' preprocessing) are summed apart and survive reset.
	steady           []float64
	firstBusy        int64
	firstActivations int
}

// callSlot is one robot's latest Behavior call.
type callSlot struct {
	start, end int64
	points     int
	activated  bool // the robot has had its first activation
}

// simTotals accumulates instants' phases, in nanoseconds.
type simTotals struct {
	instants                                int
	step, schedule, prepare, compute, apply int64
	busy                                    int64
	activations, points                     int
}

const maxSteadySamples = 1 << 16

func newSimProbe(tr *tracer, n int) *simProbe {
	return &simProbe{tr: tr, slots: make([]callSlot, n)}
}

// scheduler wraps s so the probe sees each step start of the world whose
// robot 0 has slot base.
func (p *simProbe) scheduler(s sim.Scheduler, base int) sim.Scheduler {
	return probedScheduler{p, s, base}
}

// behavior wraps robot i's behavior.
func (p *simProbe) behavior(i int, b sim.Behavior) sim.Behavior {
	return &probedBehavior{p: p, slot: &p.slots[i], inner: b}
}

// sink returns a stream sink that marks the end of the apply loop.
func (p *simProbe) sink() sim.StreamSink { return endMarker{p} }

type probedScheduler struct {
	p     *simProbe
	inner sim.Scheduler
	base  int
}

func (s probedScheduler) Next(t, n int) []int {
	p := s.p
	p.stepStart = p.tr.now()
	p.sinkEnd = 0
	p.active, p.base = s.inner.Next(t, n), s.base
	p.schedEnd = p.tr.now()
	return p.active
}

type probedBehavior struct {
	p     *simProbe
	slot  *callSlot
	inner sim.Behavior
}

func (b *probedBehavior) Step(v sim.View) geom.Point {
	start := b.p.tr.now()
	dest := b.inner.Step(v)
	b.slot.start, b.slot.end, b.slot.points = start, b.p.tr.now(), len(v.Points)
	return dest
}

type endMarker struct{ p *simProbe }

func (endMarker) RecordMove(t, robot int, to geom.Point) {}

func (s endMarker) EndStep(t int, active []int) { s.p.sinkEnd = s.p.tr.now() }

// endInstant folds the instant that just ran. stepEnd is when the caller
// saw World.Step return, or 0 to close the step at the sink's EndStep
// (when World.Step runs inside core.Network.Step and its return is not
// observable). parent is the span the instant belongs to.
func (p *simProbe) endInstant(t int, stepEnd int64, parent int) {
	if stepEnd == 0 {
		stepEnd = p.sinkEnd
	}
	first, last := int64(-1), int64(-1)
	var busy int64
	points := 0
	for _, i := range p.active {
		sl := &p.slots[p.base+i]
		d := sl.end - sl.start
		if first < 0 || sl.start < first {
			first = sl.start
		}
		if sl.end > last {
			last = sl.end
		}
		busy += d
		points += sl.points
		if !sl.activated {
			sl.activated = true
			p.firstBusy += d
			p.firstActivations++
			continue
		}
		if len(p.steady) < maxSteadySamples {
			p.steady = append(p.steady, float64(d)/1e3)
		}
	}
	if first < 0 { // no behavior ran (every active robot crash-stopped)
		first, last = p.schedEnd, p.schedEnd
	}
	if !(p.stepStart <= p.schedEnd && p.schedEnd <= first && first <= last && last <= stepEnd) {
		p.violations++
	}
	tt := &p.tot
	tt.instants++
	tt.step += stepEnd - p.stepStart
	tt.schedule += p.schedEnd - p.stepStart
	tt.prepare += first - p.schedEnd
	tt.compute += last - first
	tt.apply += stepEnd - last
	tt.busy += busy
	tt.activations += len(p.active)
	tt.points += points
	if p.tr.keep {
		step := p.tr.add(span{Name: "sim.step", Start: p.stepStart, End: stepEnd, Parent: parent, ID: int64(t)})
		p.tr.add(span{Name: "sim.schedule", Start: p.stepStart, End: p.schedEnd, Parent: step, ID: int64(t)})
		p.tr.add(span{Name: "sim.prepare", Start: p.schedEnd, End: first, Parent: step, ID: int64(t)})
		p.tr.add(span{Name: "sim.compute", Start: first, End: last, Parent: step, ID: int64(t), Count: len(p.active), BusyNs: busy})
		p.tr.add(span{Name: "sim.apply", Start: last, End: stepEnd, Parent: step, ID: int64(t)})
	}
}

// reset forgets the totals (first-activation marks survive), so a run
// can fold its warm-up instants and then measure from zero.
func (p *simProbe) reset() {
	p.tot = simTotals{}
	p.steady = p.steady[:0]
	p.violations = 0
}

// layerMetrics reports the sim-layer per-layer metrics as shares of
// opNs, the run's total op time.
func (p *simProbe) layerMetrics(opNs int64, m map[string]float64) {
	tt := p.tot
	op := float64(opNs)
	m["sim.step_pct"] = share(float64(tt.step), op)
	m["sim.schedule_pct"] = share(float64(tt.schedule), op)
	m["sim.prepare_pct"] = share(float64(tt.prepare), op)
	m["sim.compute_pct"] = share(float64(tt.compute), op)
	m["sim.apply_pct"] = share(float64(tt.apply), op)
	procs := float64(runtime.GOMAXPROCS(0))
	m["sim.behavior_pct"] = share(float64(tt.busy), op*procs)
	m["sim.parallel_util"] = ratio(float64(tt.busy), float64(tt.compute)*procs)
	m["sim.activations_per_step"] = ratio(float64(tt.activations), float64(tt.instants))
	m["sim.view_points_per_activation"] = ratio(float64(tt.points), float64(tt.activations))
}

// firstActivationRatio is the mean first activation over the median
// later one: how many steady activations the protocols' preprocessing
// costs.
func (p *simProbe) firstActivationRatio() float64 {
	if len(p.steady) == 0 {
		return 0
	}
	firstUS := ratio(float64(p.firstBusy), float64(p.firstActivations)) / 1e3
	return ratio(firstUS, median(p.steady))
}

// lines prints the sim layer's absolute numbers.
func (p *simProbe) lines() []string {
	tt := p.tot
	per := func(ns int64) float64 { return ratio(float64(ns), float64(tt.instants)) / 1e6 }
	out := []string{fmt.Sprintf("sim: %d instants, mean step %.3f ms = schedule %.3f + prepare %.3f + compute %.3f + apply %.3f ms; behavior busy %.3f ms/instant; phase-order violations %d",
		tt.instants, per(tt.step), per(tt.schedule), per(tt.prepare), per(tt.compute), per(tt.apply), per(tt.busy), p.violations)}
	if len(p.steady) > 0 {
		s := sortedCopy(p.steady)
		out = append(out, fmt.Sprintf("behavior: activation p50 %.2f µs (n=%d); first activations %d, mean %.3f ms",
			quantile(s, 0.5), len(s), p.firstActivations, ratio(float64(p.firstBusy), float64(p.firstActivations))/1e6))
	}
	return out
}
