package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"time"

	"waggle/internal/geom"
	"waggle/internal/sim"
)

// The swarm workload runs the sim engine alone, with no protocol, at a
// size the chatting protocols cannot reach: uniform density (side
// sqrt(n)*10, so about 20 robots inside each sensor disc), sigma 0.5,
// the wander behavior below, the default engine and compact views, every
// robot active on every instant.
const (
	swarmN      = 100_000
	swarmSigma  = 0.5
	swarmRadius = 25
	swarmWarm   = 3 // instants before measuring, the first inside set-up
)

// wander steps a robot by sigma in a direction drawn from its own seeded
// stream, plus a tenth of the way toward the centroid of the robots in
// view. Centroid drift alone (the behavior of cmd/waggle-bench) clusters
// a uniform swarm, which makes an instant about a quarter cheaper over
// its first 70 instants: a slow host would then measure fewer of the
// cheap late instants. The random step keeps the density uniform, so
// every instant of a run costs the same.
type wander struct {
	key, k uint64 // the robot's stream and its activations so far
}

func (w *wander) Step(v sim.View) geom.Point {
	c := centroidDrift(v)
	w.k++
	a := float64(splitmix64(w.key+w.k)>>11) / (1 << 53) * 2 * math.Pi
	return geom.Pt(swarmSigma*math.Cos(a)+c.X, swarmSigma*math.Sin(a)+c.Y)
}

// splitmix64 is the SplitMix64 finalizer: a well-mixed hash of x.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// centroidDrift walks a tenth of the way toward the centroid of the
// robots in view (copied from cmd/waggle-bench/step.go).
func centroidDrift(v sim.View) geom.Point {
	var cx, cy float64
	n := 0
	for k, p := range v.Points {
		if v.Indices == nil && v.Visible != nil && !v.Visible[k] {
			continue
		}
		cx += p.X
		cy += p.Y
		n++
	}
	if n == 0 {
		return geom.Pt(0, 0)
	}
	return geom.Pt(cx/float64(n)*0.1, cy/float64(n)*0.1)
}

// swarmRig is one built swarm: the world and its scheduler.
type swarmRig struct {
	w     *sim.World
	sched sim.Scheduler // what World.Step calls (probed in a traced run)
	probe *simProbe
	prev  []geom.Point
}

// newSwarmRig builds the world from the seed (probed when p is non-nil)
// and runs its first instant.
func newSwarmRig(e *env, n int, p *simProbe) (*swarmRig, error) {
	rng := rand.New(rand.NewSource(e.seed))
	side := math.Sqrt(float64(n)) * 10
	pos := make([]geom.Point, n)
	robots := make([]*sim.Robot, n)
	for i := range pos {
		pos[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		var b sim.Behavior = &wander{key: splitmix64(uint64(e.seed)<<32 ^ uint64(i))}
		if p != nil {
			b = p.behavior(i, b)
		}
		robots[i] = &sim.Robot{Frame: geom.WorldFrame(), Sigma: swarmSigma, VisRadius: swarmRadius, Behavior: b}
	}
	w, err := sim.NewWorld(sim.Config{Positions: pos, Robots: robots})
	if err != nil {
		return nil, err
	}
	w.SetCompactViews(true)
	r := &swarmRig{w: w, sched: sim.Synchronous{}, probe: p, prev: make([]geom.Point, n)}
	if p != nil {
		r.sched = p.scheduler(r.sched, 0)
	}
	if _, err := r.step(); err != nil {
		return nil, err
	}
	return r, nil
}

// step runs one instant and returns its duration. The probe, if any,
// folds the instant with the step's observed end.
func (r *swarmRig) step() (time.Duration, error) {
	t := r.w.Time()
	start := time.Now()
	_, err := r.w.Step(r.sched)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	if r.probe != nil {
		r.probe.endInstant(t, r.probe.tr.now(), -1)
	}
	return d, nil
}

// checkedStep runs one instant outside the timed region's checks: every
// robot moved at most sigma and sits at a finite point.
func (r *swarmRig) checkedStep(e *env, rep *report) (time.Duration, error) {
	n := r.w.N()
	for i := 0; i < n; i++ {
		r.prev[i] = r.w.Position(i)
	}
	d, err := r.step()
	if err != nil {
		return 0, err
	}
	t := r.w.Time() - 1
	bad := 0
	for i := 0; i < n; i++ {
		p := r.w.Position(i)
		if p.Dist(r.prev[i]) > swarmSigma*(1+1e-9) || math.IsNaN(p.X) || math.IsNaN(p.Y) {
			bad++
		}
	}
	if bad > 0 {
		rep.fail(e, "instant %d: %d robots moved illegally", t, bad)
	}
	return d, nil
}

// digest hashes the final positions, bit for bit.
func (r *swarmRig) digest() string {
	h := sha256.New()
	var buf [16]byte
	for i := 0; i < r.w.N(); i++ {
		p := r.w.Position(i)
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// swarmPassResult is what one pass of instants measured.
type swarmPassResult struct {
	latMS []float64
	units []workUnit
	total int64 // ns
}

// swarmPass measures instants until the window elapses (window > 0) or
// exactly `steps` of them.
func swarmPass(e *env, rep *report, r *swarmRig, window time.Duration, steps int) (*swarmPassResult, error) {
	for i := 1; i < swarmWarm; i++ {
		if _, err := r.step(); err != nil {
			return nil, err
		}
	}
	if r.probe != nil {
		r.probe.reset()
	}
	res := &swarmPassResult{}
	deadline := time.Now().Add(window)
	for i := 0; window > 0 && time.Now().Before(deadline) || window <= 0 && i < steps; i++ {
		rep.attempted++
		d, err := r.checkedStep(e, rep)
		if err != nil {
			return nil, err
		}
		res.latMS = append(res.latMS, float64(d)/1e6)
		res.units = append(res.units, workUnit{ops: 1, ns: int64(d)})
		res.total += int64(d)
	}
	return res, nil
}

// runSwarm measures instants of the 100k-robot swarm. The traced run
// repeats the same instants on a probed world and requires the same
// final-position digest.
func runSwarm(e *env) (*report, error) {
	n := swarmN
	if e.smoke {
		n = 2000
	}
	rep := newReport()
	var r *swarmRig
	err := e.setup(rep, func(int) error {
		var err error
		r, err = newSwarmRig(e, n, nil)
		return err
	}, func() error { r = nil; return nil })
	if err != nil {
		return nil, err
	}
	window := e.seconds
	if e.tr != nil {
		window /= 2
	}
	base, err := swarmPass(e, rep, r, window, 0)
	if err != nil {
		return nil, err
	}
	e.logf("%s", pctLine("step", base.latMS))
	digest := r.digest()
	e.logf("final-position digest %s after %d instants", digest, r.w.Time())
	if e.tr == nil {
		rep.latMS, rep.units = base.latMS, base.units
		return rep, nil
	}

	r = nil
	runtime.GC()
	p := newSimProbe(e.tr, n)
	if r, err = newSwarmRig(e, n, p); err != nil {
		return nil, err
	}
	traced, err := swarmPass(e, rep, r, 0, len(base.latMS))
	if err != nil {
		return nil, err
	}
	if got := r.digest(); got != digest {
		rep.fail(e, "traced run's final-position digest %s differs from the untraced %s", got, digest)
	}
	m := rep.layer
	m["trace.overhead_pct"] = 100 * (ratio(median(traced.latMS), median(base.latMS)) - 1)
	p.layerMetrics(traced.total, m)
	for _, l := range p.lines() {
		e.logf("%s", l)
	}
	e.logf("trace overhead %.1f%% (p50 step, %d instants each)", m["trace.overhead_pct"], len(base.latMS))
	return rep, nil
}
