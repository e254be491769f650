package main

import (
	"math"
	"math/rand"

	"waggle/internal/core"
	"waggle/internal/geom"
	"waggle/internal/protocol"
	"waggle/internal/sim"
)

// newChatStack assembles one chat swarm from the internal packages,
// exactly as waggle.NewSwarm wires them for the options the chat workload
// passes (anonymous robots, SEC naming, default sigma and the seed): the
// frames of buildFrames, the protocol of buildProtocol and the scheduler
// of buildScheduler. The only difference is that the probe wraps the
// scheduler and every behavior and attaches a stream sink, which the
// facade does not expose; robot i has the probe's slot base+i. TestStackMatchesFacade
// pins that the stack runs the program users call: same deliveries,
// instants and final positions.
func newChatStack(pts []geom.Point, seed int64, p *simProbe, base int) (*core.Network, error) {
	n := len(pts)
	sigma := math.MaxFloat64 / 4 // the facade's default: unbounded moves
	rng := rand.New(rand.NewSource(seed ^ 0x5747A661E))
	frames := make([]geom.Frame, n)
	sigmaLocal := make([]float64, n)
	for i := range frames {
		theta := rng.Float64() * 2 * math.Pi
		scale := 0.5 + rng.Float64()*2
		frames[i] = geom.NewFrame(geom.Point{}, theta, scale, geom.RightHanded)
		sigmaLocal[i] = sigma / scale
	}
	behaviors, endpoints, err := protocol.NewAsyncN(n, protocol.AsyncNConfig{Naming: protocol.NamingSEC, SigmaLocal: sigmaLocal})
	if err != nil {
		return nil, err
	}
	robots := make([]*sim.Robot, n)
	for i := range robots {
		robots[i] = &sim.Robot{Frame: frames[i], Sigma: sigma, Behavior: p.behavior(base+i, behaviors[i])}
	}
	world, err := sim.NewWorld(sim.Config{Positions: pts, Robots: robots, Engine: sim.EngineAuto})
	if err != nil {
		return nil, err
	}
	world.SetStreamSink(p.sink())
	sched := sim.FirstSync{Inner: sim.NewRandomFair(seed)}
	return core.NewNetwork(world, p.scheduler(sched, base), endpoints)
}

// newChatStacks builds one probed stack per placement, with the seeds
// newChatSwarms uses, and runs its instant 0. Robot i of the k-th stack
// has the probe's slot k*n+i.
func newChatStacks(places [][]geom.Point, seed int64, p *simProbe) ([]*stackDriver, error) {
	out := make([]*stackDriver, len(places))
	for k, pts := range places {
		net, err := newChatStack(pts, chatSeed(seed, k), p, k*len(pts))
		if err != nil {
			return nil, err
		}
		sd := &stackDriver{net: net, p: p, parent: -1}
		if err := sd.step(); err != nil {
			return nil, err
		}
		out[k] = sd
	}
	return out, nil
}
