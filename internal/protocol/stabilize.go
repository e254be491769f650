package protocol

import (
	"fmt"

	"waggle/internal/geom"
	"waggle/internal/sim"
)

// Stabilizing implements the paper's §5 stabilization sketch for the
// synchronous setting: "assuming a global clock ... returning to the
// initial location and (re)computing the preprocessing phase every
// round timestamp". Every Epoch instants the wrapper discards the
// inner protocol behavior and builds a fresh one, which re-runs the
// whole preprocessing (granulars, naming) from the configuration it
// then observes. Any transient fault — corrupted robot memory, a robot
// forcibly displaced (sim.World.Teleport) — is therefore flushed within
// one epoch: the current positions simply become the new homes for
// every robot simultaneously.
//
// In-flight transmissions at an epoch boundary are lost (their partial
// frames are dropped on both sides); applications re-send. Queued but
// unstarted messages survive, because the outbox lives on the Endpoint,
// not in the discarded behavior.
//
// Epoch boundaries are instants of the global clock (view.Time), the
// clock the paper's sketch assumes: every robot re-initialises on its
// first activation inside each epoch window, whether or not it was
// activated at the boundary itself. A robot that misses activations —
// an adversarial scheduler, or a crash-stop fault that later recovers
// (internal/fault) — therefore resynchronises with the swarm at the
// next boundary instead of drifting onto a private epoch phase, which
// a per-robot activation counter would suffer. The wrapper is only
// sound under synchronous schedulers — exactly the setting in which the
// paper deems stabilization achievable (the asynchronous case is left
// open there, and here).
type Stabilizing struct {
	// Make builds a fresh inner behavior bound to the robot's endpoint.
	Make func() sim.Behavior
	// Epoch is the re-initialisation period in global-clock instants
	// (> 0).
	Epoch int

	inner   sim.Behavior
	epochAt int // epoch index the current inner behavior was built in
}

var _ sim.Behavior = (*Stabilizing)(nil)

// Step implements sim.Behavior.
func (s *Stabilizing) Step(view sim.View) geom.Point {
	ep := 0
	if s.Epoch > 0 {
		ep = view.Time / s.Epoch
	}
	if s.inner == nil || ep != s.epochAt {
		s.inner = s.Make()
		s.epochAt = ep
	}
	return s.inner.Step(view)
}

// NewStabilizingSyncN builds the n-robot synchronous protocol with
// epoch-based self-stabilization: behaviors discard and recompute all
// protocol state every epoch instants. epoch must comfortably exceed
// the longest transmission (2 instants per frame bit) or messages can
// never complete within an epoch.
func NewStabilizingSyncN(n, epoch int, cfg SyncNConfig) ([]sim.Behavior, []*Endpoint, error) {
	if epoch <= 0 {
		return nil, nil, fmt.Errorf("protocol: epoch %d must be positive", epoch)
	}
	cfg, err := normalizeSyncNConfig(n, cfg)
	if err != nil {
		return nil, nil, err
	}
	endpoints := make([]*Endpoint, n)
	behaviors := make([]sim.Behavior, n)
	sectors := newSectorTable(n, n)
	for i := 0; i < n; i++ {
		endpoints[i] = newEndpoint(i, n)
		endpoint := endpoints[i]
		var sigma float64
		if i < len(cfg.SigmaLocal) {
			sigma = cfg.SigmaLocal[i]
		}
		behaviors[i] = &Stabilizing{
			Epoch: epoch,
			Make: func() sim.Behavior {
				return &syncNRobot{cfg: cfg, endpoint: endpoint, sigma: sigma, sectors: sectors}
			},
		}
	}
	return behaviors, endpoints, nil
}
