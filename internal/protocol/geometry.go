package protocol

import (
	"errors"
	"fmt"

	"waggle/internal/geom"
	"waggle/internal/naming"
	"waggle/internal/sec"
	"waggle/internal/sim"
)

// ErrNoHorizon is recorded when a robot sits exactly at the centre of
// the smallest enclosing circle under the SEC naming scheme: it has no
// horizon radius, so it can neither orient its granular slices nor be
// assigned one by other senders (§3.4 silently assumes this away; the
// library surfaces it).
var ErrNoHorizon = errors.New("protocol: robot at SEC centre has no horizon")

// swarmGeometry is the §3.2/§3.4 preprocessing, computed by one robot
// from its first view (which, by the "all robots awake at t0"
// assumption, shows the initial configuration P(t0)). Everything is in
// the observer's init-local coordinates; because all the quantities used
// downstream are similarity-invariant (angle offsets from reference
// directions, length ratios against granular radii, clockwise order
// under shared handedness), every robot derives consistent values.
type swarmGeometry struct {
	self  int
	p0    []geom.Point // initial positions, init-local
	radii []float64    // granular radii, init-local units

	kappa bool // diameter 0 is the idle slice κ (§4.2)

	// slicers[j] classifies robot j's movements; all of them slice
	// sectors.diameters diameters.
	slicers []slicer
	sectors *sectorTable
	// labelOf[j][h] is the label robot j uses for the robot with home
	// index h; homeOf[j][l] inverts it. nil for a sender with no horizon
	// under SEC naming.
	labelOf [][]int
	homeOf  [][]int

	err error
}

// buildSwarmGeometry runs the preprocessing for the given naming scheme.
// extraKappa reserves diameter 0 as the §4.2 idle slice κ, mapping
// recipient label l to diameter l+1; otherwise label l is on diameter l.
// sectors is the swarm's shared sector table, which fixes the diameter
// count: n for the synchronous protocols, n+1 with κ, and far fewer
// than robots for the §5 bounded-slice protocol. cache, when non-nil,
// reuses radii work from this robot's previous initialisations
// (bit-identical either way).
func buildSwarmGeometry(view sim.View, scheme Naming, extraKappa bool, sectors *sectorTable, cache *RadiiCache) *swarmGeometry {
	n := view.N()
	g := &swarmGeometry{
		self:    view.Self,
		p0:      append([]geom.Point(nil), view.Points...),
		radii:   cache.Radii(view.Points),
		kappa:   extraKappa,
		sectors: sectors.filled(),
	}
	g.slicers = make([]slicer, n)
	g.labelOf = make([][]int, n)
	g.homeOf = make([][]int, n)

	switch scheme {
	case NamingIDs:
		if view.IDs == nil {
			g.err = errors.New("protocol: IDs naming on an anonymous system")
			return g
		}
		shared := make([]int, n)
		copy(shared, view.IDs)
		g.fillSharedNaming(shared)
		g.fillNorthSlicers()
	case NamingLex:
		g.fillSharedNaming(naming.LexLabels(g.p0))
		g.fillNorthSlicers()
	case NamingSEC:
		circle, err := sec.Enclosing(g.p0)
		if err != nil {
			g.err = fmt.Errorf("protocol: smallest enclosing circle: %w", err)
			return g
		}
		for j := 0; j < n; j++ {
			horizon := g.p0[j].Sub(circle.Center)
			if horizon.IsZero() {
				// Robot j has no horizon: it cannot send and cannot be
				// decoded; only fatal if j is self.
				if j == g.self {
					g.err = ErrNoHorizon
				}
				continue
			}
			g.slicers[j] = newSlicer(horizon, g.sectors.diameters)
			labels, err := naming.SECLabels(g.p0, j, circle)
			if err != nil {
				if j == g.self {
					g.err = fmt.Errorf("protocol: relative naming: %w", err)
				}
				continue
			}
			g.labelOf[j] = labels
			g.homeOf[j] = invertLabels(labels)
		}
	default:
		g.err = fmt.Errorf("protocol: unknown naming scheme %d", int(scheme))
	}
	return g
}

// fillSharedNaming installs one labelling common to every sender
// (observable IDs or the lexicographic order).
func (g *swarmGeometry) fillSharedNaming(labels []int) {
	inv := invertLabels(labels)
	for j := range g.labelOf {
		g.labelOf[j] = labels
		g.homeOf[j] = inv
	}
}

// fillNorthSlicers orients every granular on the shared North (+y):
// valid under sense of direction, where all local frames agree on it.
func (g *swarmGeometry) fillNorthSlicers() {
	north := geom.V(0, 1)
	for j := range g.slicers {
		g.slicers[j] = newSlicer(north, g.sectors.diameters)
	}
}

// canDecode reports whether movements of sender j are classifiable.
func (g *swarmGeometry) canDecode(j int) bool {
	return g.labelOf[j] != nil && !g.slicers[j].ref.IsZero()
}

// txLabel maps an outbound recipient (a home index, or ToAll) to the
// label whose diameter carries the transmission. Broadcasts use the
// sender's own label: a robot never unicasts to itself, so its own
// diameter is free to mean "to everyone".
func (g *swarmGeometry) txLabel(to int) int {
	if to == ToAll {
		return g.labelOf[g.self][g.self]
	}
	return g.labelOf[g.self][to]
}

// rxRecipient maps a decoded (sender, label) pair to the delivery
// target: the sender's own label means broadcast, delivered to the
// observer itself.
func (g *swarmGeometry) rxRecipient(sender, label int) int {
	to := g.homeOf[sender][label]
	if to == sender {
		return g.self
	}
	return to
}

// recipientDiameter returns the diameter index carrying bits addressed
// to the given label.
func (g *swarmGeometry) recipientDiameter(label int) int {
	if g.kappa {
		return label + 1
	}
	return label
}

// diameterRecipient inverts recipientDiameter; ok is false for the κ
// diameter.
func (g *swarmGeometry) diameterRecipient(k int) (int, bool) {
	if g.kappa {
		if k == 0 {
			return 0, false
		}
		return k - 1, true
	}
	return k, true
}

// kappaDir returns the positive unit direction of the idle slice κ of
// robot j.
func (g *swarmGeometry) kappaDir(j int) geom.Vec {
	return g.slicers[j].direction(0, 0)
}

func invertLabels(labels []int) []int {
	inv := make([]int, len(labels))
	for i, l := range labels {
		inv[l] = i
	}
	return inv
}
