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
	// names holds every sender's naming; nil when the naming scheme
	// failed (g.err says why).
	names senderNaming

	err error
}

// senderNaming is one robot's copy of every sender's naming: the label
// sender j uses for each robot, and its inverse.
type senderNaming interface {
	// Label returns the label sender j uses for the robot with home
	// index h.
	Label(j, h int) int
	// Home inverts Label, for labels 0 <= l < n.
	Home(j, l int) int
	// Defined reports whether sender j has a naming: every sender but
	// one at the SEC centre, which has no horizon.
	Defined(j int) bool
}

// sharedNaming is the one labelling every sender shares under IDs and
// Lex naming, and its inverse.
type sharedNaming struct {
	labels, homes []int
}

func newSharedNaming(labels []int) sharedNaming {
	return sharedNaming{labels: labels, homes: invertLabels(labels)}
}

func (s sharedNaming) Label(_, h int) int { return s.labels[h] }
func (s sharedNaming) Home(_, l int) int  { return s.homes[l] }
func (sharedNaming) Defined(int) bool     { return true }

// tableNaming is every sender's SECLabels and its inverse, n² ints: the
// fallback for a configuration naming.SECNaming does not certify.
// labelOf[j] is nil for a sender with no horizon.
type tableNaming struct {
	labelOf, homeOf [][]int
}

func (t tableNaming) Label(j, h int) int { return t.labelOf[j][h] }
func (t tableNaming) Home(j, l int) int  { return t.homeOf[j][l] }
func (t tableNaming) Defined(j int) bool { return t.labelOf[j] != nil }

// buildSwarmGeometry runs the preprocessing for the given naming scheme.
// extraKappa reserves diameter 0 as the §4.2 idle slice κ, mapping
// recipient label l to diameter l+1; otherwise label l is on diameter l.
// sectors is the swarm's shared sector table, which fixes the diameter
// count: n for the synchronous protocols, n+1 with κ, and far fewer
// than robots for the §5 bounded-slice protocol.
func buildSwarmGeometry(view sim.View, scheme Naming, extraKappa bool, sectors *sectorTable) *swarmGeometry {
	n := view.N()
	g := &swarmGeometry{
		self:    view.Self,
		p0:      append([]geom.Point(nil), view.Points...),
		radii:   granularRadii(view.Points),
		kappa:   extraKappa,
		sectors: sectors.filled(),
	}
	g.slicers = make([]slicer, n)

	switch scheme {
	case NamingIDs:
		if view.IDs == nil {
			g.err = errors.New("protocol: IDs naming on an anonymous system")
			return g
		}
		shared := make([]int, n)
		copy(shared, view.IDs)
		g.names = newSharedNaming(shared)
		g.fillNorthSlicers()
	case NamingLex:
		g.names = newSharedNaming(naming.LexLabels(g.p0))
		g.fillNorthSlicers()
	case NamingSEC:
		circle, err := sec.EnclosingInOrder(g.p0, g.sectors.welzl)
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
			g.slicers[j] = newSlicer(horizon)
		}
		if names, ok := naming.NewSECNaming(g.p0, circle); ok {
			g.names = names
		} else {
			g.names = g.secTables(circle)
		}
	default:
		g.err = fmt.Errorf("protocol: unknown naming scheme %d", int(scheme))
	}
	return g
}

// secTables sorts every sender's SEC naming on its own (the fallback).
func (g *swarmGeometry) secTables(circle geom.Circle) tableNaming {
	n := len(g.p0)
	t := tableNaming{labelOf: make([][]int, n), homeOf: make([][]int, n)}
	for j := 0; j < n; j++ {
		if g.slicers[j].ref.IsZero() {
			continue // no horizon
		}
		labels, err := naming.SECLabels(g.p0, j, circle)
		if err != nil {
			if j == g.self {
				g.err = fmt.Errorf("protocol: relative naming: %w", err)
			}
			continue
		}
		t.labelOf[j] = labels
		t.homeOf[j] = invertLabels(labels)
	}
	return t
}

// fillNorthSlicers orients every granular on the shared North (+y):
// valid under sense of direction, where all local frames agree on it.
func (g *swarmGeometry) fillNorthSlicers() {
	north := geom.V(0, 1)
	for j := range g.slicers {
		g.slicers[j] = newSlicer(north)
	}
}

// canDecode reports whether movements of sender j are classifiable.
func (g *swarmGeometry) canDecode(j int) bool {
	return g.names != nil && g.names.Defined(j) && !g.slicers[j].ref.IsZero()
}

// txLabel maps an outbound recipient (a home index, or ToAll) to the
// label whose diameter carries the transmission. Broadcasts use the
// sender's own label: a robot never unicasts to itself, so its own
// diameter is free to mean "to everyone".
func (g *swarmGeometry) txLabel(to int) int {
	if to == ToAll {
		return g.names.Label(g.self, g.self)
	}
	return g.names.Label(g.self, to)
}

// rxRecipient maps a decoded (sender, label) pair to the delivery
// target: the sender's own label means broadcast, delivered to the
// observer itself. ok is false for a label outside the swarm.
func (g *swarmGeometry) rxRecipient(sender, label int) (to int, ok bool) {
	if label >= len(g.p0) {
		return 0, false
	}
	to = g.names.Home(sender, label)
	if to == sender {
		return g.self, true
	}
	return to, true
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
	return g.slicers[j].direction(0, 0, g.sectors)
}

func invertLabels(labels []int) []int {
	inv := make([]int, len(labels))
	for i, l := range labels {
		inv[l] = i
	}
	return inv
}
