package protocol

import (
	"waggle/internal/geom"
	"waggle/internal/spatial"
)

// RadiiCache memoises the granular-radii preprocessing across protocol
// re-initialisations. The §3.2 radii are recomputed from scratch every
// time a behavior runs initFrom — in particular once per Stabilizing
// epoch — even though between epochs most robots have barely moved. The
// cache wraps spatial.DynamicRadii, which recomputes only the radii
// whose nearest-neighbour disc a moved point entered or left, and falls
// back to the full derivation when too much moved (or when the observer
// itself moved, which shifts every point in its egocentric frame).
// Values are always bit-identical to a fresh granularRadii call.
//
// The cache lives on the Endpoint, not the behavior: Stabilizing
// discards and rebuilds the inner behavior every epoch, while the
// Endpoint — like the outbox — persists for the lifetime of the robot.
type RadiiCache struct {
	dyn *spatial.DynamicRadii
}

// Radii returns the granular radii of pts, bit-identical to
// granularRadii(pts). The returned slice is a fresh copy the caller
// owns (swarmGeometry retains it across steps). A nil receiver computes
// directly without caching.
func (c *RadiiCache) Radii(pts []geom.Point) []float64 {
	if c == nil {
		return granularRadii(pts)
	}
	if c.dyn == nil {
		c.dyn = new(spatial.DynamicRadii)
	}
	return append([]float64(nil), c.dyn.Update(pts)...)
}
