package waggle

import (
	"io"
	"net/http"

	"waggle/internal/obs"
)

// TraceEvent is one structured trace event recorded by an instrumented
// swarm: an activation, a move, a send, a delivery, a retry, a fault
// injection. T is the simulated instant (never wall-clock); Peer is -1
// when the event has no counterpart robot.
type TraceEvent = obs.Event

// EventKind identifies what a TraceEvent records. Kinds marshal to and
// from stable strings in JSON ("activate", "retry", "jam", ...).
type EventKind = obs.EventKind

// Trace event kinds.
const (
	EvActivate    = obs.EvActivate
	EvMove        = obs.EvMove
	EvSend        = obs.EvSend
	EvDeliver     = obs.EvDeliver
	EvRetry       = obs.EvRetry
	EvFailover    = obs.EvFailover
	EvFailback    = obs.EvFailback
	EvImplicitAck = obs.EvImplicitAck
	EvExpired     = obs.EvExpired
	EvCrash       = obs.EvCrash
	EvDisplace    = obs.EvDisplace
	EvNoise       = obs.EvNoise
	EvDropSight   = obs.EvDropSight
	EvMoveError   = obs.EvMoveError
	EvOutageStart = obs.EvOutageStart
	EvOutageEnd   = obs.EvOutageEnd
	EvJam         = obs.EvJam
)

// MetricsSnapshot is a schema-stable point-in-time copy of an
// observer's metrics (and optionally its trace), the JSON form written
// by WriteSnapshot and served at /metrics.json.
type MetricsSnapshot = obs.Snapshot

// Observer collects metrics and trace events from the swarm it is
// attached to (WithObserver). It is allocation-conscious — counters are
// single atomics, the trace is a bounded ring — and safe when the step
// engine computes an instant's moves on parallel workers. All methods
// are nil-safe: a nil *Observer observes nothing and reads as empty.
//
// Determinism: every metric that is a pure function of the seeded
// execution is identical for identical seeds on either of the step
// engine's compute paths; wall-clock-derived metrics (step latency) are marked volatile and
// excluded from DeterministicSnapshot. Trace events are normalized by
// (T, Robot, Kind, Peer, Val) order.
type Observer struct {
	inner *obs.Observer
}

// NewObserver creates an observer with the default trace capacity
// (8192 events; the oldest instants are evicted beyond that).
func NewObserver() *Observer { return NewObserverWithCapacity(obs.DefaultRingCapacity) }

// NewObserverWithCapacity creates an observer whose trace ring holds up
// to traceCapacity events (DefaultRingCapacity when zero or negative).
func NewObserverWithCapacity(traceCapacity int) *Observer {
	return &Observer{inner: obs.New(traceCapacity)}
}

// WriteMetrics writes every metric in the Prometheus text exposition
// format (version 0.0.4), the same payload served at /metrics.
func (o *Observer) WriteMetrics(w io.Writer) error {
	if o == nil {
		return nil
	}
	return o.inner.Registry().WriteMetrics(w)
}

// Snapshot copies every metric, with the normalized trace included when
// withTrace is set.
func (o *Observer) Snapshot(withTrace bool) MetricsSnapshot {
	if o == nil {
		return (*obs.Observer)(nil).Snapshot(false)
	}
	return o.inner.Snapshot(withTrace)
}

// DeterministicSnapshot copies every engine-independent metric plus the
// normalized trace: identical seeds and options yield identical
// deterministic snapshots whichever compute path the engine takes.
func (o *Observer) DeterministicSnapshot() MetricsSnapshot {
	if o == nil {
		return (*obs.Observer)(nil).Snapshot(false)
	}
	return o.inner.DeterministicSnapshot()
}

// WriteSnapshot writes the JSON snapshot (schema "waggle-obs/v1"),
// trace included when withTrace is set.
func (o *Observer) WriteSnapshot(w io.Writer, withTrace bool) error {
	return o.Snapshot(withTrace).WriteJSON(w)
}

// TraceEvents returns the recorded trace in its normalized order.
func (o *Observer) TraceEvents() []TraceEvent {
	if o == nil {
		return nil
	}
	return o.inner.TraceEvents()
}

// TraceDropped returns how many events the bounded trace ring has
// evicted.
func (o *Observer) TraceDropped() int64 {
	if o == nil {
		return 0
	}
	return o.inner.TraceDropped()
}

// Handler returns the live introspection endpoint: /metrics (Prometheus
// text), /metrics.json, /trace, /snapshot, and /debug/pprof/. Serve it
// with net/http while the swarm runs; reads never block the simulation
// for long.
func (o *Observer) Handler() http.Handler {
	if o == nil {
		return http.NotFoundHandler()
	}
	return obs.Handler(o.inner)
}

// WithObserver attaches an observer to the swarm being built: the
// simulator, the movement network, the fault injector, and the fault
// radio (if any) all report into it. A nil observer means no
// instrumentation — the default, with near-zero overhead.
func WithObserver(o *Observer) Option {
	return optionFunc(func(opts *options) { opts.observer = o })
}

// Observe returns the observer the swarm was built with, or nil.
func (s *Swarm) Observe() *Observer { return s.opts.observer }
