package obs

// Observer bundles the metrics registry and the trace ring, with every
// metric the instrumented layers use pre-registered as a direct field —
// an instrumentation site pays one nil check and one atomic add, never
// a map lookup or an interface conversion.
//
// All methods tolerate a nil receiver, so call sites that hold an
// optional observer can use the helpers without their own guard; the
// hot paths in sim/core/fault still guard explicitly to skip argument
// evaluation entirely when disabled.
type Observer struct {
	reg  *Registry
	ring *Ring

	// Sim is the step-engine instrumentation.
	Sim struct {
		// Steps counts completed instants; Activations counts robot
		// activations; ViewIndexViews counts local views built through
		// the per-step spatial grid (view-index hits).
		Steps, Activations, ViewIndexViews *Counter
		// Robots and Time are the swarm size and current instant.
		Robots, Time *Gauge
		// StepSeconds is the wall-clock step latency (volatile: excluded
		// from deterministic snapshots). ActivationsPerStep is the
		// activation-set size distribution.
		StepSeconds, ActivationsPerStep *Histogram
	}
	// Net is the movement-channel (Network) instrumentation.
	Net struct {
		// Sends counts queued movement-channel messages, Deliveries
		// decoded ones.
		Sends, Deliveries *Counter
	}
	// Radio is the wireless-substrate instrumentation.
	Radio struct {
		// Sends counts transmission attempts, Delivered successful ones,
		// BrokenDrops losses to a broken transmitter, JamDrops losses to
		// interference.
		Sends, Delivered, BrokenDrops, JamDrops *Counter
	}
	// Msgr is the self-healing BackupMessenger instrumentation.
	Msgr struct {
		ViaRadio, ViaMovement, Retries, Failovers, Failbacks, Expired, ImplicitAcks *Counter
		// PendingRetries and AwaitingAck are the current queue depths.
		PendingRetries, AwaitingAck *Gauge
	}
	// Fault counts injector firings by family.
	Fault struct {
		Crashes, Displacements, Noise, DropSights, MoveErrors, Outages, JamSets *Counter
	}
}

// LatencyBounds are the buckets of the wall-clock latency histograms
// (sim step, serve request), 1µs–100s: a two-robot step sits near the
// bottom, a 1M-robot synchronous step (5.6 s on one core) and a
// long-poll observe or spectate held for MaxObserveWait plus
// RequestTimeout (40 s by default) near the top.
var LatencyBounds = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100,
}

// activationsBounds covers the benchmark swarm sizes.
var activationsBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// New creates an observer with a trace ring of the given capacity
// (DefaultRingCapacity when 0 or negative).
func New(traceCapacity int) *Observer {
	r := NewRegistry()
	o := &Observer{reg: r, ring: NewRing(traceCapacity)}

	o.Sim.Steps = r.Counter("waggle_sim_steps_total", "Completed simulation instants.")
	o.Sim.Activations = r.Counter("waggle_sim_activations_total", "Robot activations across all instants.")
	o.Sim.ViewIndexViews = r.Counter("waggle_sim_viewindex_views_total", "Local views built through the per-step spatial grid.")
	o.Sim.Robots = r.Gauge("waggle_sim_robots", "Number of robots in the observed world.")
	o.Sim.Time = r.Gauge("waggle_sim_time", "Current simulated instant.")
	o.Sim.StepSeconds = r.Histogram("waggle_sim_step_seconds", "Wall-clock latency of one World.Step.", LatencyBounds, true)
	o.Sim.ActivationsPerStep = r.Histogram("waggle_sim_activations_per_step", "Activation-set size per instant.", activationsBounds, false)

	o.Net.Sends = r.Counter("waggle_net_sends_total", "Messages queued on the movement channel.")
	o.Net.Deliveries = r.Counter("waggle_net_deliveries_total", "Messages decoded and delivered over the movement channel.")

	o.Radio.Sends = r.Counter("waggle_radio_sends_total", "Radio transmission attempts.")
	o.Radio.Delivered = r.Counter("waggle_radio_delivered_total", "Radio transmissions delivered.")
	o.Radio.BrokenDrops = r.Counter("waggle_radio_broken_drops_total", "Radio transmissions lost to a broken transmitter.")
	o.Radio.JamDrops = r.Counter("waggle_radio_jam_drops_total", "Radio transmissions lost to jamming.")

	o.Msgr.ViaRadio = r.Counter("waggle_msgr_via_radio_total", "Messenger submissions delivered over the radio.")
	o.Msgr.ViaMovement = r.Counter("waggle_msgr_via_movement_total", "Messenger submissions diverted to the movement channel.")
	o.Msgr.Retries = r.Counter("waggle_msgr_retries_total", "Messenger radio re-attempts (initial sends excluded).")
	o.Msgr.Failovers = r.Counter("waggle_msgr_failovers_total", "Sender transitions radio->movement.")
	o.Msgr.Failbacks = r.Counter("waggle_msgr_failbacks_total", "Sender transitions movement->radio.")
	o.Msgr.Expired = r.Counter("waggle_msgr_expired_total", "Messages failed over because their deadline passed.")
	o.Msgr.ImplicitAcks = r.Counter("waggle_msgr_implicit_acks_total", "Failed-over messages confirmed by implicit acknowledgement (Lemma 4.1).")
	o.Msgr.PendingRetries = r.Gauge("waggle_msgr_pending_retries", "Messages currently in the radio retry queue.")
	o.Msgr.AwaitingAck = r.Gauge("waggle_msgr_awaiting_ack", "Failed-over messages awaiting implicit acknowledgement.")

	o.Fault.Crashes = r.Counter("waggle_fault_crash_total", "Robot-instants suppressed by crash-stop faults.")
	o.Fault.Displacements = r.Counter("waggle_fault_displace_total", "Transient displacement faults fired.")
	o.Fault.Noise = r.Counter("waggle_fault_noise_total", "Observation-noise perturbations applied (per observer-instant).")
	o.Fault.DropSights = r.Counter("waggle_fault_drop_sight_total", "Sightings dropped by observation faults.")
	o.Fault.MoveErrors = r.Counter("waggle_fault_move_error_total", "Movement truncation/overshoot faults applied.")
	o.Fault.Outages = r.Counter("waggle_fault_outage_total", "Radio outage windows opened by the injector.")
	o.Fault.JamSets = r.Counter("waggle_fault_jam_set_total", "Jamming-probability updates applied by the injector.")

	return o
}

// Registry returns the metrics registry (nil for a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Record appends a trace event; a nil observer drops it.
func (o *Observer) Record(e Event) {
	if o == nil {
		return
	}
	o.ring.Append(e)
}

// TraceEvents returns the normalized retained trace (nil observer:
// nil). See Ring.Events for the determinism rules.
func (o *Observer) TraceEvents() []Event {
	if o == nil {
		return nil
	}
	return o.ring.Events()
}

// TraceDropped returns how many trace events the ring has overwritten.
func (o *Observer) TraceDropped() int64 {
	if o == nil {
		return 0
	}
	return o.ring.Dropped()
}

// TraceCapacity returns the ring's retention depth (nil observer: 0),
// so a checkpoint can rebuild an observer with an identical ring.
func (o *Observer) TraceCapacity() int {
	if o == nil {
		return 0
	}
	return o.ring.Capacity()
}
