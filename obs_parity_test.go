package waggle

import (
	"bytes"
	"reflect"
	"testing"

	"waggle/internal/sim"
)

// observedFaultRun builds the richest instrumented configuration — a
// fault plan spanning every family plus a jammed radio driven by the
// self-healing messenger — and runs it for a fixed number of instants
// on the given compute path, returning the observer.
func observedFaultRun(t *testing.T, mode sim.EngineMode) *Observer {
	t.Helper()
	o := NewObserver()
	// The radio faults come first: the failed-over message needs a clean
	// movement channel for its implicit acknowledgement to decode. The
	// movement-corrupting faults run late, after all movement deliveries
	// are done — their counters still fire, the protocol's garbling no
	// longer matters.
	plan := FaultPlan{Events: []FaultEvent{
		{Kind: FaultRadioOutage, Robot: 0, At: 25, Until: 400},
		{Kind: FaultJamRamp, Robot: -1, At: 430, Until: 500, Min: 0.3, Max: 0.6},
		{Kind: FaultCrash, Robot: 1, At: 620, Until: 660},
		{Kind: FaultDisplace, Robot: 2, At: 630, DX: 1.5, DY: -0.5},
		{Kind: FaultObserveNoise, Robot: 0, At: 620, Until: 650, Mag: 0.05},
		{Kind: FaultDropSight, Robot: 3, At: 620, Until: 660, Mag: 0.4},
		{Kind: FaultMoveError, Robot: -1, At: 620, Until: 680, Min: 0.8, Max: 1.2},
	}}
	radio := NewRadio(4, 11)
	s, err := onEngine(mode)(NewSwarm(square(), WithSynchronous(), WithSeed(11),
		WithObserver(o), WithFaultPlan(plan), WithFaultRadio(radio)))
	if err != nil {
		t.Fatal(err)
	}
	bm, err := NewBackupMessenger(radio, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := bm.SetPolicy(DefaultMessengerPolicy()); err != nil {
		t.Fatal(err)
	}
	send := map[int]struct{ to int }{
		5:   {1}, // clean radio delivery
		30:  {2}, // into the outage: retry, fail over, movement delivery
		410: {3}, // post-repair: failback probe
		440: {1}, // under jamming: radio retries
	}
	for s.Time() < 700 {
		if m, ok := send[s.Time()]; ok {
			if err := bm.Send(0, m.to, []byte{byte(s.Time())}); err != nil {
				t.Fatal(err)
			}
		}
		if err := bm.Step(); err != nil {
			t.Fatal(err)
		}
		radio.Receive(1)
		radio.Receive(3)
	}
	return o
}

// TestObserverEngineParity is the ISSUE acceptance criterion for the
// obs subsystem: identical seeds produce identical metric snapshots
// and identical trace event sequences whether the simulation ran on the
// engine's sequential or its parallel compute path. Run with -race this
// also proves the concurrent instrumentation sites (PerturbView on the
// parallel path) are safe.
func TestObserverEngineParity(t *testing.T) {
	seq := observedFaultRun(t, sim.EngineSequential)
	par := observedFaultRun(t, sim.EngineParallel)

	ss, ps := seq.DeterministicSnapshot(), par.DeterministicSnapshot()
	if !reflect.DeepEqual(ss, ps) {
		t.Errorf("deterministic snapshots differ between engines:\n%+v\nvs\n%+v", ss, ps)
	}
	if !reflect.DeepEqual(seq.TraceEvents(), par.TraceEvents()) {
		t.Error("normalized trace sequences differ between engines")
	}
	var sj, pj bytes.Buffer
	if err := ss.WriteJSON(&sj); err != nil {
		t.Fatal(err)
	}
	if err := ps.WriteJSON(&pj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.Bytes(), pj.Bytes()) {
		t.Error("deterministic snapshot JSON differs between engines")
	}

	// The run must actually have exercised the instrumentation: steps,
	// sends, retries, failovers, failbacks, and every fault family.
	for _, name := range []string{
		"waggle_sim_steps_total",
		"waggle_sim_activations_total",
		"waggle_net_sends_total",
		"waggle_net_deliveries_total",
		"waggle_radio_sends_total",
		"waggle_msgr_retries_total",
		"waggle_msgr_failovers_total",
		"waggle_msgr_failbacks_total",
		"waggle_msgr_implicit_acks_total",
		"waggle_fault_crash_total",
		"waggle_fault_displace_total",
		"waggle_fault_noise_total",
		"waggle_fault_drop_sight_total",
		"waggle_fault_move_error_total",
		"waggle_fault_outage_total",
		"waggle_fault_jam_set_total",
	} {
		if v, ok := ss.CounterValue(name); !ok || v == 0 {
			t.Errorf("counter %s missing or zero — scenario did not exercise it (value %d, present %v)", name, v, ok)
		}
	}
	if len(seq.TraceEvents()) == 0 {
		t.Error("no trace events recorded")
	}
}

// TestObserverNilSafety: every facade method on a nil *Observer is a
// no-op, and an uninstrumented swarm runs with a nil observer wired
// nowhere — the zero-cost default.
func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	var buf bytes.Buffer
	if err := o.WriteMetrics(&buf); err != nil {
		t.Error(err)
	}
	if err := o.WriteSnapshot(&buf, true); err != nil {
		t.Error(err)
	}
	if ev := o.TraceEvents(); ev != nil {
		t.Errorf("nil observer trace = %v", ev)
	}
	if n := o.TraceDropped(); n != 0 {
		t.Errorf("nil observer dropped = %d", n)
	}
	if h := o.Handler(); h == nil {
		t.Error("nil observer handler is nil")
	}
	s, err := NewSwarm(square(), WithSynchronous(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Observe() != nil {
		t.Error("uninstrumented swarm reports an observer")
	}
}
