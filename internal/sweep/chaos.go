// Chaos is the fault-injection harness: scripted fault plans
// (internal/fault via the public FaultPlan API) swept across protocols
// and schedulers, reporting per-scenario delivery rate, latency,
// messenger retry counters, and steps-to-recover. cmd/waggle-chaos
// prints the table; EXPERIMENTS.md records it; `make chaos-check`
// smoke-runs one fast scenario per fault family.
//
// Every scenario is deterministic: the swarm seed keys the scheduler,
// the frames, every randomized fault draw (splitmix64, not stream
// state) and the radio jamming, so identical seeds reproduce identical
// reports.
package sweep

import (
	"bytes"
	"fmt"
	"os"

	"waggle"
	"waggle/internal/geom"
	"waggle/internal/render"
	"waggle/internal/spatial"
)

// ChaosSend is one scheduled message of a chaos scenario. Tag is the
// single-byte payload and must be unique within the scenario, so
// deliveries can be attributed to their submission even when fault
// windows corrupt or reorder traffic. Post marks probe traffic sent
// after the fault window, used to measure steps-to-recover.
type ChaosSend struct {
	At, From, To int
	Tag          byte
	Post         bool
}

// ChaosScenario is one scripted run of the chaos harness: a swarm
// configuration, a fault plan, and a message timeline.
type ChaosScenario struct {
	// Name and Family label the table row (Family is the fault family
	// under test: crash, displacement, observation, movement, radio,
	// combined).
	Name, Family string
	// Positions is the initial configuration.
	Positions []waggle.Point
	// Seed keys every random choice of the run.
	Seed int64
	// Epoch enables §5 stabilization (0 = plain protocol).
	Epoch int
	// Async selects the asynchronous setting (default scheduler) instead
	// of the synchronous one.
	Async bool
	// Radio wires a radio plus a self-healing BackupMessenger
	// (DefaultMessengerPolicy) and routes all sends through it.
	Radio bool
	// Budget bounds the run in instants.
	Budget int
	// FaultEnd is the first fault-free instant (Plan.End), the baseline
	// for steps-to-recover.
	FaultEnd int
	// Plan is the fault schedule.
	Plan waggle.FaultPlan
	// Sends is the message timeline.
	Sends []ChaosSend
}

// ObsRollup is the per-scenario observability rollup: every counter
// the scenario's run incremented, keyed by full metric name
// (waggle_sim_steps_total, waggle_msgr_retries_total, ...). Only
// nonzero deltas appear; JSON encoding sorts the keys, so rollups are
// schema-stable and diffable.
type ObsRollup map[string]int64

// ChaosResult is the measured outcome of one scenario. The JSON tags
// are the stable encoding used by the -o reports; renaming one is a
// schema break (bump ChaosReportSchema).
type ChaosResult struct {
	Scenario  string `json:"scenario"`
	Family    string `json:"family"`
	Protocol  string `json:"protocol"`
	Sent      int    `json:"sent"`
	Delivered int    `json:"delivered"`
	// MeanLatency is the mean instants from submission to delivery over
	// the delivered messages.
	MeanLatency float64 `json:"mean_latency"`
	// Messenger counters (zero for scenarios without a radio).
	Retries      int `json:"retries"`
	Failovers    int `json:"failovers"`
	Failbacks    int `json:"failbacks"`
	ImplicitAcks int `json:"implicit_acks"`
	// StepsToRecover is the fault-end-to-delivery time of the first
	// post-fault probe message, or -1 when none was delivered.
	StepsToRecover int `json:"steps_to_recover"`
	// TraceCSV is the full movement trace, when requested — the
	// byte-identical-replay check of the determinism tests.
	TraceCSV string `json:"-"`
	// Obs is the observability rollup (RunChaosScenarioObserved; nil
	// from the plain runner).
	Obs ObsRollup `json:"obs,omitempty"`
}

// Rate returns the delivery rate.
func (r ChaosResult) Rate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Sent)
}

// chaosEpoch is the stabilization epoch of the synchronous scenarios:
// comfortably above the 48-instant one-byte frame, small enough that
// recovery fits a short run.
const chaosEpoch = 120

// granularRadiiOf computes the per-robot granular radius (half the
// nearest-neighbour distance) of a configuration — the unit in which
// displacement and noise magnitudes are meaningful.
func granularRadiiOf(pts []waggle.Point) []float64 {
	gp := make([]geom.Point, len(pts))
	for i, p := range pts {
		gp[i] = geom.Pt(p.X, p.Y)
	}
	return spatial.NearestRadii(gp)
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// ChaosScenarios scripts the harness's fault scenarios, one or more per
// family: crash-recover under stabilizing SyncN and under plain AsyncN
// (which tolerates crash windows by construction — a crash is just an
// adversarial activation delay), transient displacement, observation
// noise, dropped sightings, movement truncation, a radio outage and a
// jamming ramp against the self-healing messenger, and a combined plan
// breaking both channels at once.
func ChaosScenarios(seed int64) []ChaosScenario {
	six := positionsFor(6, seed+40)
	rad6 := granularRadiiOf(six)
	four := positionsFor(4, seed+41)

	// The synchronous scenarios share one timeline: pre-fault traffic at
	// t=2, the fault window inside [60,240) (spanning the t=120 epoch
	// boundary), traffic mid-fault, and post-fault probes after the
	// first clean epoch boundary.
	displaced := geom.V(3, 2).Unit().Scale(0.95 * rad6[1])

	return []ChaosScenario{
		{
			Name: "crash-sync", Family: "crash",
			Positions: six, Seed: seed, Epoch: chaosEpoch, Budget: 1_500,
			// The sender crash-stops mid-transmission and recovers into a
			// later epoch: the in-flight frame is lost at the boundary,
			// the queued-but-unstarted message survives on the endpoint
			// outbox and goes out after recovery.
			Plan: waggle.FaultPlan{Events: []waggle.FaultEvent{
				{Kind: waggle.FaultCrash, Robot: 0, At: 70, Until: 240},
			}},
			FaultEnd: 240,
			Sends: []ChaosSend{
				{At: 2, From: 0, To: 1, Tag: 'A'},
				{At: 50, From: 0, To: 2, Tag: 'B'},  // in flight at the crash: lost
				{At: 100, From: 0, To: 3, Tag: 'C'}, // queued while crashed: survives
				{At: 242, From: 0, To: 4, Tag: 'D', Post: true},
			},
		},
		{
			Name: "crash-async", Family: "crash",
			Positions: four, Seed: seed, Async: true, Budget: 400_000,
			Plan: waggle.FaultPlan{Events: []waggle.FaultEvent{
				{Kind: waggle.FaultCrash, Robot: 1, At: 200, Until: 1_400},
			}},
			FaultEnd: 1_400,
			Sends: []ChaosSend{
				{At: 2, From: 0, To: 1, Tag: 'A'},
				{At: 100, From: 0, To: 1, Tag: 'B'}, // stalls while the receiver is down
				{At: 1_402, From: 0, To: 1, Tag: 'C', Post: true},
			},
		},
		{
			Name: "displace-sync", Family: "displacement",
			Positions: six, Seed: seed, Epoch: chaosEpoch, Budget: 1_000,
			// The receiver is displaced by most of its granular radius:
			// enough to desynchronise every observer's bookkeeping of it,
			// flushed at the next epoch boundary when current positions
			// become the new homes.
			Plan: waggle.FaultPlan{Events: []waggle.FaultEvent{
				{Kind: waggle.FaultDisplace, Robot: 1, At: 60, DX: displaced.X, DY: displaced.Y},
			}},
			FaultEnd: 61,
			Sends: []ChaosSend{
				{At: 2, From: 0, To: 1, Tag: 'A'},
				{At: 30, From: 0, To: 1, Tag: 'B'}, // in flight at the displacement
				{At: 122, From: 0, To: 1, Tag: 'C', Post: true},
			},
		},
		{
			Name: "obs-noise-sync", Family: "observation",
			Positions: six, Seed: seed, Epoch: chaosEpoch, Budget: 1_000,
			Plan: waggle.FaultPlan{Events: []waggle.FaultEvent{
				{Kind: waggle.FaultObserveNoise, Robot: -1, At: 60, Until: 120, Mag: 0.35 * minOf(rad6)},
			}},
			FaultEnd: 120,
			Sends: []ChaosSend{
				{At: 2, From: 0, To: 2, Tag: 'A'},
				{At: 66, From: 0, To: 2, Tag: 'B'}, // transmitted through the noise
				{At: 122, From: 0, To: 3, Tag: 'C', Post: true},
			},
		},
		{
			Name: "drop-sight-sync", Family: "observation",
			Positions: six, Seed: seed, Epoch: chaosEpoch, Budget: 1_000,
			Plan: waggle.FaultPlan{Events: []waggle.FaultEvent{
				{Kind: waggle.FaultDropSight, Robot: -1, At: 60, Until: 120, Mag: 0.5},
			}},
			FaultEnd: 120,
			Sends: []ChaosSend{
				{At: 2, From: 0, To: 2, Tag: 'A'},
				{At: 66, From: 0, To: 2, Tag: 'B'},
				{At: 122, From: 0, To: 3, Tag: 'C', Post: true},
			},
		},
		{
			Name: "move-error-sync", Family: "movement",
			Positions: six, Seed: seed, Epoch: chaosEpoch, Budget: 1_000,
			// The sender's moves are truncated to as little as 5% of the
			// command: excursions shrink below the classification
			// threshold and its dead reckoning drifts off its home.
			Plan: waggle.FaultPlan{Events: []waggle.FaultEvent{
				{Kind: waggle.FaultMoveError, Robot: 0, At: 60, Until: 120, Min: 0.05, Max: 1.2},
			}},
			FaultEnd: 120,
			Sends: []ChaosSend{
				{At: 2, From: 0, To: 2, Tag: 'A'},
				{At: 66, From: 0, To: 2, Tag: 'B'},
				{At: 122, From: 0, To: 3, Tag: 'C', Post: true},
			},
		},
		{
			Name: "radio-outage", Family: "radio",
			Positions: four, Seed: seed, Radio: true, Budget: 800,
			// The sender's transmitter breaks for 360 instants: the
			// messenger retries with backoff, fails over to the movement
			// channel, confirms deliveries by implicit acknowledgement,
			// and fails back on its first probe after the repair.
			Plan: waggle.FaultPlan{Events: []waggle.FaultEvent{
				{Kind: waggle.FaultRadioOutage, Robot: 0, At: 40, Until: 400},
			}},
			FaultEnd: 400,
			Sends: []ChaosSend{
				{At: 2, From: 0, To: 1, Tag: 'A'},
				{At: 50, From: 0, To: 2, Tag: 'B'},
				{At: 150, From: 0, To: 3, Tag: 'C'},
				{At: 402, From: 0, To: 1, Tag: 'D', Post: true},
			},
		},
		{
			Name: "jam-ramp", Family: "radio",
			Positions: four, Seed: seed, Radio: true, Budget: 1_200,
			Plan: waggle.FaultPlan{Events: []waggle.FaultEvent{
				{Kind: waggle.FaultJamRamp, Robot: -1, At: 40, Until: 360, Min: 0, Max: 1},
			}},
			FaultEnd: 360,
			Sends: []ChaosSend{
				{At: 10, From: 0, To: 1, Tag: 'A'},
				{At: 100, From: 0, To: 2, Tag: 'B'},
				{At: 200, From: 0, To: 3, Tag: 'C'},
				{At: 280, From: 0, To: 1, Tag: 'D'},
				{At: 362, From: 0, To: 2, Tag: 'E', Post: true},
			},
		},
		{
			Name: "combined", Family: "combined",
			Positions: six, Seed: seed, Epoch: chaosEpoch, Radio: true, Budget: 1_500,
			// Both channels break at once: the radio jams while a crash,
			// a displacement and movement errors corrupt the movement
			// channel the messenger fails over to. Stabilization heals
			// the movement channel at the epoch boundary; the jam lifting
			// heals the radio; the post probe confirms the failback.
			Plan: waggle.FaultPlan{Events: []waggle.FaultEvent{
				{Kind: waggle.FaultJamRamp, Robot: -1, At: 40, Until: 240, Min: 0.3, Max: 1},
				{Kind: waggle.FaultCrash, Robot: 3, At: 60, Until: 180},
				{Kind: waggle.FaultDisplace, Robot: 1, At: 70, DX: displaced.X, DY: displaced.Y},
				{Kind: waggle.FaultMoveError, Robot: -1, At: 80, Until: 160, Min: 0.5, Max: 1.2},
			}},
			FaultEnd: 240,
			Sends: []ChaosSend{
				{At: 2, From: 0, To: 1, Tag: 'A'},
				{At: 90, From: 0, To: 2, Tag: 'B'},
				{At: 150, From: 0, To: 4, Tag: 'C'},
				{At: 242, From: 0, To: 5, Tag: 'D', Post: true},
			},
		},
	}
}

// FindChaosScenario looks a scenario up by name, listing the valid
// names in the error when it is unknown.
func FindChaosScenario(name string, seed int64) (ChaosScenario, error) {
	all := ChaosScenarios(seed)
	for _, sc := range all {
		if sc.Name == name {
			return sc, nil
		}
	}
	names := make([]string, len(all))
	for i, sc := range all {
		names[i] = sc.Name
	}
	return ChaosScenario{}, fmt.Errorf("chaos: unknown scenario %q (try: %v)", name, names)
}

// RunChaosScenario executes one scenario. With trace set, the full
// movement trace is captured into the result (for the byte-identical
// determinism checks).
func RunChaosScenario(sc ChaosScenario, trace bool) (*ChaosResult, error) {
	return runChaos(sc, trace, nil)
}

// RunChaosScenarioObserved executes one scenario with the given
// observer attached (a fresh one when nil) and fills the result's Obs
// rollup with the counters the run incremented. Passing a shared
// observer accumulates across scenarios — the rollup is still
// per-scenario, computed as a before/after counter diff.
func RunChaosScenarioObserved(sc ChaosScenario, trace bool, o *waggle.Observer) (*ChaosResult, error) {
	if o == nil {
		o = waggle.NewObserver()
	}
	before := o.DeterministicSnapshot()
	res, err := runChaos(sc, trace, o)
	if err != nil {
		return nil, err
	}
	res.Obs = ObsRollup{}
	for _, c := range o.DeterministicSnapshot().Counters {
		prev, _ := before.CounterValue(c.Name)
		if d := c.Value - prev; d != 0 {
			res.Obs[c.Name] = d
		}
	}
	return res, nil
}

// chaosMsg tracks one scheduled send through the run.
type chaosMsg struct {
	send                ChaosSend
	sentAt, deliveredAt int
}

// chaosRun is the live state of a scenario being driven: the swarm
// stack plus the harness-side message ledger and delivery cursor. It is
// the unit of kill-and-resume: the stack can be swapped for a restored
// one mid-run (the ledger and cursor are harness state, reconstructed
// identically because the restored stack reports identical deliveries).
type chaosRun struct {
	sc     ChaosScenario
	trace  bool
	s      *waggle.Swarm
	bm     *waggle.BackupMessenger
	radio  *waggle.Radio
	msgs   []chaosMsg
	cursor int
	done   bool
}

func (r *chaosRun) fail(err error) error {
	return fmt.Errorf("chaos %s: %w", r.sc.Name, err)
}

func newChaosRun(sc ChaosScenario, trace bool, obsv *waggle.Observer) (*chaosRun, error) {
	n := len(sc.Positions)
	r := &chaosRun{sc: sc, trace: trace}
	opts := []waggle.Option{waggle.WithSeed(sc.Seed)}
	if obsv != nil {
		opts = append(opts, waggle.WithObserver(obsv))
	}
	if !sc.Async {
		opts = append(opts, waggle.WithSynchronous())
	}
	if sc.Epoch > 0 {
		opts = append(opts, waggle.WithStabilization(sc.Epoch))
	}
	if trace {
		opts = append(opts, waggle.WithTrace())
	}
	if sc.Radio {
		r.radio = waggle.NewRadio(n, sc.Seed^0x7AD10)
		opts = append(opts, waggle.WithFaultRadio(r.radio))
	}
	if len(sc.Plan.Events) > 0 {
		opts = append(opts, waggle.WithFaultPlan(sc.Plan))
	}
	s, err := waggle.NewSwarm(sc.Positions, opts...)
	if err != nil {
		return nil, r.fail(err)
	}
	r.s = s
	if sc.Radio {
		if r.bm, err = waggle.NewBackupMessenger(r.radio, s); err != nil {
			return nil, r.fail(err)
		}
		if err := r.bm.SetPolicy(waggle.DefaultMessengerPolicy()); err != nil {
			return nil, r.fail(err)
		}
	}
	r.msgs = make([]chaosMsg, len(sc.Sends))
	for i, m := range sc.Sends {
		r.msgs[i] = chaosMsg{send: m, sentAt: -1, deliveredAt: -1}
	}
	return r, nil
}

// match attributes a delivery (or radio receipt) to the oldest
// outstanding submission with the same route and tag; decoded garbage
// matches nothing and is simply not counted.
func (r *chaosRun) match(from, to int, payload []byte, now int) {
	if len(payload) != 1 {
		return
	}
	for k := range r.msgs {
		m := &r.msgs[k]
		if m.sentAt >= 0 && m.deliveredAt < 0 &&
			m.send.From == from && m.send.To == to && m.send.Tag == payload[0] {
			m.deliveredAt = now
			return
		}
	}
}

// drive runs instants [from, until), submitting scheduled sends,
// stepping the stack and attributing deliveries, stopping early once
// every message is accounted for. It may be called again (with a later
// window, against a restored stack) to continue an interrupted run.
func (r *chaosRun) drive(from, until int) error {
	if r.done {
		return nil
	}
	n := len(r.sc.Positions)
	for t := from; t < until; t++ {
		var err error
		for k := range r.msgs {
			m := &r.msgs[k]
			if m.send.At != t {
				continue
			}
			m.sentAt = t
			payload := []byte{m.send.Tag}
			if r.bm != nil {
				err = r.bm.Send(m.send.From, m.send.To, payload)
			} else {
				err = r.s.Send(m.send.From, m.send.To, payload)
			}
			if err != nil {
				return r.fail(err)
			}
		}
		if r.bm != nil {
			err = r.bm.Step()
		} else {
			err = r.s.Step()
		}
		if err != nil {
			return r.fail(err)
		}
		now := r.s.Time()
		if r.radio != nil {
			for i := 0; i < n; i++ {
				for _, rm := range r.radio.Receive(i) {
					r.match(rm.From, rm.To, rm.Payload, now)
				}
			}
		}
		// The cursor over the delivery log is harness state; it stays
		// valid across a kill-and-resume because the restored stack
		// rebuilds the identical log.
		all := r.s.Delivered()
		for ; r.cursor < len(all); r.cursor++ {
			d := all[r.cursor]
			r.match(d.From, d.To, d.Payload, now)
		}
		r.done = true
		for k := range r.msgs {
			if r.msgs[k].sentAt < 0 || r.msgs[k].deliveredAt < 0 {
				r.done = false
				break
			}
		}
		if r.done {
			break
		}
	}
	return nil
}

// result summarizes the run into the reported row.
func (r *chaosRun) result() (*ChaosResult, error) {
	proto := r.s.Protocol().String()
	if r.sc.Epoch > 0 {
		proto = fmt.Sprintf("%s+stab(%d)", proto, r.sc.Epoch)
	}
	res := &ChaosResult{
		Scenario: r.sc.Name, Family: r.sc.Family, Protocol: proto,
		Sent: len(r.msgs), StepsToRecover: -1,
	}
	var latency float64
	for k := range r.msgs {
		m := &r.msgs[k]
		if m.deliveredAt < 0 {
			continue
		}
		res.Delivered++
		latency += float64(m.deliveredAt - m.sentAt)
		if m.send.Post {
			rec := m.deliveredAt - r.sc.FaultEnd
			if res.StepsToRecover < 0 || rec < res.StepsToRecover {
				res.StepsToRecover = rec
			}
		}
	}
	if res.Delivered > 0 {
		res.MeanLatency = latency / float64(res.Delivered)
	}
	if r.bm != nil {
		st := r.bm.DetailedStats()
		res.Retries = st.Retries
		res.Failovers = st.Failovers
		res.Failbacks = st.Failbacks
		res.ImplicitAcks = st.ImplicitAcks
	}
	if r.trace {
		var buf bytes.Buffer
		if err := r.s.WriteTraceCSV(&buf); err != nil {
			return nil, r.fail(err)
		}
		res.TraceCSV = buf.String()
	}
	return res, nil
}

func runChaos(sc ChaosScenario, trace bool, obsv *waggle.Observer) (*ChaosResult, error) {
	r, err := newChaosRun(sc, trace, obsv)
	if err != nil {
		return nil, err
	}
	if err := r.drive(0, sc.Budget); err != nil {
		return nil, err
	}
	return r.result()
}

// RunChaosScenarioResumedCodec executes a scenario with a simulated
// process death at instant killAt: the whole stack (swarm, radio,
// messenger) is checkpointed to a file, discarded, restored from the
// file, and the run continues on the restored stack. CodecBinary saves
// one full snapshot at killAt; CodecDelta drives the run to killAt in
// chunks with a periodic CheckpointWriter, so the file restored from is
// a real base + delta-frame chain, folded by the loader. Whatever the
// codec, the result — including the byte-identical movement trace —
// must equal RunChaosScenario's; the chaos determinism tests and
// waggle-chaos -resume-check enforce exactly that.
func RunChaosScenarioResumedCodec(sc ChaosScenario, killAt int, codec waggle.CheckpointCodec) (*ChaosResult, error) {
	if killAt < 0 || killAt > sc.Budget {
		return nil, fmt.Errorf("chaos %s: kill instant %d outside run budget %d", sc.Name, killAt, sc.Budget)
	}
	r, err := newChaosRun(sc, true, nil)
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp("", "waggle-chaos-*.wck")
	if err != nil {
		return nil, r.fail(err)
	}
	path := tmp.Name()
	tmp.Close()
	defer os.Remove(path)
	cw, err := r.s.NewCheckpointWriter(path, codec)
	if err != nil {
		return nil, r.fail(err)
	}
	chunk := killAt
	if codec == waggle.CodecDelta {
		chunk = killAt / 4
	}
	if chunk < 1 {
		chunk = 1
	}
	saved := false
	for t := 0; t < killAt && !r.done; {
		next := t + chunk
		if next > killAt {
			next = killAt
		}
		if err := r.drive(t, next); err != nil {
			return nil, err
		}
		t = next
		if !r.done {
			if err := cw.Save(); err != nil {
				return nil, r.fail(err)
			}
			saved = true
		}
	}
	if !r.done && saved {
		loaded, err := waggle.LoadCheckpoint(path)
		if err != nil {
			return nil, r.fail(err)
		}
		res, err := waggle.Restore(loaded)
		if err != nil {
			return nil, r.fail(err)
		}
		r.s, r.radio, r.bm = res.Swarm, res.Radio, res.Messenger
	}
	if err := r.drive(killAt, sc.Budget); err != nil {
		return nil, err
	}
	return r.result()
}

// ChaosTable runs every scenario and formats the report.
func ChaosTable(seed int64) (*render.Table, error) {
	var results []ChaosResult
	for _, sc := range ChaosScenarios(seed) {
		r, err := RunChaosScenario(sc, false)
		if err != nil {
			return nil, err
		}
		results = append(results, *r)
	}
	return ChaosResultTable(results), nil
}

// Chaos is the sweep-registry entry: the full scenario table at seed 1.
func Chaos() (*render.Table, error) { return ChaosTable(1) }
