// Package ckpt implements deterministic checkpoint/restore for waggle
// swarms: a versioned, schema-stable file format holding everything
// needed to resume a run byte-identically.
//
// A checkpoint is three things:
//
//   - Config: the swarm's complete construction recipe (positions,
//     options, radio seed, messenger coupling, observer capacity) —
//     enough to rebuild an identical swarm at instant 0.
//   - Inputs: the ordered log of every state-mutating public API call
//     since construction (sends, steps, messenger and radio traffic).
//     The simulation is deterministic — the paper's premise is that an
//     execution is fully determined by the observed configuration
//     history — so replaying the inputs against the rebuilt swarm
//     reproduces the checkpointed run exactly, including every private
//     behavior and endpoint state no snapshot could serialize.
//   - State: a schema-stable snapshot of the externally observable
//     state at capture time (positions, time, queues, cursors, RNG
//     stream positions, fault windows, trace and obs digests). Restore
//     re-captures the same snapshot after replay and requires deep
//     equality; any divergence — a corrupt file, a code change that
//     broke determinism — fails the restore instead of silently
//     resuming a different run.
//
// The facade (package waggle) owns capture and replay; this package
// owns the schema, the input recorder, the atomic file write, and the
// decoder of the original JSON format (waggle-ckpt/v1). That format is
// read-only: every checkpoint waggle writes is binary waggle-ckpt/v2
// (internal/wire), and v1 files written by older builds still load.
package ckpt

import "sync"

// Schema is the version tag of the read-only JSON checkpoint format.
// Decode rejects every other value, so a file of another version fails
// loudly instead of misparsing.
const Schema = "waggle-ckpt/v1"

// Checkpoint is the complete resumable image of a run, independent of
// the format that carries it; the JSON tags are the v1 field names.
type Checkpoint struct {
	Config Config  `json:"config"`
	Inputs []Input `json:"inputs,omitempty"`
	State  State   `json:"state"`
}

// XY is a plain point, the JSON form of waggle.Point.
type XY struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Config is the swarm's construction recipe: rebuild a swarm from it
// and you are at instant 0 of the same seeded execution.
type Config struct {
	Positions []XY            `json:"positions"`
	Options   Options         `json:"options"`
	Radio     *RadioConfig    `json:"radio,omitempty"`
	Messenger bool            `json:"messenger,omitempty"`
	Observer  *ObserverConfig `json:"observer,omitempty"`
}

// Options mirrors the facade's resolved option set field by field, in
// JSON-stable form. Engine is reserved: older builds recorded their
// step-engine mode there. New captures write 0, and restore ignores it,
// so old files still decode, re-encode byte for byte and restore.
type Options struct {
	Synchronous      bool               `json:"synchronous,omitempty"`
	Identified       bool               `json:"identified,omitempty"`
	SenseOfDirection bool               `json:"sense_of_direction,omitempty"`
	LeftHanded       bool               `json:"left_handed,omitempty"`
	Protocol         int                `json:"protocol,omitempty"`
	Levels           int                `json:"levels,omitempty"`
	BoundedSlices    int                `json:"bounded_slices,omitempty"`
	AlternateDrift   bool               `json:"alternate_drift,omitempty"`
	Seed             int64              `json:"seed,omitempty"`
	Sigma            float64            `json:"sigma,omitempty"`
	Trace            bool               `json:"trace,omitempty"`
	Flock            *XY                `json:"flock,omitempty"`
	Scheduler        int                `json:"scheduler,omitempty"`
	StarveVictim     int                `json:"starve_victim,omitempty"`
	StarveDelay      int                `json:"starve_delay,omitempty"`
	ActivationProb   float64            `json:"activation_prob,omitempty"`
	Engine           int                `json:"engine,omitempty"`
	StabilizeEpoch   int                `json:"stabilize_epoch,omitempty"`
	FaultPlan        []FaultEventConfig `json:"fault_plan,omitempty"`
	HasFaultPlan     bool               `json:"has_fault_plan,omitempty"`
	FaultRadio       bool               `json:"fault_radio,omitempty"`
}

// FaultEventConfig is one scheduled fault event, mirroring
// waggle.FaultEvent.
type FaultEventConfig struct {
	Kind  int     `json:"kind"`
	At    int     `json:"at"`
	Until int     `json:"until,omitempty"`
	Robot int     `json:"robot"`
	Mag   float64 `json:"mag,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	DX    float64 `json:"dx,omitempty"`
	DY    float64 `json:"dy,omitempty"`
}

// RadioConfig rebuilds the coupled radio.
type RadioConfig struct {
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
}

// ObserverConfig rebuilds the attached observer.
type ObserverConfig struct {
	TraceCapacity int `json:"trace_capacity"`
}

// Input ops. Each names one state-mutating public API call; the replay
// dispatcher in the facade switches on them.
const (
	OpSend         = "send"         // Swarm.Send(From, To, Payload)
	OpBroadcast    = "broadcast"    // Swarm.Broadcast(From, Payload)
	OpSendAll      = "sendall"      // Swarm.SendAll(From, Payload)
	OpStep         = "step"         // Swarm.Step, Reps times
	OpRunDelivered = "run-sim"      // Swarm.RunUntilDelivered(Count, Max)
	OpRunQuiet     = "run-quiet"    // Swarm.RunUntilQuiet(Max)
	OpMsgSend      = "msend"        // BackupMessenger.Send(From, To, Payload)
	OpMsgTick      = "mtick"        // BackupMessenger.Tick, Reps times
	OpMsgStep      = "mstep"        // BackupMessenger.Step, Reps times
	OpMsgRun       = "mrun-settled" // BackupMessenger.RunUntilSettled(Max)
	OpMsgPolicy    = "mpolicy"      // BackupMessenger.SetPolicy(Policy)
	OpRadioBreak   = "rbreak"       // Radio.Break(From)
	OpRadioRepair  = "rrepair"      // Radio.Repair(From)
	OpRadioJam     = "rjam"         // Radio.SetJamming(P)
	OpRadioSend    = "rsend"        // Radio.Send(From, To, Payload)
	OpRadioRecv    = "rrecv"        // Radio.Receive(From)
)

// Input is one recorded public API call. T is the simulated instant at
// which it was issued (diagnostic only: replay is ordered, not timed).
// Reps > 1 marks a run-length-merged repetition of an argument-free op
// (step, mstep, mtick), keeping the log linear in distinct operations
// rather than in simulated instants.
type Input struct {
	T       int           `json:"t"`
	Op      string        `json:"op"`
	From    int           `json:"from,omitempty"`
	To      int           `json:"to,omitempty"`
	Payload []byte        `json:"payload,omitempty"`
	Count   int           `json:"count,omitempty"`
	Max     int           `json:"max,omitempty"`
	Reps    int           `json:"reps,omitempty"`
	P       float64       `json:"p,omitempty"`
	Policy  *PolicyConfig `json:"policy,omitempty"`
}

// PolicyConfig mirrors waggle.MessengerPolicy.
type PolicyConfig struct {
	MaxRetries int `json:"max_retries"`
	Backoff    int `json:"backoff"`
	Deadline   int `json:"deadline"`
	ProbeEvery int `json:"probe_every"`
}

// State is the externally observable snapshot at capture time, used as
// the post-replay integrity check (and as human-readable metadata). The
// capture code must leave empty slices nil so a snapshot survives a
// JSON round trip under reflect.DeepEqual.
type State struct {
	Time           int             `json:"time"`
	Positions      []XY            `json:"positions"`
	Consumed       int             `json:"consumed"`
	Delivered      []MessageState  `json:"delivered,omitempty"`
	Endpoints      []EndpointState `json:"endpoints"`
	SchedulerDraws uint64          `json:"scheduler_draws,omitempty"`
	SchedulerIdle  []int           `json:"scheduler_idle,omitempty"`
	Radio          *RadioState     `json:"radio,omitempty"`
	Messenger      *MessengerState `json:"messenger,omitempty"`
	Fault          *FaultState     `json:"fault,omitempty"`
	TraceDigest    string          `json:"trace_digest,omitempty"`
	ObsDigest      string          `json:"obs_digest,omitempty"`
}

// MessageState is one queued or delivered message.
type MessageState struct {
	From    int    `json:"from"`
	To      int    `json:"to"`
	Payload []byte `json:"payload,omitempty"`
}

// EndpointState is the observable slice of one robot's protocol
// endpoint: queue depth, idleness, and transmitted bits. The private
// codec state is opaque — it is reproduced by replay and checked
// indirectly through positions, traces, and these observables.
type EndpointState struct {
	Pending  int  `json:"pending,omitempty"`
	Idle     bool `json:"idle"`
	SentBits int  `json:"sent_bits,omitempty"`
}

// RadioState is the checkpointed core.Radio: jam-stream position as
// (seed, draws), per-robot faults, undrained inboxes, counters.
type RadioState struct {
	Seed      int64            `json:"seed"`
	Draws     uint64           `json:"draws,omitempty"`
	JamProb   float64          `json:"jam_prob,omitempty"`
	Broken    []bool           `json:"broken,omitempty"`
	Inboxes   [][]MessageState `json:"inboxes,omitempty"`
	Sent      int              `json:"sent,omitempty"`
	Lost      int              `json:"lost,omitempty"`
	Delivered int              `json:"delivered,omitempty"`
}

// MessengerState is the checkpointed core.BackupMessenger: counters,
// retry queue, acknowledgement watches, ack cursor, per-sender modes.
type MessengerState struct {
	ViaRadio     int            `json:"via_radio,omitempty"`
	ViaMovement  int            `json:"via_movement,omitempty"`
	Retries      int            `json:"retries,omitempty"`
	Failovers    int            `json:"failovers,omitempty"`
	Failbacks    int            `json:"failbacks,omitempty"`
	Expired      int            `json:"expired,omitempty"`
	ImplicitAcks int            `json:"implicit_acks,omitempty"`
	Pending      []PendingState `json:"pending,omitempty"`
	Watches      []MessageState `json:"watches,omitempty"`
	AckCursor    int            `json:"ack_cursor,omitempty"`
	Mode         []int          `json:"mode,omitempty"`
	ProbeAt      []int          `json:"probe_at,omitempty"`
}

// PendingState is one retry-queue entry.
type PendingState struct {
	From      int    `json:"from"`
	To        int    `json:"to"`
	Payload   []byte `json:"payload,omitempty"`
	Submitted int    `json:"submitted,omitempty"`
	Attempts  int    `json:"attempts,omitempty"`
	NextTry   int    `json:"next_try,omitempty"`
}

// FaultState is the injector's radio-window cursor: which outage
// windows it currently holds open and whether a jam window is active.
type FaultState struct {
	Outage []bool `json:"outage,omitempty"`
	Jam    bool   `json:"jam,omitempty"`
}

// Recorder accumulates the ordered input log. The facade records every
// state-mutating public API call into it; consecutive repetitions of
// argument-free ops are run-length merged so driving loops (step, step,
// step, …) cost one entry, not one per instant. Safe for concurrent
// use, though a swarm's public API is not itself concurrent.
type Recorder struct {
	mu  sync.Mutex
	ops []Input
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// mergeable reports whether consecutive identical ops of this kind
// collapse into one run-length-counted entry.
func mergeable(op string) bool {
	switch op {
	case OpStep, OpMsgStep, OpMsgTick:
		return true
	}
	return false
}

// Record appends one input, copying the payload so later caller
// mutations cannot corrupt the log.
func (r *Recorder) Record(in Input) {
	if in.Payload != nil {
		in.Payload = append([]byte(nil), in.Payload...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.ops); n > 0 && mergeable(in.Op) && r.ops[n-1].Op == in.Op {
		last := &r.ops[n-1]
		if last.Reps == 0 {
			last.Reps = 1
		}
		last.Reps++
		return
	}
	r.ops = append(r.ops, in)
}

// Ops returns a copy of the log (entries share payload backing; the
// recorder never mutates recorded payloads).
func (r *Recorder) Ops() []Input {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ops == nil {
		return nil
	}
	return append([]Input(nil), r.ops...)
}

// OpsSince returns a copy of the log entries from index from onward.
// Because Record only ever appends entries or grows the final entry's
// run-length count, the prefix before from is immutable once observed —
// a periodic saver can remember the previous Len()-1 and fetch just the
// (possibly re-merged) tail instead of re-copying the whole log on
// every save. A from past the end returns nil; a negative from is
// treated as zero.
func (r *Recorder) OpsSince(from int) []Input {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(r.ops) {
		return nil
	}
	return append([]Input(nil), r.ops[from:]...)
}

// Len returns how many (merged) entries the log holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// Reset replaces the log wholesale — restore uses it to seat the
// replayed checkpoint's log so the resumed swarm keeps recording from
// genesis and can itself be checkpointed again.
func (r *Recorder) Reset(ops []Input) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append([]Input(nil), ops...)
}

// AbsorbFrom moves every op recorded by other into this recorder,
// leaving other empty. The facade uses it when a free-standing radio
// (which buffers its own pre-coupling ops) is attached to a swarm's
// recorder; the move makes a double splice harmless.
func (r *Recorder) AbsorbFrom(other *Recorder) {
	if other == nil || other == r {
		return
	}
	other.mu.Lock()
	moved := other.ops
	other.ops = nil
	other.mu.Unlock()
	r.mu.Lock()
	r.ops = append(r.ops, moved...)
	r.mu.Unlock()
}
