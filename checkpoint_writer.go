package waggle

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"

	"waggle/internal/ckpt"
	"waggle/internal/wire"
)

// CheckpointCodec selects how a CheckpointWriter saves. Both codecs
// write the binary "waggle-ckpt/v2" format, the only one waggle writes;
// the JSON "waggle-ckpt/v1" files of older builds still load, but
// nothing writes them any more.
type CheckpointCodec int

const (
	// CodecBinary rewrites the whole file with a full snapshot on every
	// save.
	CodecBinary CheckpointCodec = iota + 1
	// CodecDelta appends per-interval deltas (only the robots whose
	// state changed) to a base snapshot, rebasing when the chain grows
	// long or the world churns. It is the writer's default.
	CodecDelta
)

// String returns the codec's CLI name ("binary", "delta").
func (c CheckpointCodec) String() string {
	switch c {
	case CodecBinary:
		return "binary"
	case CodecDelta:
		return "delta"
	}
	return fmt.Sprintf("CheckpointCodec(%d)", int(c))
}

// ParseCheckpointCodec maps a CLI name to its codec; "" is the
// default, CodecDelta. "json" names the read-only v1 format and fails.
func ParseCheckpointCodec(name string) (CheckpointCodec, error) {
	switch name {
	case "binary":
		return CodecBinary, nil
	case "", "delta":
		return CodecDelta, nil
	case "json":
		return 0, errors.New("waggle: checkpoint codec \"json\": the JSON v1 format is read-only (v1 files still load; saves are binary or delta)")
	}
	return 0, fmt.Errorf("waggle: unknown checkpoint codec %q (want binary or delta)", name)
}

// Rebase thresholds for CodecDelta: a new base snapshot is written when
// the chain reaches maxChainLen deltas (bounding load-time fold work)
// or when a single interval moved at least rebaseFraction of the swarm
// (past which a delta stops being smaller than a base).
const (
	maxChainLen    = 64
	rebaseFraction = 0.25
)

// endpointSweepMax is the swarm size up to which every delta capture
// simply compares all endpoint observables against the mirror. Above
// it the sparse path (moved robots + recorded senders) is used — valid
// because an endpoint's observables change only during the robot's own
// activation (which moves it, or at least stamps a touch) or a recorded
// send naming it; the messenger and the stabilization wrapper break
// that locality, so swarms using either always sweep.
const endpointSweepMax = 4096

// CheckpointWriter saves a swarm's state to one path repeatedly, as a
// simulation driver's periodic checkpointer. For CodecBinary every Save
// atomically rewrites the file with a full snapshot. For CodecDelta the
// first Save writes a base snapshot and subsequent Saves append a delta
// frame recording only what changed since the previous Save — at large
// n with sparse activation that is microseconds and a few hundred bytes
// instead of an O(n) rewrite — rebasing automatically per the
// thresholds above and after any failed append. The file is readable by
// LoadCheckpoint at every moment: after a base, after any delta, and
// (thanks to the append being a single write and torn trailing frames
// being dropped on load) even after a crash mid-append.
type CheckpointWriter struct {
	s     *Swarm
	path  string
	codec CheckpointCodec

	// Delta-chain state: the folded image of what the file holds, the
	// body CRC of its last frame, the chain length, the world clock and
	// recorder length at the previous save, and reusable scratch.
	mirror     *Checkpoint
	prevCRC    uint32
	chainLen   int
	sinceTime  int
	prevRecLen int
	sweepEps   bool
	touched    []int
	lastBytes  int
	lastDelta  bool
}

// NewCheckpointWriter returns a periodic checkpointer for the swarm,
// writing to path with the given codec, CodecDelta when none is given.
// CodecDelta enables position-touch tracking on the world, so the
// writer should be created before the run it will checkpoint.
func (s *Swarm) NewCheckpointWriter(path string, codec ...CheckpointCodec) (*CheckpointWriter, error) {
	c := CodecDelta
	switch len(codec) {
	case 0:
	case 1:
		c = codec[0]
	default:
		return nil, fmt.Errorf("waggle: NewCheckpointWriter takes at most one codec, got %d", len(codec))
	}
	switch c {
	case CodecBinary, CodecDelta:
	default:
		return nil, fmt.Errorf("waggle: unknown checkpoint codec %d", int(c))
	}
	cw := &CheckpointWriter{s: s, path: path, codec: c}
	if c == CodecDelta {
		s.net.World().EnableTouchTracking()
		cw.sweepEps = s.messenger != nil || s.opts.stabilizeEpoch > 0 || s.n <= endpointSweepMax
	}
	return cw, nil
}

// Codec returns the writer's serialization format.
func (cw *CheckpointWriter) Codec() CheckpointCodec { return cw.codec }

// Path returns the file the writer saves to.
func (cw *CheckpointWriter) Path() string { return cw.path }

// ChainLen returns how many delta frames follow the current base (0
// right after a base save, and always 0 for CodecBinary).
func (cw *CheckpointWriter) ChainLen() int { return cw.chainLen }

// LastSaveBytes returns how many bytes the most recent Save wrote: the
// whole file for a full snapshot, just the appended frame for a delta.
func (cw *CheckpointWriter) LastSaveBytes() int { return cw.lastBytes }

// LastSaveWasDelta reports whether the most recent Save appended a
// delta frame rather than rewriting a full snapshot.
func (cw *CheckpointWriter) LastSaveWasDelta() bool { return cw.lastDelta }

// Save checkpoints the swarm's current state to the writer's path.
func (cw *CheckpointWriter) Save() error {
	if cw.codec != CodecDelta || cw.mirror == nil || cw.configDrifted() {
		return cw.saveBase()
	}
	d, err := cw.captureDelta()
	if err != nil {
		return err
	}
	if cw.chainLen >= maxChainLen || float64(len(d.PosChanged)) >= rebaseFraction*float64(cw.s.n) {
		return cw.saveBase()
	}
	frame, crc, err := wire.EncodeDeltaFrame(d, &cw.mirror.State, cw.prevCRC)
	if err != nil {
		return err
	}
	if err := appendDurably(cw.path, frame); err != nil {
		// A failed append may have left a torn fragment, which a later
		// delta would strand mid-chain: the next Save writes a base.
		cw.mirror = nil
		return err
	}
	if err := wire.ApplyDelta(cw.mirror, d); err != nil {
		// The frame is already on disk but matches the mirror state it
		// was encoded against; an apply failure here means the delta
		// itself is malformed, which a load would reject too, so the
		// next Save rebases past it.
		cw.mirror = nil
		return err
	}
	cw.prevCRC = crc
	cw.chainLen++
	cw.noteSaved(len(frame), true)
	return nil
}

// saveBase writes a fresh base snapshot atomically — every CodecBinary
// save, and a CodecDelta (re)base — and resets the chain.
func (cw *CheckpointWriter) saveBase() error {
	ck, err := cw.s.Checkpoint()
	if err != nil {
		return err
	}
	frame, crc, err := wire.EncodeBaseFrame(ck)
	if err != nil {
		return err
	}
	if err := ckpt.WriteFileAtomic(cw.path, frame); err != nil {
		return err
	}
	if cw.codec == CodecDelta {
		// Only a chain diffs against the saved image; a full-snapshot
		// writer keeps none alive between saves.
		cw.mirror = ck
	}
	cw.prevCRC = crc
	cw.chainLen = 0
	cw.noteSaved(len(frame), false)
	return nil
}

// noteSaved records the bookkeeping every successful save shares: the
// world clock and recorder length the next delta will diff against.
func (cw *CheckpointWriter) noteSaved(bytes int, delta bool) {
	cw.sinceTime = cw.s.net.World().Time()
	cw.prevRecLen = cw.s.rec.Len()
	cw.lastBytes = bytes
	cw.lastDelta = delta
}

// configDrifted reports whether the swarm's construction recipe changed
// since the base snapshot — a radio or messenger coupled mid-run — in
// which case the base must be rewritten (deltas carry state, not
// config). Positions and options are immutable after construction, so
// only the cheap coupling fields are checked.
func (cw *CheckpointWriter) configDrifted() bool {
	cfg := &cw.mirror.Config
	if cfg.Messenger != (cw.s.messenger != nil) {
		return true
	}
	if (cfg.Radio == nil) != (cw.s.radio == nil) {
		return true
	}
	if cfg.Radio != nil && (cfg.Radio.N != cw.s.radio.n || cfg.Radio.Seed != cw.s.radio.seed) {
		return true
	}
	return false
}

// captureDelta builds the delta from the previous save's mirror to the
// swarm's current state without materializing a full snapshot: cost is
// proportional to what changed (plus one pass over the scheduler's
// idle counters when the scheduler is randomized), not to n.
func (cw *CheckpointWriter) captureDelta() (*wire.Delta, error) {
	s := cw.s
	w := s.net.World()
	mirror := &cw.mirror.State
	d := &wire.Delta{
		Time:     w.Time(),
		Consumed: s.net.Consumed(),
	}
	var idle []int
	d.SchedulerDraws, idle = schedulerStateRef(s.net.Scheduler())

	// Positions: only robots stamped by the touch tracker since the
	// previous save, value-diffed against the mirror (the stamp set may
	// be a superset of the robots that actually ended up elsewhere).
	cw.touched = w.AppendTouchedSince(cw.sinceTime, cw.touched[:0])
	for _, i := range cw.touched {
		p := w.Position(i)
		xy := ckpt.XY{X: p.X, Y: p.Y}
		if xy != mirror.Positions[i] {
			d.PosChanged = append(d.PosChanged, wire.PosChange{Index: i, Pos: xy})
		}
	}

	// Input log tail: the recorder only appends entries or grows the
	// last entry's run-length count, so everything before the previous
	// save's final entry is immutable.
	tailStart := cw.prevRecLen - 1
	if tailStart < 0 {
		tailStart = 0
	}
	d.InputTailStart = tailStart
	d.InputTail = s.rec.OpsSince(tailStart)

	// Endpoint observables. The sparse candidate set is the touched
	// robots (observables change during a robot's own activation, which
	// also moves it) plus every sender named in the new input entries.
	if cw.sweepEps {
		for i := 0; i < s.n; i++ {
			ep := s.net.Endpoint(i)
			es := ckpt.EndpointState{Pending: ep.PendingMessages(), Idle: ep.Idle(), SentBits: ep.SentBits()}
			if es != mirror.Endpoints[i] {
				d.EndpointChanged = append(d.EndpointChanged, wire.EndpointChange{Index: i, State: es})
			}
		}
	} else {
		cand := append([]int(nil), cw.touched...)
		for _, in := range d.InputTail {
			switch in.Op {
			case ckpt.OpSend, ckpt.OpBroadcast, ckpt.OpSendAll:
				if in.From >= 0 && in.From < s.n {
					cand = append(cand, in.From)
				}
			}
		}
		sort.Ints(cand)
		prev := -1
		for _, i := range cand {
			if i == prev {
				continue
			}
			prev = i
			ep := s.net.Endpoint(i)
			es := ckpt.EndpointState{Pending: ep.PendingMessages(), Idle: ep.Idle(), SentBits: ep.SentBits()}
			if es != mirror.Endpoints[i] {
				d.EndpointChanged = append(d.EndpointChanged, wire.EndpointChange{Index: i, State: es})
			}
		}
	}

	// Delivery log: append-only, so just the new suffix.
	d.DeliveredTail = messagesToState(s.net.DeliveredSince(len(mirror.Delivered)))

	if idle != nil {
		d.HasIdle = true
		d.IdleLen = len(idle)
		d.IdleShift, d.IdleOverrides = wire.DiffIdle(mirror.SchedulerIdle, idle)
	}

	// Subsystem snapshots are small relative to the swarm: recapture
	// whole, carry only if changed.
	if s.radio != nil || mirror.Radio != nil {
		var rs *ckpt.RadioState
		if s.radio != nil {
			rs = radioState(s.radio.inner.Snapshot())
		}
		if !reflect.DeepEqual(rs, mirror.Radio) {
			d.RadioChanged = true
			d.Radio = rs
		}
	}
	if s.messenger != nil || mirror.Messenger != nil {
		var ms *ckpt.MessengerState
		if s.messenger != nil {
			ms = messengerState(s.messenger.inner.Snapshot())
		}
		if !reflect.DeepEqual(ms, mirror.Messenger) {
			d.MessengerChanged = true
			d.Messenger = ms
		}
	}
	if fs := s.faultState(); !reflect.DeepEqual(fs, mirror.Fault) {
		d.FaultChanged = true
		d.Fault = fs
	}

	var err error
	if d.TraceDigest, err = s.traceDigest(); err != nil {
		return nil, err
	}
	if d.ObsDigest, err = s.obsDigest(); err != nil {
		return nil, err
	}
	return d, nil
}

// appendDurably appends one frame to the file with a single write and
// fsyncs it. A crash can only tear the trailing frame, which the chain
// loader drops — the file never stops being loadable.
func appendDurably(path string, frame []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("waggle: open checkpoint for append: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return fmt.Errorf("waggle: append checkpoint delta: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("waggle: sync checkpoint delta: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("waggle: close checkpoint: %w", err)
	}
	return nil
}
