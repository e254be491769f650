// waggle-stream/v1: an append-only movement/event stream of WST1
// frames (frame.go) — the checkpoint chain's layout and torn-tail rule,
// with fsyncs batched on write — but tuned for tailing rather than
// folding:
//
//   - every record is self-delimiting and written with a single
//     write(2), so a concurrent reader (or a reader after kill -9)
//     sees a clean prefix plus at most one torn tail record;
//   - there is deliberately *no* WCD2-style prevCRC back-link: a
//     spectator joining mid-stream starts at a keyframe without having
//     hashed the prefix, which is the whole point of the format. The
//     per-record CRC still catches corruption; ordering is protected
//     by the file being single-writer append-only;
//   - periodic keyframes carry the full position vector (and the
//     cumulative delivery count, and — on close — the live trace
//     digest), so a reader can seed its state at any keyframe and
//     decode forward.
//
// Record bodies (all CRC-protected, first byte is the kind):
//
//	header:   schema string, robot count n, keyframe cadence
//	keyframe: time, positions (encodePositions), delivered, digest
//	step:     time, moves, active set, deliveries, fault events
//	events:   time, moves, deliveries, fault events (no step row —
//	          teleports between steps, deliveries flushed at close)
//
// Moves are sparse: signed index gaps plus per-coordinate deltas
// against the previous position of the moved robot, fixed-point when
// every endpoint is exactly representable (same probe as the
// checkpoint codec) and IEEE-754 bit-pattern deltas otherwise.
package wire

import (
	"errors"
	"fmt"
	"math"
	"os"

	"waggle/internal/ckpt"
	"waggle/internal/obs"
)

// StreamSchema is the version tag written in every stream header.
const StreamSchema = "waggle-stream/v1"

// Record kinds, on the wire as the first body byte and decoded to the
// Stream* name constants below.
const (
	streamKindHeader   byte = 0
	streamKindKeyframe byte = 1
	streamKindStep     byte = 2
	streamKindEvents   byte = 3
)

// Decoded record kind names.
const (
	StreamHeader   = "header"
	StreamKeyframe = "keyframe"
	StreamStep     = "step"
	StreamEvents   = "events"
)

// Writer tuning: a keyframe every 256 steps bounds a mid-stream join
// to replaying at most 256 step records, and one fsync per 64 records
// keeps the write overhead per step far under the cost of the step
// itself without risking more than a bounded tail on crash (the
// torn-tail reader absorbs whatever the page cache lost).
const (
	StreamKeyframeEvery = 256
	streamSyncEvery     = 64
)

// StreamMove is one robot's position change within a step, in
// application order (injector displacements precede the scheduler's
// moves, so a robot may appear more than once).
type StreamMove struct {
	Robot int
	To    ckpt.XY
}

// StreamRecord is one decoded stream record. Offset/Next are its byte
// bounds in the file, so Next of the last record is the resume offset
// for a tailing reader. Move targets are resolved to absolute
// positions by the decoder.
type StreamRecord struct {
	Kind   string
	Offset int64
	Next   int64
	T      int

	// header
	N       int
	Cadence int

	// keyframe
	Positions []ckpt.XY
	Delivered int
	Digest    string

	// step / events
	Moves      []StreamMove
	Active     []int
	Deliveries []ckpt.MessageState
	Events     []obs.Event
}

// ---------------------------------------------------------------------
// Writer.

// StreamWriter appends waggle-stream/v1 records to a file. It is not
// safe for concurrent use; the facade drives it from the stepping
// goroutine. The writer mirrors the swarm's positions so move records
// can be delta coded and keyframes need no caller-side copy.
type StreamWriter struct {
	f            *os.File
	n            int
	sinceSync    int
	offset       int64
	mirror       []ckpt.XY
	needKeyframe bool
}

// OpenStream opens path for appending, creating it (header record
// included) when absent. On an existing file it validates the header
// against n, verifies every complete record's CRC, and truncates a
// torn tail left by a crash. In both cases the contract is the same:
// the caller must append a keyframe before any step record, which
// seeds the mirror and gives joining readers a clean entry point —
// AppendStep errors until then.
func OpenStream(path string, n int) (*StreamWriter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wire: stream needs n >= 1, got %d", n)
	}
	d := &streamDecoder{}
	f, end, err := OpenAppend(path, streamFormat, func(fr Frame) error {
		if fr.Off != 0 {
			return nil
		}
		rec, err := d.decode(fr)
		if err != nil {
			return err
		}
		if rec.Kind != StreamHeader {
			return fmt.Errorf("%w: stream does not start with a header record", ckpt.ErrSchema)
		}
		if rec.N != n {
			return fmt.Errorf("%w: stream holds %d robots, writer has %d", ckpt.ErrSchema, rec.N, n)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("wire: open stream %s: %w", path, err)
	}
	sw := &StreamWriter{f: f, n: n, offset: end, needKeyframe: true}
	if end == 0 {
		if err := sw.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return sw, nil
}

func (sw *StreamWriter) writeHeader() error {
	w := &writer{}
	w.byte(streamKindHeader)
	w.str(StreamSchema)
	w.uint(sw.n)
	w.uint(StreamKeyframeEvery)
	return sw.appendRecord(w.buf)
}

// Offset reports the byte offset past the last appended record.
func (sw *StreamWriter) Offset() int64 { return sw.offset }

// appendRecord frames and appends one record body with a single
// write(2): a tailing reader or a post-crash scan never sees an
// interleaved record, only a clean prefix plus at most one torn tail.
func (sw *StreamWriter) appendRecord(body []byte) error {
	frame, _ := EncodeFrame(magicStream, 0, body)
	if _, err := sw.f.Write(frame); err != nil {
		return fmt.Errorf("wire: stream append: %w", err)
	}
	sw.offset += int64(len(frame))
	sw.sinceSync++
	if sw.sinceSync >= streamSyncEvery {
		sw.sinceSync = 0
		if err := sw.f.Sync(); err != nil {
			return fmt.Errorf("wire: stream sync: %w", err)
		}
	}
	return nil
}

// AppendKeyframe writes a self-contained state record: the position
// vector at time t, the cumulative delivery count, and an optional
// trace digest (written by the facade on close so a replay can verify
// itself). positions == nil means "use the writer's own mirror"; an
// explicit slice (re)seeds the mirror, which is how OpenStream's
// keyframe-first contract is satisfied after create or reopen.
func (sw *StreamWriter) AppendKeyframe(t int, positions []ckpt.XY, delivered int, digest string) error {
	if positions == nil {
		positions = sw.mirror
	}
	if len(positions) != sw.n {
		return fmt.Errorf("wire: keyframe has %d positions, stream holds %d robots", len(positions), sw.n)
	}
	w := &writer{buf: make([]byte, 0, 16+len(positions)*6+len(digest))}
	w.byte(streamKindKeyframe)
	w.int(t)
	encodePositions(w, positions)
	w.uint(delivered)
	w.str(digest)
	if err := sw.appendRecord(w.buf); err != nil {
		return err
	}
	if sw.mirror == nil {
		sw.mirror = make([]ckpt.XY, sw.n)
	}
	copy(sw.mirror, positions)
	sw.needKeyframe = false
	return nil
}

// AppendStep writes one step record: the moves applied at time t (in
// application order), the activated set, the deliveries collected for
// the step, and any fault events observed during it.
func (sw *StreamWriter) AppendStep(t int, moves []StreamMove, active []int, deliveries []ckpt.MessageState, events []obs.Event) error {
	if sw.needKeyframe {
		return errors.New("wire: stream needs a keyframe before step records")
	}
	w := &writer{buf: make([]byte, 0, 16+len(moves)*8+len(active)*2)}
	w.byte(streamKindStep)
	w.int(t)
	if err := sw.encodeMoves(w, moves); err != nil {
		return err
	}
	encodeActive(w, active)
	encodeMessages(w, deliveries)
	encodeStreamEvents(w, events)
	return sw.appendRecord(w.buf)
}

// AppendEvents writes an out-of-step record — moves (teleports),
// deliveries, or events that happened at time t without an enclosing
// step, e.g. a teleport between instants or the deliveries flushed when
// the stream closes. A replay applies its moves but emits no step row.
func (sw *StreamWriter) AppendEvents(t int, moves []StreamMove, deliveries []ckpt.MessageState, events []obs.Event) error {
	if sw.needKeyframe {
		return errors.New("wire: stream needs a keyframe before event records")
	}
	w := &writer{}
	w.byte(streamKindEvents)
	w.int(t)
	if err := sw.encodeMoves(w, moves); err != nil {
		return err
	}
	encodeMessages(w, deliveries)
	encodeStreamEvents(w, events)
	return sw.appendRecord(w.buf)
}

// Sync forces the batched fsync.
func (sw *StreamWriter) Sync() error {
	sw.sinceSync = 0
	if err := sw.f.Sync(); err != nil {
		return fmt.Errorf("wire: stream sync: %w", err)
	}
	return nil
}

// Close syncs and closes the file.
func (sw *StreamWriter) Close() error {
	if sw.f == nil {
		return nil
	}
	serr := sw.f.Sync()
	cerr := sw.f.Close()
	sw.f = nil
	if serr != nil {
		return fmt.Errorf("wire: stream close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wire: stream close: %w", cerr)
	}
	return nil
}

func fixedOK(c float64) bool {
	const limit = 1 << 62
	s := c * (1 << fixedShift)
	return s == math.Trunc(s) && math.Abs(s) < limit
}

// encodeMoves delta codes moves against the mirror and folds them into
// it. The mode probe mirrors encodePositions: fixed-point integer
// deltas when every endpoint is exactly representable, IEEE-754
// bit-pattern deltas otherwise — both lossless.
func (sw *StreamWriter) encodeMoves(w *writer, moves []StreamMove) error {
	w.uint(len(moves))
	if len(moves) == 0 {
		return nil
	}
	mode := byte(1)
	for _, m := range moves {
		if m.Robot < 0 || m.Robot >= sw.n {
			return fmt.Errorf("wire: stream move for robot %d, stream holds %d", m.Robot, sw.n)
		}
		from := sw.mirror[m.Robot]
		if !fixedOK(from.X) || !fixedOK(from.Y) || !fixedOK(m.To.X) || !fixedOK(m.To.Y) {
			mode = 0
			break
		}
	}
	w.byte(mode)
	prev := 0
	for _, m := range moves {
		from := sw.mirror[m.Robot]
		w.varint(int64(m.Robot - prev))
		prev = m.Robot
		if mode == 1 {
			w.varint(int64(m.To.X*(1<<fixedShift)) - int64(from.X*(1<<fixedShift)))
			w.varint(int64(m.To.Y*(1<<fixedShift)) - int64(from.Y*(1<<fixedShift)))
		} else {
			w.varint(int64(math.Float64bits(m.To.X) - math.Float64bits(from.X)))
			w.varint(int64(math.Float64bits(m.To.Y) - math.Float64bits(from.Y)))
		}
		sw.mirror[m.Robot] = m.To
	}
	return nil
}

func encodeActive(w *writer, active []int) {
	w.uint(len(active))
	prev := 0
	for _, a := range active {
		w.varint(int64(a - prev))
		prev = a
	}
}

func encodeStreamEvents(w *writer, events []obs.Event) {
	w.uint(len(events))
	for _, e := range events {
		w.byte(byte(e.Kind))
		w.int(e.T)
		w.int(e.Robot)
		w.int(e.Peer)
		w.f64(e.Val)
	}
}

// ---------------------------------------------------------------------
// Reader.

// streamDecoder resolves delta-coded records against running state:
// the header seeds n, each keyframe reseeds the position vector, and
// step/events records fold their moves into it.
type streamDecoder struct {
	n         int
	gotHeader bool
	pos       []ckpt.XY
}

func (d *streamDecoder) decode(fr Frame) (StreamRecord, error) {
	rec := StreamRecord{Offset: fr.Off, Next: fr.Next}
	r := &reader{buf: fr.Body}
	kind := r.byte() // the scanner never yields an empty body
	switch kind {
	case streamKindHeader:
		rec.Kind = StreamHeader
		schema := r.str()
		if r.err == nil && schema != StreamSchema {
			return rec, fmt.Errorf("%w: stream schema %q, want %q", ckpt.ErrSchema, schema, StreamSchema)
		}
		rec.N = int(r.uvarint())
		rec.Cadence = int(r.uvarint())
		if r.err == nil && rec.N <= 0 {
			return rec, fmt.Errorf("%w: stream header holds %d robots", ckpt.ErrSchema, rec.N)
		}
		d.n = rec.N
		d.gotHeader = true
	case streamKindKeyframe:
		if !d.gotHeader {
			return rec, fmt.Errorf("%w: stream keyframe before header", ckpt.ErrSchema)
		}
		rec.Kind = StreamKeyframe
		rec.T = r.int()
		rec.Positions = decodePositions(r)
		if r.err == nil && len(rec.Positions) != d.n {
			return rec, fmt.Errorf("%w: keyframe has %d positions, header says %d", ckpt.ErrSchema, len(rec.Positions), d.n)
		}
		rec.Delivered = int(r.uvarint())
		rec.Digest = r.str()
		if r.err == nil {
			// Copy: later move records fold into d.pos, and the
			// emitted record must keep the keyframe's own snapshot.
			d.pos = append([]ckpt.XY(nil), rec.Positions...)
		}
	case streamKindStep, streamKindEvents:
		if d.pos == nil {
			return rec, fmt.Errorf("%w: stream step record before any keyframe", ckpt.ErrSchema)
		}
		rec.Kind = StreamStep
		rec.T = r.int()
		rec.Moves = d.decodeMoves(r)
		if kind == streamKindEvents {
			rec.Kind = StreamEvents
		} else {
			rec.Active = decodeActive(r)
		}
		rec.Deliveries = decodeMessages(r)
		rec.Events = decodeStreamEvents(r)
	default:
		return rec, fmt.Errorf("%w: unknown stream record kind %d", ckpt.ErrSchema, kind)
	}
	if r.err != nil {
		return rec, r.err
	}
	if r.remaining() != 0 {
		return rec, fmt.Errorf("%w: %d trailing bytes in stream record", ckpt.ErrTruncated, r.remaining())
	}
	return rec, nil
}

func (d *streamDecoder) decodeMoves(r *reader) []StreamMove {
	count, _ := r.sliceLenRaw(3)
	if count == 0 || r.err != nil {
		return nil
	}
	mode := r.byte()
	if r.err == nil && mode > 1 {
		r.fail("bad stream move mode %d", mode)
		return nil
	}
	out := make([]StreamMove, 0, count)
	prev := 0
	for k := 0; k < count && r.err == nil; k++ {
		robot := prev + int(r.varint())
		prev = robot
		if r.err != nil {
			break
		}
		if robot < 0 || robot >= len(d.pos) {
			r.fail("stream move robot %d out of range %d", robot, len(d.pos))
			return nil
		}
		from := d.pos[robot]
		var to ckpt.XY
		if mode == 1 {
			const scale = float64(int64(1) << fixedShift)
			to = ckpt.XY{
				X: float64(int64(from.X*(1<<fixedShift))+r.varint()) / scale,
				Y: float64(int64(from.Y*(1<<fixedShift))+r.varint()) / scale,
			}
		} else {
			to = ckpt.XY{
				X: math.Float64frombits(math.Float64bits(from.X) + uint64(r.varint())),
				Y: math.Float64frombits(math.Float64bits(from.Y) + uint64(r.varint())),
			}
		}
		d.pos[robot] = to
		out = append(out, StreamMove{Robot: robot, To: to})
	}
	if r.err != nil {
		return nil
	}
	return out
}

func decodeActive(r *reader) []int {
	count, _ := r.sliceLenRaw(1)
	if count == 0 || r.err != nil {
		return nil
	}
	out := make([]int, 0, count)
	prev := 0
	for k := 0; k < count && r.err == nil; k++ {
		prev += int(r.varint())
		out = append(out, prev)
	}
	if r.err != nil {
		return nil
	}
	return out
}

func decodeStreamEvents(r *reader) []obs.Event {
	count, _ := r.sliceLenRaw(12)
	if count == 0 || r.err != nil {
		return nil
	}
	out := make([]obs.Event, 0, count)
	for k := 0; k < count && r.err == nil; k++ {
		out = append(out, obs.Event{
			Kind:  obs.EventKind(r.byte()),
			T:     r.int(),
			Robot: r.int(),
			Peer:  r.int(),
			Val:   r.f64(),
		})
	}
	if r.err != nil {
		return nil
	}
	return out
}

// TailStream decodes records from data starting at a byte offset,
// which must be a record boundary (a Next reported by an earlier call,
// or 0). offset < 0 means "join live": start at the latest keyframe,
// the self-contained entry point for a spectator. The decoder seeds
// its state from the nearest keyframe at or before the start, so a
// join never pays more than one keyframe cadence of silent replay.
// max > 0 caps the records returned. next is the offset to pass back
// to continue the tail; torn reports a crash-cut trailing record (only
// meaningful when the returned records reach the end of data).
func TailStream(data []byte, offset int64, max int) (recs []StreamRecord, next int64, torn bool, err error) {
	var frames []Frame
	end, torn, err := ScanFrames(data, streamFormat, func(fr Frame) error {
		frames = append(frames, fr)
		return nil
	})
	if err != nil {
		return nil, 0, false, err
	}
	start := offset
	if start < 0 {
		start = end
		for i := len(frames) - 1; i >= 0; i-- {
			if frames[i].Body[0] == streamKindKeyframe {
				start = frames[i].Off
				break
			}
		}
	}
	if start >= end {
		// Nothing at or past the requested offset yet (or the file
		// shrank under a reopen-truncate): wait at the clean end.
		return nil, end, torn, nil
	}
	si := -1
	for i := range frames {
		if frames[i].Off == start {
			si = i
			break
		}
	}
	if si < 0 {
		return nil, 0, false, fmt.Errorf("wire: stream offset %d is not a record boundary", start)
	}

	d := &streamDecoder{}
	// Seed: the header is always frame 0; then roll forward silently
	// from the latest keyframe strictly before the start.
	silentFrom := si
	if si > 0 {
		if _, err := d.decode(frames[0]); err != nil {
			return nil, 0, false, err
		}
		silentFrom = 1
		for i := si - 1; i >= 1; i-- {
			if frames[i].Body[0] == streamKindKeyframe {
				silentFrom = i
				break
			}
		}
		for i := silentFrom; i < si; i++ {
			if _, err := d.decode(frames[i]); err != nil {
				return nil, 0, false, err
			}
		}
	}
	next = start
	for i := si; i < len(frames); i++ {
		if max > 0 && len(recs) >= max {
			torn = false // more complete records remain past the cap
			break
		}
		rec, err := d.decode(frames[i])
		if err != nil {
			return nil, 0, false, err
		}
		recs = append(recs, rec)
		next = rec.Next
	}
	return recs, next, torn, nil
}

// DecodeStream decodes an entire stream file from the beginning,
// tolerating a torn tail (reported, not fatal). Mid-file corruption is
// an error.
func DecodeStream(data []byte) ([]StreamRecord, bool, error) {
	recs, _, torn, err := TailStream(data, 0, 0)
	return recs, torn, err
}
