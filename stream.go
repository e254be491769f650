package waggle

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"

	"waggle/internal/ckpt"
	"waggle/internal/wire"
)

// StreamWriter records a swarm's execution as an append-only
// waggle-stream/v1 file (see internal/wire): per-step movement deltas,
// activation sets, deliveries, and fault events, punctuated by
// self-describing keyframes so a reader can join mid-stream. It reads
// each record the world closes, on the stepping goroutine, so the
// stream is byte-identical whether the engine computed the instant
// sequentially or on parallel workers, and it batches fsyncs,
// so the per-step overhead stays a small fraction of the step itself.
//
// A stream is not part of the run's identity: attaching one is not
// recorded in the input log and a checkpoint-restored swarm replays
// without re-streaming. Close flushes the deliveries collected after
// the last step, writes a final keyframe carrying the live trace digest
// (when the swarm runs WithTrace), and detaches the writer.
type StreamWriter struct {
	s    *Swarm
	w    *wire.StreamWriter
	path string

	// Stepping-goroutine state: the record's moves in wire form (a
	// reused buffer), steps since the last keyframe, and the cursor into
	// the network's collected-delivery log.
	moves    []wire.StreamMove
	sinceKey int
	cursor   int

	err    error
	closed bool
}

// NewStreamWriter attaches a movement stream writing to path. An
// existing file at path is appended to (its torn tail, if any,
// truncated) — that is how an evicted-and-resumed session's stream
// keeps growing — and in every case the attach writes a fresh keyframe
// at the current instant, the self-contained entry point the format
// requires after a (re)open. A swarm carries at most one stream.
func (s *Swarm) NewStreamWriter(path string) (*StreamWriter, error) {
	if s.stream != nil {
		return nil, errors.New("waggle: swarm already has an attached stream")
	}
	w, err := wire.OpenStream(path, s.n)
	if err != nil {
		return nil, fmt.Errorf("waggle: stream: %w", err)
	}
	sw := &StreamWriter{
		s:      s,
		w:      w,
		path:   path,
		cursor: s.net.CollectedCount(),
	}
	if err := w.AppendKeyframe(s.Time(), sw.worldXY(), sw.cursor, ""); err != nil {
		w.Close()
		return nil, fmt.Errorf("waggle: stream: %w", err)
	}
	s.net.World().SetStreamSink(streamTap{sw})
	s.stream = sw
	return sw, nil
}

// Stream returns the attached stream writer, or nil.
func (s *Swarm) Stream() *StreamWriter { return s.stream }

// Path returns the stream's file path.
func (sw *StreamWriter) Path() string { return sw.path }

// Offset reports the byte offset past the last appended record — the
// resume offset a live spectator starts tailing from.
func (sw *StreamWriter) Offset() int64 { return sw.w.Offset() }

// Err reports the first write error, if any. The taps are silent (the
// step loop cannot fail on stream I/O); errors stick and surface here
// and from Close.
func (sw *StreamWriter) Err() error { return sw.err }

// Sync forces the batched fsync.
func (sw *StreamWriter) Sync() error {
	if sw.err != nil {
		return sw.err
	}
	return sw.w.Sync()
}

// Close flushes the deliveries collected since the last step as an
// out-of-step record, writes a final keyframe carrying the live trace
// digest (WithTrace swarms; "" otherwise), detaches the writer, and
// closes the file. Idempotent; the swarm may attach a new stream
// afterwards.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return sw.err
	}
	sw.closed = true
	s := sw.s
	s.net.World().SetStreamSink(nil)
	s.stream = nil
	if sw.err == nil {
		if del := sw.drainDeliveries(); len(del) > 0 {
			sw.err = sw.w.AppendEvents(s.Time(), nil, del, nil)
		}
	}
	if sw.err == nil {
		digest, err := s.traceDigest()
		if err != nil {
			sw.err = err
		} else if err := sw.w.AppendKeyframe(s.Time(), sw.worldXY(), sw.cursor, digest); err != nil {
			sw.err = err
		}
	}
	if err := sw.w.Close(); err != nil && sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// worldXY snapshots the world's positions for a keyframe. Keyframes
// deliberately carry the world's positions rather than the writer's
// delta mirror: a replay verifies each keyframe against its replayed
// state, so any divergence between the two fails loudly instead of
// propagating.
func (sw *StreamWriter) worldXY() []ckpt.XY {
	pts := sw.s.net.World().Positions()
	out := make([]ckpt.XY, len(pts))
	for i, p := range pts {
		out[i] = ckpt.XY{X: p.X, Y: p.Y}
	}
	return out
}

// streamTap adapts the writer to sim.StreamSink without exporting the
// record callback on the public type.
type streamTap struct{ sw *StreamWriter }

// EndStep writes the record the world just closed: an instant as a
// step record (plus a keyframe every StreamKeyframeEvery steps), an
// out-of-step record — a teleport between instants — as an events
// record.
func (t streamTap) EndStep(tm int, active []int) {
	sw := t.sw
	if sw.err != nil {
		return
	}
	rec := sw.s.net.World().Record()
	sw.moves = sw.moves[:0]
	for _, m := range rec.Moves {
		sw.moves = append(sw.moves, wire.StreamMove{Robot: m.Robot, To: ckpt.XY{X: m.To.X, Y: m.To.Y}})
	}
	if !rec.InStep {
		sw.err = sw.w.AppendEvents(tm, sw.moves, nil, rec.Events)
		return
	}
	if err := sw.w.AppendStep(tm, sw.moves, active, sw.drainDeliveries(), rec.Events); err != nil {
		sw.err = err
		return
	}
	sw.sinceKey++
	if sw.sinceKey >= wire.StreamKeyframeEvery {
		sw.sinceKey = 0
		// The post-step keyframe is stamped t+1: it describes the state
		// a joining reader starts from, i.e. before the next instant.
		if err := sw.w.AppendKeyframe(tm+1, sw.worldXY(), sw.cursor, ""); err != nil {
			sw.err = err
		}
	}
}

// drainDeliveries advances the cursor over the network's
// already-collected deliveries. It deliberately does not sweep the
// endpoints (core.Network.CollectedSince): a sweep inside the step
// hook would harvest the running step's receptions early and mis-stamp
// their trace events, so the stream sees each delivery one instant
// after the reception — deterministically — and Close picks up the
// stragglers.
func (sw *StreamWriter) drainDeliveries() []ckpt.MessageState {
	recs := sw.s.net.CollectedSince(sw.cursor)
	if len(recs) == 0 {
		return nil
	}
	sw.cursor += len(recs)
	out := make([]ckpt.MessageState, len(recs))
	for i, r := range recs {
		out[i] = ckpt.MessageState{From: r.From, To: r.To, Payload: r.Payload}
	}
	return out
}

// ---------------------------------------------------------------------
// Replay.

// StreamReplay summarizes a replayed stream file.
type StreamReplay struct {
	// Records and Steps count decoded records and step records; Torn
	// reports a crash-cut trailing record (dropped, never fatal).
	Records, Steps int
	Torn           bool
	// FromStart reports that the stream's first keyframe is the
	// initial configuration (instant 0) — only then can Digest be
	// compared against a live WriteTraceCSV digest.
	FromStart bool
	// FinalTime and Positions are the replayed end state; Delivered
	// counts delivered messages across the whole stream.
	FinalTime int
	Positions []Point
	Delivered int
	// Digest is the hex SHA-256 of the movement CSV reconstructed from
	// the stream ("" unless FromStart) — directly comparable to the
	// live trace digest a checkpoint stores. StreamDigest is the
	// digest embedded in the stream's closing keyframe ("" when the
	// stream was cut before Close or the swarm ran without WithTrace).
	Digest       string
	StreamDigest string
}

// ReplayStream decodes a waggle-stream/v1 file and reconstructs the
// run it recorded: positions are rolled forward move by move, each
// keyframe is verified against the replayed state (divergence is an
// error, not a shrug), and the movement CSV the live run would have
// produced is re-derived and hashed. A torn trailing record — the
// signature of kill -9 mid-append — is dropped and reported.
func ReplayStream(path string) (*StreamReplay, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("waggle: replay stream: %w", err)
	}
	recs, torn, err := wire.DecodeStream(data)
	if err != nil {
		return nil, fmt.Errorf("waggle: replay stream %s: %w", path, err)
	}
	rep := &StreamReplay{Torn: torn}
	h := sha256.New()
	io.WriteString(h, "time,robot,x,y\n")
	row := func(t, robot int, p Point) {
		fmt.Fprintf(h, "%d,%d,%g,%g\n", t, robot, p.X, p.Y)
	}
	var pos []Point
	seenKey := false
	for _, rec := range recs {
		rep.Records++
		switch rec.Kind {
		case wire.StreamHeader:
			// Validated by the decoder; nothing to replay.
		case wire.StreamKeyframe:
			if !seenKey {
				seenKey = true
				pos = make([]Point, len(rec.Positions))
				for i, p := range rec.Positions {
					pos[i] = Point{X: p.X, Y: p.Y}
				}
				rep.Delivered = rec.Delivered
				if rec.T == 0 {
					rep.FromStart = true
					for i, p := range pos {
						row(-1, i, p)
					}
				}
			} else {
				for i, p := range rec.Positions {
					if pos[i] != (Point{X: p.X, Y: p.Y}) {
						return nil, fmt.Errorf("waggle: replay stream %s: keyframe at offset %d diverges from replayed state (robot %d: %v vs %v)",
							path, rec.Offset, i, p, pos[i])
					}
				}
				if rec.Delivered != rep.Delivered {
					return nil, fmt.Errorf("waggle: replay stream %s: keyframe at offset %d says %d deliveries, replay counted %d",
						path, rec.Offset, rec.Delivered, rep.Delivered)
				}
			}
			if rec.Digest != "" {
				rep.StreamDigest = rec.Digest
			}
			if rec.T > rep.FinalTime {
				rep.FinalTime = rec.T
			}
		case wire.StreamStep:
			for _, m := range rec.Moves {
				pos[m.Robot] = Point{X: m.To.X, Y: m.To.Y}
			}
			for i, p := range pos {
				row(rec.T, i, p)
			}
			rep.Steps++
			rep.Delivered += len(rec.Deliveries)
			if rec.T+1 > rep.FinalTime {
				rep.FinalTime = rec.T + 1
			}
		case wire.StreamEvents:
			for _, m := range rec.Moves {
				pos[m.Robot] = Point{X: m.To.X, Y: m.To.Y}
			}
			rep.Delivered += len(rec.Deliveries)
		}
	}
	rep.Positions = pos
	if rep.FromStart {
		rep.Digest = hex.EncodeToString(h.Sum(nil))
	}
	return rep, nil
}
