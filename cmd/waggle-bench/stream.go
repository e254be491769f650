package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"waggle/internal/ckpt"
	"waggle/internal/sim"
	"waggle/internal/wire"
)

// streamSchema identifies the BENCH_stream.json layout.
const streamSchema = "waggle-bench-stream/v1"

// StreamResult is one streamed-vs-not step measurement.
type StreamResult struct {
	// Name is "stream-step/off" (bare step loop) or "stream-step/on"
	// (identical loop with a waggle-stream/v1 writer tapping it).
	Name string `json:"name"`
	// N is the swarm size.
	N int `json:"n"`
	// Steps is how many instants were timed (after warm-up).
	Steps int `json:"steps"`
	// NsPerStep is wall time per instant.
	NsPerStep float64 `json:"ns_per_step"`
	// StreamBytes is the stream file size after the timed steps (0 for
	// the off variant); BytesPerStep is the appended stream volume per
	// timed instant.
	StreamBytes  int64   `json:"stream_bytes,omitempty"`
	BytesPerStep float64 `json:"bytes_per_step,omitempty"`
}

// StreamOverhead is the on-vs-off cost at one size — the acceptance
// number (<= 5% at n=100k).
type StreamOverhead struct {
	N int `json:"n"`
	// Percent is 100*(on-off)/off in ns/step.
	Percent float64 `json:"percent"`
}

// StreamJoin measures a spectator joining mid-stream: read the file,
// seek the latest keyframe, decode the tail from there.
type StreamJoin struct {
	// N and Steps describe the recorded run; FileBytes its stream.
	N         int   `json:"n"`
	Steps     int   `json:"steps"`
	FileBytes int64 `json:"file_bytes"`
	// Records is how many records a -1 join decodes (keyframe + tail);
	// NsPerJoin is wall time per join, file read included.
	Records   int     `json:"records"`
	NsPerJoin float64 `json:"ns_per_join"`
}

// StreamBench is the BENCH_stream.json document.
type StreamBench struct {
	Schema     string           `json:"schema"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Results    []StreamResult   `json:"results"`
	Overheads  []StreamOverhead `json:"overheads"`
	Join       *StreamJoin      `json:"join"`
	Notes      []string         `json:"notes"`
}

// benchTap mirrors the facade's stream tap (waggle.StreamWriter) at the
// sim.World layer the big sizes require — the chatting protocols cannot
// step a million-robot swarm, so the overhead is measured on the same
// engine workload BENCH_step.json uses. It appends each record the
// world closes as a step record (the workload never teleports, so every
// record is an instant), with the facade's keyframe cadence.
type benchTap struct {
	w        *wire.StreamWriter
	world    *sim.World
	moves    []wire.StreamMove
	sinceKey int
	err      error
}

func (t *benchTap) EndStep(tm int, active []int) {
	if t.err != nil {
		return
	}
	t.moves = t.moves[:0]
	for _, m := range t.world.Record().Moves {
		t.moves = append(t.moves, wire.StreamMove{Robot: m.Robot, To: ckpt.XY{X: m.To.X, Y: m.To.Y}})
	}
	if err := t.w.AppendStep(tm, t.moves, active, nil, nil); err != nil {
		t.err = err
	}
	if t.sinceKey++; t.sinceKey >= wire.StreamKeyframeEvery && t.err == nil {
		t.sinceKey = 0
		t.err = t.w.AppendKeyframe(tm+1, worldXY(t.world), 0, "")
	}
}

func worldXY(w *sim.World) []ckpt.XY {
	pts := w.Positions()
	out := make([]ckpt.XY, len(pts))
	for i, p := range pts {
		out[i] = ckpt.XY{X: p.X, Y: p.Y}
	}
	return out
}

// measureStreamStep times `steps` synchronous instants of the
// BENCH_step workload (uniform density, centroid drift, parallel
// engine), bare or with a stream writer attached. Both variants build
// the identical world and run the identical trajectory, so the delta
// is the stream tap alone.
func measureStreamStep(n int, path string, steps, warm int) (StreamResult, error) {
	w, err := stepWorld(n, true)
	if err != nil {
		return StreamResult{}, err
	}
	name := "stream-step/off"
	var tap *benchTap
	var startOff int64
	if path != "" {
		name = "stream-step/on"
		sw, err := wire.OpenStream(path, n)
		if err != nil {
			return StreamResult{}, err
		}
		defer sw.Close()
		// The attach-time keyframe, exactly as the facade writes it.
		if err := sw.AppendKeyframe(0, worldXY(w), 0, ""); err != nil {
			return StreamResult{}, err
		}
		tap = &benchTap{w: sw, world: w}
		w.SetStreamSink(tap)
	}
	for s := 0; s < warm; s++ {
		if _, err := w.Step(sim.Synchronous{}); err != nil {
			return StreamResult{}, err
		}
	}
	if tap != nil {
		startOff = tap.w.Offset()
	}
	t0 := time.Now()
	for s := 0; s < steps; s++ {
		if _, err := w.Step(sim.Synchronous{}); err != nil {
			return StreamResult{}, err
		}
	}
	dur := time.Since(t0)
	res := StreamResult{
		Name:      name,
		N:         n,
		Steps:     steps,
		NsPerStep: float64(dur.Nanoseconds()) / float64(steps),
	}
	if tap != nil {
		if tap.err != nil {
			return StreamResult{}, tap.err
		}
		if err := tap.w.Sync(); err != nil {
			return StreamResult{}, err
		}
		res.StreamBytes = tap.w.Offset()
		res.BytesPerStep = float64(tap.w.Offset()-startOff) / float64(steps)
	}
	return res, nil
}

// measureJoin records a long small-swarm stream (long enough that the
// keyframe cadence has fired and a -1 join skips most of the file),
// then times the full spectator join path: read the file, locate the
// latest keyframe, decode from there.
func measureJoin(dir string, n, steps int) (*StreamJoin, error) {
	w, err := stepWorld(n, true)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "join.wstream")
	sw, err := wire.OpenStream(path, n)
	if err != nil {
		return nil, err
	}
	defer sw.Close()
	if err := sw.AppendKeyframe(0, worldXY(w), 0, ""); err != nil {
		return nil, err
	}
	tap := &benchTap{w: sw, world: w}
	w.SetStreamSink(tap)
	for s := 0; s < steps; s++ {
		if _, err := w.Step(sim.Synchronous{}); err != nil {
			return nil, err
		}
	}
	if tap.err != nil {
		return nil, tap.err
	}
	if err := sw.Sync(); err != nil {
		return nil, err
	}
	join := &StreamJoin{N: n, Steps: steps, FileBytes: sw.Offset()}
	const iters = 50
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		recs, _, _, err := wire.TailStream(data, -1, 0)
		if err != nil {
			return nil, err
		}
		join.Records = len(recs)
	}
	join.NsPerJoin = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	if join.Records == 0 || join.Records > steps+2 {
		return nil, fmt.Errorf("join decoded %d records from a %d-step stream, want a keyframe plus a short tail", join.Records, steps)
	}
	return join, nil
}

// streamCounts picks (steps, warm) per size so the big sizes stay
// tractable while the on/off delta stays above timer noise.
func streamCounts(n int) (steps, warm int) {
	switch {
	case n <= 10_000:
		return 40, 5
	case n <= 100_000:
		return 12, 3
	default:
		return 3, 1
	}
}

// runStream executes the stream-writer overhead benchmark and writes
// BENCH_stream.json. In smoke mode it runs one tiny paired measurement,
// verifies the recorded stream decodes to the stepped instants, and
// writes nothing.
func runStream(out string, smoke bool) error {
	sizes := []int{10_000, 100_000, 1_000_000}
	if smoke {
		sizes = []int{2_000}
	}
	dir, err := os.MkdirTemp("", "waggle-bench-stream-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bench := StreamBench{Schema: streamSchema, GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, n := range sizes {
		steps, warm := streamCounts(n)
		if smoke {
			steps, warm = 4, 1
		}
		// Interleaved best-of-reps: a single off/on pair is dominated by
		// run-to-run engine variance at exactly the sizes where the tap
		// cost is smallest, so each variant keeps its fastest rep.
		reps := 3
		if smoke {
			reps = 1
		}
		var off, on StreamResult
		var path string
		for rep := 0; rep < reps; rep++ {
			o, err := measureStreamStep(n, "", steps, warm)
			if err != nil {
				return fmt.Errorf("stream-step/off n=%d: %w", n, err)
			}
			if rep == 0 || o.NsPerStep < off.NsPerStep {
				off = o
			}
			path = filepath.Join(dir, fmt.Sprintf("bench-%d-%d.wstream", n, rep))
			s, err := measureStreamStep(n, path, steps, warm)
			if err != nil {
				return fmt.Errorf("stream-step/on n=%d: %w", n, err)
			}
			if rep == 0 || s.NsPerStep < on.NsPerStep {
				on = s
			}
		}
		if smoke {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			recs, torn, err := wire.DecodeStream(data)
			if err != nil || torn {
				return fmt.Errorf("smoke n=%d: recorded stream does not decode cleanly (torn=%v): %v", n, torn, err)
			}
			streps := 0
			for _, rec := range recs {
				if rec.Kind == wire.StreamStep {
					streps++
				}
			}
			if streps != steps+warm {
				return fmt.Errorf("smoke n=%d: stream holds %d step records, want %d", n, streps, steps+warm)
			}
			fmt.Printf("smoke stream-step n=%d ok (%d step records, %d B)\n", n, streps, len(data))
			continue
		}
		bench.Results = append(bench.Results, off, on)
		pct := 100 * (on.NsPerStep - off.NsPerStep) / off.NsPerStep
		bench.Overheads = append(bench.Overheads, StreamOverhead{N: n, Percent: pct})
		fmt.Printf("%-16s n=%-8d %14.0f ns/step  (%d steps)\n", off.Name, n, off.NsPerStep, off.Steps)
		fmt.Printf("%-16s n=%-8d %14.0f ns/step  %10.0f B/step\n", on.Name, n, on.NsPerStep, on.BytesPerStep)
		fmt.Printf("overhead         n=%-8d %13.2f%%\n", n, pct)
	}
	if smoke {
		joinSteps := 20
		join, err := measureJoin(dir, 500, joinSteps)
		if err != nil {
			return fmt.Errorf("spectate-join smoke: %w", err)
		}
		fmt.Printf("smoke spectate-join ok (%d records, %.0f ns/join)\n", join.Records, join.NsPerJoin)
		return nil
	}

	// Spectate join: 600 steps at the keyframe cadence of 256 leaves the
	// latest keyframe at instant 512, so a -1 join decodes ~90 records
	// out of ~600 — the mid-stream entry the format exists for.
	join, err := measureJoin(dir, 1_000, 600)
	if err != nil {
		return fmt.Errorf("spectate-join: %w", err)
	}
	bench.Join = join
	fmt.Printf("spectate-join    n=%-8d %14.0f ns/join (%d of %d+ records decoded, %d B file)\n",
		join.N, join.NsPerJoin, join.Records, join.Steps, join.FileBytes)

	bench.Notes = []string{
		"workload: the BENCH_step synchronous trajectory (uniform density, centroid drift, parallel engine) — every robot moves every instant, the stream's worst case; on/off runs build identical worlds and execute identical trajectories, so the delta is the stream tap alone",
		"the on variant attaches a waggle-stream/v1 writer exactly as the facade does (attach-time keyframe, one step record per instant, keyframe every 256 steps, fsync batched every 64 records); deliveries and fault events are absent from this workload, as they are from any pure-movement run",
		"overhead percent is 100*(on-off)/off in ns/step, each variant the fastest of 3 interleaved reps; a small or negative percentage means the tap cost sits below residual engine variance at that size",
		"join is the spectator entry path: os.ReadFile + TailStream(-1) (locate the latest self-describing keyframe, decode only the tail), averaged over 50 joins",
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", out, len(bench.Results))
	return nil
}
