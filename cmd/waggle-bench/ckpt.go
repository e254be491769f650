package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"waggle"
)

// ckptSchema identifies the BENCH_ckpt.json layout.
const ckptSchema = "waggle-bench-ckpt/v1"

// ckptSparse is the number of robots whose state changes per delta
// save interval — the sparse workload delta checkpoints are built for.
// The interval mutations go through the recorded Send API (cheap, and
// exactly what a checkpoint must replay); the chatting protocols
// themselves cannot step a million-robot swarm at all, since every
// robot keeps O(n) state about every other robot (O(n^2) per swarm)
// and every activation observes all of them, so position churn at
// these sizes is exercised by the chaos property tests at protocol
// scale instead.
const ckptSparse = 16

// CkptResult is one checkpoint-codec measurement at one swarm size.
type CkptResult struct {
	// N is the swarm size.
	N int `json:"n"`
	// Codec is "binary" (v2 wire format, full snapshot) or "delta" (v2
	// base + per-save delta frames; SaveNs and Bytes are the
	// per-interval delta cost, not the base). Rows with "json" (the v1
	// envelope) predate the removal of the v1 writer.
	Codec string `json:"codec"`
	// Iterations is how many saves (and restores) were averaged.
	Iterations int `json:"iterations"`
	// SaveNs is wall time per save: state capture + encode + durable
	// write (fsync). For "delta" it is the incremental append.
	SaveNs float64 `json:"save_ns"`
	// RestoreNs is wall time to load the file and rebuild a verified
	// swarm from it (decode + chain fold + replay + state recapture +
	// deep-equal check).
	RestoreNs float64 `json:"restore_ns"`
	// Bytes is the size of one save: the whole file for binary, the
	// appended delta frame for delta.
	Bytes int64 `json:"bytes"`
	// FileBytes is the on-disk file size after the measured saves (for
	// delta: base frame + the whole chain).
	FileBytes int64 `json:"file_bytes"`
}

// CkptBench is the BENCH_ckpt.json document.
type CkptBench struct {
	Schema  string       `json:"schema"`
	Results []CkptResult `json:"results"`
	Notes   []string     `json:"notes"`
}

// ckptSwarm builds the benchmark swarm at uniform density and seeds it
// with some queued traffic so the captured state is not a blank slate:
// endpoint outboxes, a recorded input log the restore must replay.
func ckptSwarm(n int) (*waggle.Swarm, error) {
	rng := rand.New(rand.NewSource(int64(31 + n)))
	side := math.Sqrt(float64(n)) * 10
	pts := make([]waggle.Point, n)
	for i := range pts {
		pts[i] = waggle.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	s, err := waggle.NewSwarm(pts, waggle.WithSeed(1))
	if err != nil {
		return nil, err
	}
	if err := mutate(s, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// mutate changes the state of ckptSparse robots through the public
// (recorded) API — the sparse per-interval churn between delta saves.
func mutate(s *waggle.Swarm, interval int) error {
	n := s.N()
	for k := 0; k < ckptSparse; k++ {
		from := (interval*ckptSparse + k) % n
		to := (from + 1) % n
		if err := s.Send(from, to, []byte{byte(interval), byte(k)}); err != nil {
			return err
		}
	}
	return nil
}

// measureFull times full binary snapshot saves and restores through
// the same writer the CLI uses.
func measureFull(s *waggle.Swarm, n, iters int, dir string) (CkptResult, error) {
	path := filepath.Join(dir, fmt.Sprintf("ckpt-%d.binary", n))
	cw, err := s.NewCheckpointWriter(path, waggle.CodecBinary)
	if err != nil {
		return CkptResult{}, err
	}
	var saveNs int64
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := cw.Save(); err != nil {
			return CkptResult{}, err
		}
		saveNs += time.Since(t0).Nanoseconds()
	}
	restoreNs, err := measureRestore(path, iters)
	if err != nil {
		return CkptResult{}, err
	}
	return CkptResult{
		N: n, Codec: waggle.CodecBinary.String(), Iterations: iters,
		SaveNs:    float64(saveNs) / float64(iters),
		RestoreNs: restoreNs,
		Bytes:     int64(cw.LastSaveBytes()),
		FileBytes: fileBytes(path),
	}, nil
}

// measureDelta times the incremental path: one base snapshot, then
// `iters` save intervals of a few sparse instants each, timing only the
// delta appends. The restore folds the whole chain.
func measureDelta(s *waggle.Swarm, n, iters int, dir string) (CkptResult, error) {
	path := filepath.Join(dir, fmt.Sprintf("ckpt-%d.delta", n))
	cw, err := s.NewCheckpointWriter(path, waggle.CodecDelta)
	if err != nil {
		return CkptResult{}, err
	}
	// First save writes the base frame; not part of the delta cost.
	if err := cw.Save(); err != nil {
		return CkptResult{}, err
	}
	var saveNs, bytes int64
	for i := 0; i < iters; i++ {
		// The save interval: sparse churn via the recorded API, untimed
		// — the benchmark isolates the checkpoint cost, not the workload.
		if err := mutate(s, i+1); err != nil {
			return CkptResult{}, err
		}
		t0 := time.Now()
		if err := cw.Save(); err != nil {
			return CkptResult{}, err
		}
		saveNs += time.Since(t0).Nanoseconds()
		if !cw.LastSaveWasDelta() {
			return CkptResult{}, fmt.Errorf("n=%d: save %d was not a delta (unexpected rebase)", n, i)
		}
		bytes += int64(cw.LastSaveBytes())
	}
	restoreNs, err := measureRestore(path, iters)
	if err != nil {
		return CkptResult{}, err
	}
	return CkptResult{
		N: n, Codec: waggle.CodecDelta.String(), Iterations: iters,
		SaveNs:    float64(saveNs) / float64(iters),
		RestoreNs: restoreNs,
		Bytes:     bytes / int64(iters),
		FileBytes: fileBytes(path),
	}, nil
}

// measureRestore times LoadCheckpoint + Restore (decode, chain fold,
// replay, recapture, deep-equal verification) averaged over iters.
func measureRestore(path string, iters int) (float64, error) {
	var total int64
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		ck, err := waggle.LoadCheckpoint(path)
		if err != nil {
			return 0, err
		}
		if _, err := waggle.Restore(ck); err != nil {
			return 0, err
		}
		total += time.Since(t0).Nanoseconds()
	}
	return float64(total) / float64(iters), nil
}

func fileBytes(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// ckptIters keeps the big sizes tractable on one core.
func ckptIters(n int) int {
	switch {
	case n <= 512:
		return 10
	case n <= 10_000:
		return 5
	case n <= 100_000:
		return 2
	default:
		return 1
	}
}

// runCkpt executes the checkpoint-codec benchmark and writes
// BENCH_ckpt.json. In smoke mode it runs n=10k once, asserts the
// headline ratio (delta save ≥ 10x faster than a binary full save), and
// writes nothing.
func runCkpt(out string, smoke bool) error {
	sizes := []int{512, 10_000, 100_000, 1_000_000}
	if smoke {
		sizes = []int{10_000}
	}
	dir, err := os.MkdirTemp("", "waggle-bench-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bench := CkptBench{Schema: ckptSchema}
	for _, n := range sizes {
		iters := ckptIters(n)
		if smoke {
			iters = 2
		}
		s, err := ckptSwarm(n)
		if err != nil {
			return fmt.Errorf("n=%d: build: %w", n, err)
		}
		full, err := measureFull(s, n, iters, dir)
		if err != nil {
			return fmt.Errorf("n=%d binary: %w", n, err)
		}
		delta, err := measureDelta(s, n, iters, dir)
		if err != nil {
			return fmt.Errorf("n=%d delta: %w", n, err)
		}
		for _, r := range []CkptResult{full, delta} {
			bench.Results = append(bench.Results, r)
			fmt.Printf("%-7s n=%-8d save %12.0f ns  restore %12.0f ns  %10d B/save  (file %d B)\n",
				r.Codec, r.N, r.SaveNs, r.RestoreNs, r.Bytes, r.FileBytes)
		}
		binSave, deltaSave := full.SaveNs, delta.SaveNs
		fmt.Printf("ratio   n=%-8d delta/full save %6.1fx faster\n", n, binSave/deltaSave)
		if (smoke || n >= 10_000) && deltaSave*10 > binSave {
			msg := fmt.Sprintf("n=%d: delta save (%.0f ns) is not 10x faster than a binary full save (%.0f ns)", n, deltaSave, binSave)
			if smoke {
				return fmt.Errorf("%s", msg)
			}
			fmt.Println("WARNING:", msg)
		}
	}
	if smoke {
		fmt.Println("smoke ckpt ok: delta save >= 10x faster than full")
		return nil
	}
	bench.Notes = []string{
		fmt.Sprintf("workload: asynchronous anonymous swarm at uniform density; between delta saves %d robots change state through the recorded Send API — the sparse regime delta checkpoints target; position churn is exercised by the chaos resume tests at protocol scale, since the chatting protocols recompute the full swarm geometry per activation and cannot step at these sizes", ckptSparse),
		"save_ns covers state capture + encode + durable write (fsync before the atomic rename; O_APPEND + fsync for delta frames); restore_ns covers read + decode (+ chain fold) + input replay + state recapture + the deep-equal verification restore always performs",
		"delta rows report the per-interval appended frame in bytes and save_ns; file_bytes is the base frame plus the whole measured chain",
		"binary is the waggle-ckpt/v2 wire format (varints, zig-zag position deltas, run-length input logs), the only format waggle writes; delta appends waggle-ckpt/v2 delta frames holding only changed robots",
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
