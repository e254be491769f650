package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"waggle"
	"waggle/internal/ckpt"
	"waggle/internal/wire"
)

// replayStream is `waggle-sim -replay-stream`: decode and verify a
// waggle-stream/v1 file, reconstruct the movement CSV it encodes, and
// report the digests.
func replayStream(path string) error {
	rep, err := waggle.ReplayStream(path)
	if err != nil {
		return err
	}
	fmt.Printf("stream %s: %d records, %d steps, final t=%d, %d delivered\n",
		path, rep.Records, rep.Steps, rep.FinalTime, rep.Delivered)
	if rep.Torn {
		fmt.Println("torn trailing record dropped (crash-cut tail)")
	}
	if rep.Digest != "" {
		fmt.Printf("replay digest: %s\n", rep.Digest)
	}
	switch {
	case rep.StreamDigest == "":
		fmt.Println("no embedded digest (stream cut before close, or an untraced run)")
	case rep.Digest == rep.StreamDigest:
		fmt.Println("replay digest matches the embedded closing digest")
	case rep.Digest == "":
		fmt.Printf("embedded digest: %s (stream does not start at instant 0; nothing to compare)\n", rep.StreamDigest)
	default:
		return fmt.Errorf("replay digest %s diverges from embedded digest %s", rep.Digest, rep.StreamDigest)
	}
	return nil
}

// The stream-check runs a fixed 4-robot synchronous configuration:
// full determinism is what makes the control-digest and kill -9
// byte-prefix comparisons meaningful.
func streamCheckPositions() []waggle.Point {
	return []waggle.Point{{X: 0, Y: 0}, {X: 14, Y: 0}, {X: 0, Y: 15}, {X: 13, Y: 13}}
}

func streamCheckOptions() []waggle.Option {
	return []waggle.Option{waggle.WithSeed(2026), waggle.WithTrace(), waggle.WithSynchronous()}
}

// streamCheckWorkload drives the deterministic check run: periodic
// sends keep the robots moving (a send rejected because the sender is
// mid-excursion is rejected identically on every run, so failures are
// part of the determinism, not a hazard). steps < 0 runs until killed
// — the victim mode — paced so the parent's SIGKILL lands mid-stream.
func streamCheckWorkload(s *waggle.Swarm, steps int) error {
	for i := 0; steps < 0 || i < steps; i++ {
		if s.Time()%257 == 0 {
			_ = s.Send(0, 1, []byte("beat"))
		}
		if err := s.Step(); err != nil {
			return err
		}
		if steps < 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// streamVictim is the hidden `-stream-victim` mode streamCheck
// re-execs: stream an unbounded run to path until killed.
func streamVictim(path string) error {
	s, err := waggle.NewSwarm(streamCheckPositions(),
		append(streamCheckOptions(), waggle.WithStream(path))...)
	if err != nil {
		return err
	}
	return streamCheckWorkload(s, -1)
}

func liveTraceDigest(s *waggle.Swarm) (string, error) {
	var buf bytes.Buffer
	if err := s.WriteTraceCSV(&buf); err != nil {
		return "", err
	}
	return ckpt.Digest(buf.Bytes()), nil
}

// streamCheck is `make stream-check`: the self-contained validation of
// the whole streaming pipeline. It proves four properties:
//
//  1. attaching a stream does not change the run (digest equality with
//     an un-streamed control),
//  2. the stream replays to the live run (replayed and embedded
//     digests equal the live digest; that the bytes are the same on
//     both of the engine's compute paths is TestStreamReplayDigest's),
//  3. a spectator joining at the latest keyframe converges to the live
//     end state, and
//  4. kill -9 mid-append loses at most the torn tail record: the
//     victim's clean prefix is a byte prefix of an uninterrupted
//     identical run.
func streamCheck() error {
	dir, err := os.MkdirTemp("", "waggle-stream-check-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const steps = 1500

	// 1. Un-streamed control.
	ctl, err := waggle.NewSwarm(streamCheckPositions(), streamCheckOptions()...)
	if err != nil {
		return err
	}
	if err := streamCheckWorkload(ctl, steps); err != nil {
		return err
	}
	ctlDigest, err := liveTraceDigest(ctl)
	if err != nil {
		return err
	}

	// 2. The streamed run.
	path := filepath.Join(dir, "run.wstream")
	s, err := waggle.NewSwarm(streamCheckPositions(), append(streamCheckOptions(), waggle.WithStream(path))...)
	if err != nil {
		return err
	}
	if err := streamCheckWorkload(s, steps); err != nil {
		return err
	}
	live, err := liveTraceDigest(s)
	if err != nil {
		return err
	}
	if live != ctlDigest {
		return fmt.Errorf("stream-check: attaching a stream changed the run: digest %s, control %s", live, ctlDigest)
	}
	if err := s.Stream().Close(); err != nil {
		return err
	}
	rep, err := waggle.ReplayStream(path)
	if err != nil {
		return err
	}
	if rep.Torn || rep.Digest != live || rep.StreamDigest != live {
		return fmt.Errorf("stream-check: replay torn=%v digest=%s embedded=%s, want clean %s",
			rep.Torn, rep.Digest, rep.StreamDigest, live)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}

	// 3. Mid-stream join at the latest keyframe.
	recs, _, _, err := wire.TailStream(data, -1, 0)
	if err != nil {
		return err
	}
	if len(recs) == 0 || recs[0].Kind != wire.StreamKeyframe {
		return fmt.Errorf("stream-check: join at -1 does not start at a keyframe")
	}
	joined := make([]waggle.Point, len(recs[0].Positions))
	for i, p := range recs[0].Positions {
		joined[i] = waggle.Point{X: p.X, Y: p.Y}
	}
	for _, rec := range recs[1:] {
		for _, m := range rec.Moves {
			joined[m.Robot] = waggle.Point{X: m.To.X, Y: m.To.Y}
		}
	}
	for i, p := range ctl.Positions() {
		if joined[i] != p {
			return fmt.Errorf("stream-check: mid-join diverged at robot %d: %v vs %v", i, joined[i], p)
		}
	}

	// 4. kill -9 a streaming victim mid-append.
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	vpath := filepath.Join(dir, "victim.wstream")
	victim := exec.Command(exe, "-stream-victim", vpath)
	victim.Stdout, victim.Stderr = os.Stdout, os.Stderr
	if err := victim.Start(); err != nil {
		return err
	}
	grown := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if st, err := os.Stat(vpath); err == nil && st.Size() >= 4096 {
			grown = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !grown {
		_ = victim.Process.Kill()
		_ = victim.Wait()
		return fmt.Errorf("stream-check: victim stream never grew")
	}
	if err := victim.Process.Kill(); err != nil { // SIGKILL: no flush, no close
		return err
	}
	_ = victim.Wait()

	vdata, err := os.ReadFile(vpath)
	if err != nil {
		return err
	}
	vrecs, cleanEnd, _, err := wire.TailStream(vdata, 0, 0)
	if err != nil {
		return fmt.Errorf("stream-check: killed victim's stream does not tail-decode: %w", err)
	}
	vrep, err := waggle.ReplayStream(vpath)
	if err != nil {
		return fmt.Errorf("stream-check: killed victim's stream does not replay: %w", err)
	}
	if !vrep.FromStart || vrep.Records != len(vrecs) {
		return fmt.Errorf("stream-check: victim replay saw %d records from-start=%v", vrep.Records, vrep.FromStart)
	}

	// The clean prefix must be a byte prefix of the same run left
	// uninterrupted — i.e. the kill lost at most the torn tail record.
	rpath := filepath.Join(dir, "rerun.wstream")
	rerun, err := waggle.NewSwarm(streamCheckPositions(),
		append(streamCheckOptions(), waggle.WithStream(rpath))...)
	if err != nil {
		return err
	}
	if err := streamCheckWorkload(rerun, vrep.Steps); err != nil {
		return err
	}
	if err := rerun.Stream().Sync(); err != nil {
		return err
	}
	rdata, err := os.ReadFile(rpath)
	if err != nil {
		return err
	}
	if int64(len(rdata)) < cleanEnd || !bytes.Equal(rdata[:cleanEnd], vdata[:cleanEnd]) {
		return fmt.Errorf("stream-check: victim's clean prefix (%d bytes) is not a prefix of the uninterrupted rerun (%d bytes)",
			cleanEnd, len(rdata))
	}

	fmt.Printf("stream-check ok: %d-step run streams %d bytes, replays to the control digest, "+
		"mid-join converges, kill -9 victim kept %d clean records (%d torn tail bytes dropped)\n",
		steps, len(data), len(vrecs), int64(len(vdata))-cleanEnd)
	return nil
}
