package waggle

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"waggle/internal/ckpt"
	"waggle/internal/geom"
	"waggle/internal/sim"
	"waggle/internal/wire"
)

// streamWorkload drives a deterministic messaging run (the checkpoint
// tests' phase-1/phase-2 sequence) against a streamed swarm.
func streamWorkload(t *testing.T, s *Swarm) {
	t.Helper()
	ckptPhase1(t, s)
	ckptPhase2(t, s)
}

func liveTraceDigest(t *testing.T, s *Swarm) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteTraceCSV(&buf); err != nil {
		t.Fatalf("trace: %v", err)
	}
	return ckpt.Digest(buf.Bytes())
}

// TestStreamReplayDigest is the tentpole acceptance criterion: a
// streamed run replayed from the stream file is byte-identical (trace
// digest equality) to the live run, on both of the engine's compute
// paths — and the two paths' stream files are themselves
// byte-identical.
func TestStreamReplayDigest(t *testing.T) {
	files := map[sim.EngineMode][]byte{}
	for _, engine := range []sim.EngineMode{sim.EngineSequential, sim.EngineParallel} {
		path := filepath.Join(t.TempDir(), "run.wstream")
		s, err := onEngine(engine)(NewSwarm(ckptTestPositions(), append(ckptTestOptions(), WithStream(path))...))
		if err != nil {
			t.Fatalf("engine %v: NewSwarm: %v", engine, err)
		}
		if s.Stream() == nil {
			t.Fatalf("engine %v: WithStream did not attach a stream", engine)
		}
		streamWorkload(t, s)
		live := liveTraceDigest(t, s)
		if err := s.Stream().Close(); err != nil {
			t.Fatalf("engine %v: close stream: %v", engine, err)
		}
		rep, err := ReplayStream(path)
		if err != nil {
			t.Fatalf("engine %v: replay: %v", engine, err)
		}
		if !rep.FromStart {
			t.Fatalf("engine %v: stream does not start at instant 0", engine)
		}
		if rep.Torn {
			t.Fatalf("engine %v: clean stream reported torn", engine)
		}
		if rep.Digest != live {
			t.Fatalf("engine %v: replay digest %s != live digest %s", engine, rep.Digest, live)
		}
		if rep.StreamDigest != live {
			t.Fatalf("engine %v: embedded digest %s != live digest %s", engine, rep.StreamDigest, live)
		}
		if rep.FinalTime != s.Time() {
			t.Fatalf("engine %v: replay ends at t=%d, swarm at t=%d", engine, rep.FinalTime, s.Time())
		}
		for i, p := range rep.Positions {
			if p != s.Positions()[i] {
				t.Fatalf("engine %v: replayed position %d = %v, live %v", engine, i, p, s.Positions()[i])
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read stream: %v", err)
		}
		files[engine] = data
	}
	if !bytes.Equal(files[sim.EngineSequential], files[sim.EngineParallel]) {
		t.Fatalf("stream files differ between engines: %d vs %d bytes",
			len(files[sim.EngineSequential]), len(files[sim.EngineParallel]))
	}
}

// TestStreamMidJoin pins the spectator entry point: joining at the
// latest keyframe (offset -1) and rolling forward converges to the
// live end state without reading the stream's prefix.
func TestStreamMidJoin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wstream")
	s, err := NewSwarm(ckptTestPositions(), append(ckptTestOptions(), WithStream(path))...)
	if err != nil {
		t.Fatalf("NewSwarm: %v", err)
	}
	streamWorkload(t, s)
	if err := s.Stream().Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	recs, next, torn, err := wire.TailStream(data, -1, 0)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if torn {
		t.Fatal("clean stream reported torn")
	}
	if next != int64(len(data)) {
		t.Fatalf("tail ended at %d of %d bytes", next, len(data))
	}
	if len(recs) == 0 || recs[0].Kind != wire.StreamKeyframe {
		t.Fatalf("join does not start at a keyframe: %+v", recs)
	}
	pos := make([]Point, len(recs[0].Positions))
	for i, p := range recs[0].Positions {
		pos[i] = Point{X: p.X, Y: p.Y}
	}
	for _, rec := range recs[1:] {
		for _, m := range rec.Moves {
			pos[m.Robot] = Point{X: m.To.X, Y: m.To.Y}
		}
	}
	for i, p := range s.Positions() {
		if pos[i] != p {
			t.Fatalf("mid-join position %d = %v, live %v", i, pos[i], p)
		}
	}
}

// TestStreamTornTail cuts the file at every byte boundary of its tail
// and verifies the replay drops exactly the torn record: never an
// error, never fewer records than the clean prefix holds.
func TestStreamTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wstream")
	s, err := NewSwarm(ckptTestPositions(), append(ckptTestOptions(), WithStream(path))...)
	if err != nil {
		t.Fatalf("NewSwarm: %v", err)
	}
	ckptPhase1(t, s)
	if err := s.Stream().Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	full, torn, err := wire.DecodeStream(data)
	if err != nil || torn {
		t.Fatalf("clean decode: torn=%v err=%v", torn, err)
	}
	// Cut anywhere inside the last two records: exactly the complete
	// prefix must survive, torn reported iff the cut lands mid-record.
	boundaries := map[int64]bool{0: true}
	for _, rec := range full {
		boundaries[rec.Next] = true
	}
	for cut := full[len(full)-2].Offset; cut < int64(len(data)); cut++ {
		cutPath := filepath.Join(t.TempDir(), "cut.wstream")
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatalf("write cut: %v", err)
		}
		rep, err := ReplayStream(cutPath)
		if err != nil {
			t.Fatalf("cut at %d: replay: %v", cut, err)
		}
		wantRecs := 0
		for _, rec := range full {
			if rec.Next <= cut {
				wantRecs++
			}
		}
		if rep.Records != wantRecs {
			t.Fatalf("cut at %d: %d records, want %d", cut, rep.Records, wantRecs)
		}
		if want := !boundaries[cut]; rep.Torn != want {
			t.Fatalf("cut at %d: torn=%v, want %v", cut, rep.Torn, want)
		}
	}
}

// TestStreamResumeAppend pins the evict/resume path: a stream created
// at instant 0, closed at a checkpoint, and reopened by the restored
// swarm keeps growing the same file — and the full file still replays
// to the restored run's live digest. It resumes the way waggle-serve
// does: Restore, then Swarm.NewStreamWriter on the same path.
func TestStreamResumeAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wstream")
	s, err := NewSwarm(ckptTestPositions(), append(ckptTestOptions(), WithStream(path))...)
	if err != nil {
		t.Fatalf("NewSwarm: %v", err)
	}
	ckptPhase1(t, s)
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := s.Stream().Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}
	res, err := Restore(ck)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	resumed := res.Swarm
	if _, err := resumed.NewStreamWriter(path); err != nil {
		t.Fatalf("reopen stream: %v", err)
	}
	ckptPhase2(t, resumed)
	live := liveTraceDigest(t, resumed)
	if err := resumed.Stream().Close(); err != nil {
		t.Fatalf("close resumed stream: %v", err)
	}
	rep, err := ReplayStream(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.FromStart {
		t.Fatal("resumed stream lost its instant-0 keyframe")
	}
	if rep.Digest != live {
		t.Fatalf("replay digest %s != live digest %s", rep.Digest, live)
	}
	if rep.StreamDigest != live {
		t.Fatalf("embedded digest %s != live digest %s", rep.StreamDigest, live)
	}
}

// TestStreamFaultEvents verifies fault-family trace events ride the
// stream (via the step record), with the crash events of a seeded plan
// visible to a replay, and that they do so whether or not an observer
// is attached: the same faulted run streams the same bytes either way.
func TestStreamFaultEvents(t *testing.T) {
	files := map[string][]byte{}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"observer", []Option{WithObserver(NewObserver())}},
		{"no-observer", nil},
	} {
		path := filepath.Join(t.TempDir(), "run.wstream")
		plan := FaultPlan{Events: []FaultEvent{
			{Kind: FaultCrash, At: 3, Robot: 1},
		}}
		opts := append([]Option{WithSeed(12345), WithTrace(),
			WithSynchronous(), WithFaultPlan(plan), WithStream(path)}, tc.opts...)
		s, err := NewSwarm(ckptTestPositions(), opts...)
		if err != nil {
			t.Fatalf("%s: NewSwarm: %v", tc.name, err)
		}
		for i := 0; i < 10; i++ {
			if err := s.Step(); err != nil {
				t.Fatalf("%s: step %d: %v", tc.name, i, err)
			}
		}
		if err := s.Stream().Close(); err != nil {
			t.Fatalf("%s: close stream: %v", tc.name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: read stream: %v", tc.name, err)
		}
		recs, _, err := wire.DecodeStream(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		events := 0
		for _, rec := range recs {
			events += len(rec.Events)
		}
		if events == 0 {
			t.Fatalf("%s: crash plan produced no fault events in the stream", tc.name)
		}
		files[tc.name] = data
	}
	if a, b := files["observer"], files["no-observer"]; !bytes.Equal(a, b) {
		t.Errorf("stream depends on the observer: %d B with it, %d B without", len(a), len(b))
	}
}

// TestStreamOutOfStepTeleport: a teleport between instants reaches the
// stream at once, as an events record carrying the one move, and the
// replay still lands on the live positions and trace digest.
func TestStreamOutOfStepTeleport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wstream")
	s, err := NewSwarm(ckptTestPositions(), WithSeed(1), WithSynchronous(), WithTrace(), WithStream(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if err := s.net.World().Teleport(2, geom.Pt(3, 7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if err := s.Stream().Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wire.DecodeStream(data)
	if err != nil {
		t.Fatal(err)
	}
	var out []wire.StreamRecord
	for _, rec := range recs {
		if rec.Kind == wire.StreamEvents {
			out = append(out, rec)
		}
	}
	if len(out) != 1 || out[0].T != 1 || len(out[0].Moves) != 1 ||
		out[0].Moves[0] != (wire.StreamMove{Robot: 2, To: ckpt.XY{X: 3, Y: 7}}) {
		t.Fatalf("events records = %+v, want one carrying the teleport at t=1", out)
	}
	rep, err := ReplayStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Positions, s.Positions()) || rep.Digest != liveTraceDigest(t, s) {
		t.Errorf("replay diverges from the live run: %v vs %v", rep.Positions, s.Positions())
	}
}
