package waggle

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"waggle/internal/sim"
)

// ckptFingerprint is everything the acceptance criteria require to be
// byte-identical between an uninterrupted run and a resumed one.
type ckptFingerprint struct {
	Time      int
	Positions []Point
	Delivered []Message
	Trace     string
	Obs       string
}

func fingerprint(t *testing.T, s *Swarm) ckptFingerprint {
	t.Helper()
	var trace bytes.Buffer
	if err := s.WriteTraceCSV(&trace); err != nil {
		t.Fatalf("trace: %v", err)
	}
	var obsJSON bytes.Buffer
	if o := s.Observe(); o != nil {
		if err := o.DeterministicSnapshot().WriteJSON(&obsJSON); err != nil {
			t.Fatalf("obs: %v", err)
		}
	}
	return ckptFingerprint{
		Time:      s.Time(),
		Positions: s.Positions(),
		Delivered: s.Delivered(),
		Trace:     trace.String(),
		Obs:       obsJSON.String(),
	}
}

func ckptTestPositions() []Point {
	return []Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}}
}

func ckptTestOptions() []Option {
	return []Option{
		WithSeed(12345),
		WithTrace(),
		WithObserver(NewObserver()),
	}
}

// phase1 drives a swarm partway through a messaging workload; phase2
// finishes it. Both runs (interrupted and not) execute exactly this
// sequence.
func ckptPhase1(t *testing.T, s *Swarm) {
	t.Helper()
	if err := s.Send(0, 1, []byte("HELLO")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, _, err := s.RunUntilDelivered(1, 40_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := s.Send(2, 3, []byte("Q")); err != nil {
		t.Fatalf("send: %v", err)
	}
	for i := 0; i < 25; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func ckptPhase2(t *testing.T, s *Swarm) {
	t.Helper()
	if _, _, err := s.RunUntilQuiet(60_000); err != nil {
		t.Fatalf("quiet: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestCheckpointResumeByteIdentical is the tentpole acceptance
// property: a run resumed from a mid-run checkpoint — serialized and
// deserialized through the wire format — is byte-identical (positions,
// trace, obs snapshot, deliveries) to the uninterrupted run, on both
// of the engine's compute paths.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine sim.EngineMode
	}{
		{"sequential", sim.EngineSequential},
		{"parallel", sim.EngineParallel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, err := onEngine(tc.engine)(NewSwarm(ckptTestPositions(), ckptTestOptions()...))
			if err != nil {
				t.Fatalf("full swarm: %v", err)
			}
			ckptPhase1(t, full)
			ckptPhase2(t, full)
			want := fingerprint(t, full)

			cut, err := onEngine(tc.engine)(NewSwarm(ckptTestPositions(), ckptTestOptions()...))
			if err != nil {
				t.Fatalf("cut swarm: %v", err)
			}
			ckptPhase1(t, cut)
			ck, err := cut.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			var wire bytes.Buffer
			if err := WriteCheckpoint(&wire, ck); err != nil {
				t.Fatalf("encode: %v", err)
			}
			loaded, err := ReadCheckpoint(&wire)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			res, err := Restore(loaded)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if res.Swarm.Time() != cut.Time() {
				t.Fatalf("restored at t=%d, checkpointed at t=%d", res.Swarm.Time(), cut.Time())
			}
			res.Swarm.net.World().SetEngine(tc.engine)
			ckptPhase2(t, res.Swarm)
			got := fingerprint(t, res.Swarm)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed run diverged from uninterrupted run:\n got t=%d\nwant t=%d", got.Time, want.Time)
			}
		})
	}
}

// TestCheckpointResumeCrossEngine: a checkpoint cut on the sequential
// compute path resumes byte-identically on the parallel one.
func TestCheckpointResumeCrossEngine(t *testing.T) {
	full, err := onEngine(sim.EngineParallel)(NewSwarm(ckptTestPositions(), ckptTestOptions()...))
	if err != nil {
		t.Fatalf("full swarm: %v", err)
	}
	ckptPhase1(t, full)
	ckptPhase2(t, full)
	want := fingerprint(t, full)

	cut, err := onEngine(sim.EngineSequential)(NewSwarm(ckptTestPositions(), ckptTestOptions()...))
	if err != nil {
		t.Fatalf("cut swarm: %v", err)
	}
	ckptPhase1(t, cut)
	ck, err := cut.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	res, err := Restore(ck)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	res.Swarm.net.World().SetEngine(sim.EngineParallel)
	ckptPhase2(t, res.Swarm)
	got := fingerprint(t, res.Swarm)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-engine resume diverged (t=%d vs %d)", got.Time, want.Time)
	}
}

// faulted builds the full fault-tolerance stack: a jam-ramped radio
// with a scripted outage and crash window, a self-healing messenger,
// tracing and observability. The checkpoint is taken mid-plan, inside
// both the outage and the ramp.
func ckptFaultPlan() FaultPlan {
	return FaultPlan{Events: []FaultEvent{
		{Kind: FaultCrash, At: 10, Until: 30, Robot: 1},
		{Kind: FaultRadioOutage, At: 5, Until: 90, Robot: 0},
		{Kind: FaultJamRamp, At: 0, Until: 200, Min: 0.05, Max: 0.4, Robot: -1},
	}}
}

type faultedStack struct {
	swarm *Swarm
	radio *Radio
	bm    *BackupMessenger
}

func newFaultedStack(t *testing.T, engine sim.EngineMode) faultedStack {
	t.Helper()
	radio := NewRadio(4, 99)
	swarm, err := onEngine(engine)(NewSwarm(ckptTestPositions(),
		WithSynchronous(),
		WithSeed(7),
		WithTrace(),
		WithObserver(NewObserver()),
		WithFaultPlan(ckptFaultPlan()),
		WithFaultRadio(radio),
	))
	if err != nil {
		t.Fatalf("swarm: %v", err)
	}
	bm, err := NewBackupMessenger(radio, swarm)
	if err != nil {
		t.Fatalf("messenger: %v", err)
	}
	if err := bm.SetPolicy(DefaultMessengerPolicy()); err != nil {
		t.Fatalf("policy: %v", err)
	}
	return faultedStack{swarm: swarm, radio: radio, bm: bm}
}

func faultedPhase1(t *testing.T, st faultedStack) {
	t.Helper()
	// Robot 0's radio breaks at t=5; this traffic exercises retries and
	// the movement failover while the jam ramp loses other sends.
	if err := st.bm.Send(0, 2, []byte("VIA-BACKUP")); err != nil {
		t.Fatalf("bm send: %v", err)
	}
	for i := 0; i < 40; i++ {
		if err := st.bm.Step(); err != nil {
			t.Fatalf("bm step %d: %v", i, err)
		}
	}
	if err := st.radio.Send(2, 3, []byte("DIRECT")); err != nil && !errors.Is(err, ErrRadioFailed) {
		t.Fatalf("radio send: %v", err)
	}
	st.radio.Receive(3)
}

func faultedPhase2(t *testing.T, st faultedStack) {
	t.Helper()
	if err := st.bm.Send(3, 1, []byte("LATE")); err != nil {
		t.Fatalf("bm send: %v", err)
	}
	if _, err := st.bm.RunUntilSettled(120_000); err != nil {
		t.Fatalf("settle: %v", err)
	}
	for i := 0; i < 20; i++ {
		if err := st.bm.Step(); err != nil {
			t.Fatalf("bm step %d: %v", i, err)
		}
	}
}

func faultedFingerprint(t *testing.T, st faultedStack) ckptFingerprint {
	fp := fingerprint(t, st.swarm)
	sent, delivered, lost := st.radio.Stats()
	fp.Obs += fmt.Sprintf("|radio:%d,%d,%d", sent, delivered, lost)
	vr, vm := st.bm.Stats()
	fp.Obs += fmt.Sprintf("|msgr:%d,%d", vr, vm)
	return fp
}

// TestCheckpointResumeUnderFaultPlan is the hard acceptance case: the
// checkpoint is taken mid-plan — inside an outage window, on a jam
// ramp, with messenger failover state live — and the resumed run must
// still be byte-identical on both of the engine's compute paths.
func TestCheckpointResumeUnderFaultPlan(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine sim.EngineMode
	}{
		{"sequential", sim.EngineSequential},
		{"parallel", sim.EngineParallel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full := newFaultedStack(t, tc.engine)
			faultedPhase1(t, full)
			faultedPhase2(t, full)
			want := faultedFingerprint(t, full)

			cut := newFaultedStack(t, tc.engine)
			faultedPhase1(t, cut)
			ck, err := cut.swarm.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			var wire bytes.Buffer
			if err := WriteCheckpoint(&wire, ck); err != nil {
				t.Fatalf("encode: %v", err)
			}
			loaded, err := ReadCheckpoint(&wire)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			res, err := Restore(loaded)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if res.Radio == nil || res.Messenger == nil {
				t.Fatalf("restore dropped the radio or messenger")
			}
			res.Swarm.net.World().SetEngine(tc.engine)
			faultedPhase2(t, faultedStack{swarm: res.Swarm, radio: res.Radio, bm: res.Messenger})
			got := faultedFingerprint(t, faultedStack{swarm: res.Swarm, radio: res.Radio, bm: res.Messenger})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("faulted resume diverged (t=%d vs %d)", got.Time, want.Time)
			}
		})
	}
}

// TestCheckpointRestoreMismatch pins the integrity check: a checkpoint
// whose stored snapshot disagrees with its replayed inputs must fail
// with ErrRestoreMismatch instead of resuming a different run.
func TestCheckpointRestoreMismatch(t *testing.T) {
	s, err := NewSwarm(ckptTestPositions(), ckptTestOptions()...)
	if err != nil {
		t.Fatalf("swarm: %v", err)
	}
	ckptPhase1(t, s)
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	ck.State.Positions[0].X += 1e-9
	if _, err := Restore(ck); !errors.Is(err, ErrRestoreMismatch) {
		t.Fatalf("tampered snapshot: got %v, want ErrRestoreMismatch", err)
	}
}

// TestCheckpointRecheckpoint pins that a restored swarm can itself be
// checkpointed: the input log is re-seated from genesis.
func TestCheckpointRecheckpoint(t *testing.T) {
	s, err := NewSwarm(ckptTestPositions(), ckptTestOptions()...)
	if err != nil {
		t.Fatalf("swarm: %v", err)
	}
	ckptPhase1(t, s)
	ck1, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	res, err := Restore(ck1)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := res.Swarm.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	ck2, err := res.Swarm.Checkpoint()
	if err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	res2, err := Restore(ck2)
	if err != nil {
		t.Fatalf("second restore: %v", err)
	}
	if res2.Swarm.Time() != res.Swarm.Time() {
		t.Fatalf("re-restore at t=%d, want %d", res2.Swarm.Time(), res.Swarm.Time())
	}
}

// TestCheckpointInfiniteSigma: +Inf is a valid sigma, and every save
// path writes it — SaveCheckpoint, WriteCheckpoint and the writer's
// default codec. (The JSON v1 format has no ±Inf, so while it was the
// default none of them could.) Each restores to the live state.
func TestCheckpointInfiniteSigma(t *testing.T) {
	s, err := NewSwarm(ckptTestPositions(), append(ckptTestOptions(), WithSigma(math.Inf(1)))...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writerPath := filepath.Join(dir, "writer.wck")
	cw, err := s.NewCheckpointWriter(writerPath)
	if err != nil {
		t.Fatal(err)
	}
	ckptPhase1(t, s)
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	savePath := filepath.Join(dir, "save.wck")
	if err := SaveCheckpoint(savePath, ck); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	var written bytes.Buffer
	if err := WriteCheckpoint(&written, ck); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := cw.Save(); err != nil {
		t.Fatalf("writer save: %v", err)
	}
	want := fingerprint(t, s)
	loads := map[string]func() (*Checkpoint, error){
		"SaveCheckpoint":  func() (*Checkpoint, error) { return LoadCheckpoint(savePath) },
		"WriteCheckpoint": func() (*Checkpoint, error) { return ReadCheckpoint(&written) },
		"writer":          func() (*Checkpoint, error) { return LoadCheckpoint(writerPath) },
	}
	for name, load := range loads {
		got, err := load()
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !reflect.DeepEqual(got, ck) {
			t.Errorf("%s: loaded checkpoint differs from the captured one", name)
		}
		res, err := Restore(got)
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if fp := fingerprint(t, res.Swarm); !reflect.DeepEqual(fp, want) {
			t.Errorf("%s: restored swarm differs from the live one (t=%d vs %d)", name, fp.Time, want.Time)
		}
	}
}

// TestLoadCheckpointMissing: a missing file is an error, not an empty
// checkpoint.
func TestLoadCheckpointMissing(t *testing.T) {
	if ck, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.wck")); err == nil || ck != nil {
		t.Fatalf("loading a missing file: got %v, %v", ck, err)
	}
}

// FuzzReadCheckpoint hammers the facade's format-sniffing decoder, the
// only reader of the v1 JSON format (which nothing writes any more) as
// well as of v2 snapshots and chains. The contract: no panic; every
// failure is ErrCheckpointSchema, ErrCheckpointChecksum or
// ErrCheckpointTruncated; and any checkpoint it returns encodes again
// through WriteCheckpoint.
func FuzzReadCheckpoint(f *testing.F) {
	for _, path := range []string{goldenCkptPath, goldenCkptBinPath, goldenChainPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []int{len(data), len(data) - 1, len(data) / 2, 4} {
			f.Add(data[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCheckpointSchema) && !errors.Is(err, ErrCheckpointChecksum) && !errors.Is(err, ErrCheckpointTruncated) {
				t.Fatalf("untyped read error: %v", err)
			}
			return
		}
		if err := WriteCheckpoint(io.Discard, ck); err != nil {
			t.Fatalf("read checkpoint does not write back: %v", err)
		}
	})
}
