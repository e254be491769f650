package wire

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"waggle/internal/ckpt"
)

// fullCheckpoint builds a checkpoint exercising every field of the
// schema: all option fields set, a fault plan, a coupled radio,
// messenger and observer, every input op (plus an unknown one, forcing
// the literal-string escape), and a state with every subsystem present.
func fullCheckpoint() *ckpt.Checkpoint {
	pol := &ckpt.PolicyConfig{MaxRetries: 3, Backoff: 2, Deadline: 40, ProbeEvery: 5}
	return &ckpt.Checkpoint{
		Config: ckpt.Config{
			Positions: []ckpt.XY{{X: 0.1, Y: -2.7}, {X: 3.14159, Y: 0}, {X: -0.0001, Y: 1e9}},
			Options: ckpt.Options{
				Synchronous:      true,
				Identified:       true,
				SenseOfDirection: true,
				LeftHanded:       true,
				Protocol:         3,
				Levels:           4,
				BoundedSlices:    2,
				AlternateDrift:   true,
				Seed:             -77,
				Sigma:            0.25,
				Trace:            true,
				Flock:            &ckpt.XY{X: 0.5, Y: -0.5},
				Scheduler:        2,
				StarveVictim:     1,
				StarveDelay:      8,
				ActivationProb:   0.125,
				Engine:           1,
				StabilizeEpoch:   64,
				FaultPlan: []ckpt.FaultEventConfig{
					{Kind: 1, At: 5, Until: 9, Robot: 0, Mag: 1.5, Min: 0.1, Max: 0.9, DX: 2, DY: -3},
					{Kind: 4, At: 20, Robot: 2},
				},
				HasFaultPlan: true,
				FaultRadio:   true,
			},
			Radio:     &ckpt.RadioConfig{N: 3, Seed: 99},
			Messenger: true,
			Observer:  &ckpt.ObserverConfig{TraceCapacity: 128},
		},
		Inputs: []ckpt.Input{
			{T: 0, Op: ckpt.OpSend, From: 0, To: 1, Payload: []byte{1, 2, 3}},
			{T: 0, Op: ckpt.OpBroadcast, From: 1, Payload: []byte{}},
			{T: 1, Op: ckpt.OpSendAll, From: 2, Payload: []byte{0xFF}},
			{T: 1, Op: ckpt.OpStep, Reps: 12},
			{T: 13, Op: ckpt.OpRunDelivered, Count: 2, Max: 100},
			{T: 40, Op: ckpt.OpRunQuiet, Max: 50},
			{T: 41, Op: ckpt.OpMsgSend, From: 1, To: 2, Payload: []byte("hi")},
			{T: 41, Op: ckpt.OpMsgTick, Reps: 3},
			{T: 44, Op: ckpt.OpMsgStep},
			{T: 45, Op: ckpt.OpMsgRun, Max: 30},
			{T: 45, Op: ckpt.OpMsgPolicy, Policy: pol},
			{T: 46, Op: ckpt.OpRadioBreak, From: 0},
			{T: 47, Op: ckpt.OpRadioRepair, From: 0},
			{T: 47, Op: ckpt.OpRadioJam, P: 0.75},
			{T: 48, Op: ckpt.OpRadioSend, From: 2, To: 0, Payload: []byte{9}},
			{T: 49, Op: ckpt.OpRadioRecv, From: 0},
			{T: 50, Op: "future-op", From: 1, To: 2, Count: 7},
		},
		State: ckpt.State{
			Time:      52,
			Positions: []ckpt.XY{{X: 0.1, Y: -2.7}, {X: 3.25, Y: 0.001}, {X: -0.0001, Y: 1e9 + 1}},
			Consumed:  1,
			Delivered: []ckpt.MessageState{
				{From: 0, To: 1, Payload: []byte{1, 2, 3}},
				{From: 2, To: 1, Payload: nil},
			},
			Endpoints: []ckpt.EndpointState{
				{Pending: 2, Idle: false, SentBits: 17},
				{Idle: true},
				{Pending: 1, Idle: false, SentBits: 3},
			},
			SchedulerDraws: 1234,
			SchedulerIdle:  []int{0, 3, 1},
			Radio: &ckpt.RadioState{
				Seed: 99, Draws: 17, JamProb: 0.75,
				Broken:  []bool{true, false, false},
				Inboxes: [][]ckpt.MessageState{{{From: 2, To: 0, Payload: []byte{9}}}, nil, {}},
				Sent:    4, Lost: 1, Delivered: 3,
			},
			Messenger: &ckpt.MessengerState{
				ViaRadio: 2, ViaMovement: 1, Retries: 3, Failovers: 1,
				Failbacks: 1, Expired: 0, ImplicitAcks: 2,
				Pending: []ckpt.PendingState{
					{From: 1, To: 2, Payload: []byte("hi"), Submitted: 41, Attempts: 2, NextTry: 55},
				},
				Watches:   []ckpt.MessageState{{From: 1, To: 2, Payload: []byte("hi")}},
				AckCursor: 2,
				Mode:      []int{0, 1, 0},
				ProbeAt:   []int{0, 60, 0},
			},
			Fault:       &ckpt.FaultState{Outage: []bool{false, true, false}, Jam: true},
			TraceDigest: "sha256:abc",
			ObsDigest:   "sha256:def",
		},
	}
}

func TestRoundTripFull(t *testing.T) {
	ck := fullCheckpoint()
	data, err := Encode(ck)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ck)
	}
}

func TestRoundTripMinimal(t *testing.T) {
	ck := &ckpt.Checkpoint{
		Config: ckpt.Config{Positions: []ckpt.XY{{X: 0, Y: 0}, {X: 1, Y: 1}}},
		State: ckpt.State{
			Positions: []ckpt.XY{{X: 0, Y: 0}, {X: 1, Y: 1}},
			Endpoints: []ckpt.EndpointState{{Idle: true}, {Idle: true}},
		},
	}
	data, err := Encode(ck)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("round trip mismatch: nil/empty fields not preserved\n got %#v\nwant %#v", got, ck)
	}
	if got.Inputs != nil {
		t.Fatalf("nil Inputs decoded as %#v", got.Inputs)
	}
}

// TestRoundTripFixedPoint drives the fixed-point position mode: every
// coordinate an exact multiple of 2^-20 must survive bit-exactly.
func TestRoundTripFixedPoint(t *testing.T) {
	const q = 1.0 / (1 << 20)
	pts := []ckpt.XY{
		{X: 0, Y: 0},
		{X: 1.5, Y: -2.25},
		{X: 1000000 * q, Y: -33 * q},
		{X: 123456789 * q, Y: 42},
	}
	ck := &ckpt.Checkpoint{
		Config: ckpt.Config{Positions: pts},
		State: ckpt.State{
			Positions: append([]ckpt.XY(nil), pts...),
			Endpoints: make([]ckpt.EndpointState, len(pts)),
		},
	}
	data, err := Encode(ck)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("fixed-point round trip mismatch")
	}
}

// TestCompactness pins what keeps a realistic snapshot small —
// random full-precision coordinates, state positions mostly still at
// their configuration: the state section is sparse, so a robot that
// never moved costs nothing and a moved one costs one entry (an index
// gap and two coordinate deltas, each at most one varint).
func TestCompactness(t *testing.T) {
	n := 2000
	rng := rand.New(rand.NewSource(7))
	ck := &ckpt.Checkpoint{
		Config: ckpt.Config{Positions: make([]ckpt.XY, n)},
		State: ckpt.State{
			Positions: make([]ckpt.XY, n),
			Endpoints: make([]ckpt.EndpointState, n),
		},
	}
	for i := 0; i < n; i++ {
		p := ckpt.XY{X: rng.Float64() * 5000, Y: rng.Float64() * 5000}
		ck.Config.Positions[i] = p
		ck.State.Positions[i] = p
	}
	size := func() int {
		data, err := Encode(ck)
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	still := size()
	positions := ck.State.Positions
	ck.State.Positions = nil
	if none := size(); still != none {
		t.Fatalf("%d unmoved robots cost %d bytes over a state without positions", n, still-none)
	}
	ck.State.Positions = positions
	moved := 0
	for i := 0; i < n; i += 37 { // the sparse minority that has moved
		ck.State.Positions[i].X += 0.5
		moved++
	}
	if per := float64(size()-still) / float64(moved); per > 3*binary.MaxVarintLen64 {
		t.Fatalf("a moved robot costs %.1f bytes, more than one sparse entry", per)
	}
}

func TestDecodeErrors(t *testing.T) {
	ck := fullCheckpoint()
	data, err := Encode(ck)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		copy(bad, "NOPE")
		if _, err := Decode(bad); !errors.Is(err, ckpt.ErrSchema) {
			t.Fatalf("got %v, want ErrSchema", err)
		}
	})
	t.Run("short magic", func(t *testing.T) {
		if _, err := Decode(data[:3]); !errors.Is(err, ckpt.ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated base", func(t *testing.T) {
		for _, cut := range []int{5, 9, len(data) / 2, len(data) - 1} {
			if _, err := Decode(data[:cut]); !errors.Is(err, ckpt.ErrTruncated) {
				t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
			}
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		for _, pos := range []int{12, len(data) / 2, len(data) - 2} {
			bad := append([]byte(nil), data...)
			bad[pos] ^= 0x40
			_, err := Decode(bad)
			if !errors.Is(err, ckpt.ErrChecksum) && !errors.Is(err, ckpt.ErrTruncated) {
				t.Fatalf("flip at %d: got %v, want ErrChecksum or ErrTruncated", pos, err)
			}
		}
	})
}

// mutate builds the "current" checkpoint one sparse interval after
// prev: two robots moved, one send appended, one delivery, endpoint and
// scheduler churn.
func mutateCheckpoint(prev *ckpt.Checkpoint) *ckpt.Checkpoint {
	cur := &ckpt.Checkpoint{
		Config: prev.Config,
		Inputs: append(append([]ckpt.Input(nil), prev.Inputs...),
			ckpt.Input{T: 52, Op: ckpt.OpSend, From: 2, To: 0, Payload: []byte{7}},
			ckpt.Input{T: 52, Op: ckpt.OpStep, Reps: 2},
		),
		State: prev.State,
	}
	cur.State.Time = 54
	cur.State.Positions = append([]ckpt.XY(nil), prev.State.Positions...)
	cur.State.Positions[0] = ckpt.XY{X: 0.4, Y: -2.5}
	cur.State.Positions[2] = ckpt.XY{X: 0, Y: 1e9 + 2}
	cur.State.Consumed = 2
	cur.State.Delivered = append(append([]ckpt.MessageState(nil), prev.State.Delivered...),
		ckpt.MessageState{From: 2, To: 0, Payload: []byte{7}})
	cur.State.Endpoints = append([]ckpt.EndpointState(nil), prev.State.Endpoints...)
	cur.State.Endpoints[2] = ckpt.EndpointState{Pending: 2, SentBits: 5}
	cur.State.SchedulerDraws = 1300
	cur.State.SchedulerIdle = []int{2, 0, 3}
	cur.State.Radio = &ckpt.RadioState{
		Seed: 99, Draws: 19, JamProb: 0.75,
		Broken:  []bool{true, false, false},
		Inboxes: [][]ckpt.MessageState{nil, nil, {}},
		Sent:    5, Lost: 1, Delivered: 4,
	}
	cur.State.TraceDigest = "sha256:abd"
	return cur
}

func TestDeltaChainRoundTrip(t *testing.T) {
	prev := fullCheckpoint()
	cur := mutateCheckpoint(prev)

	base, crc, err := EncodeBaseFrame(prev)
	if err != nil {
		t.Fatalf("base frame: %v", err)
	}
	d, err := ComputeDelta(prev, cur)
	if err != nil {
		t.Fatalf("compute delta: %v", err)
	}
	frame, crc2, err := EncodeDeltaFrame(d, &prev.State, crc)
	if err != nil {
		t.Fatalf("delta frame: %v", err)
	}
	chain := append(append([]byte(nil), base...), frame...)

	got, err := DecodeChain(chain)
	if err != nil {
		t.Fatalf("decode chain: %v", err)
	}
	if !reflect.DeepEqual(got, cur) {
		t.Fatalf("folded chain differs from the live checkpoint:\n got %+v\nwant %+v", got, cur)
	}

	// A second delta on top: cur -> cur2 with an idle shift.
	cur2 := mutateCheckpoint(prev)
	cur2.State.Time = 56
	cur2.State.SchedulerIdle = []int{4, 2, 5}
	cur2.State.Positions[1] = ckpt.XY{X: 3.5, Y: 0.002}
	d2, err := ComputeDelta(cur, cur2)
	if err != nil {
		t.Fatal(err)
	}
	frame2, _, err := EncodeDeltaFrame(d2, &cur.State, crc2)
	if err != nil {
		t.Fatal(err)
	}
	chain2 := append(append([]byte(nil), chain...), frame2...)
	got2, err := DecodeChain(chain2)
	if err != nil {
		t.Fatalf("decode 2-delta chain: %v", err)
	}
	if !reflect.DeepEqual(got2, cur2) {
		t.Fatalf("2-delta fold differs from the live checkpoint")
	}
}

// TestDeltaTornTail verifies the crash-window policy: an incomplete
// trailing delta frame (a torn append) is dropped silently, restoring
// the last complete save.
func TestDeltaTornTail(t *testing.T) {
	prev := fullCheckpoint()
	cur := mutateCheckpoint(prev)
	base, crc, err := EncodeBaseFrame(prev)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ComputeDelta(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := EncodeDeltaFrame(d, &prev.State, crc)
	if err != nil {
		t.Fatal(err)
	}
	chain := append(append([]byte(nil), base...), frame...)

	for cut := len(base) + 1; cut < len(chain); cut++ {
		got, err := DecodeChain(chain[:cut])
		if err != nil {
			t.Fatalf("torn tail at %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, prev) {
			t.Fatalf("torn tail at %d: fold is not the last complete save", cut)
		}
	}
	// The complete chain still folds to cur.
	got, err := DecodeChain(chain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cur) {
		t.Fatal("complete chain no longer folds to cur")
	}
}

// TestDeltaChainCorruption: a complete but damaged delta frame must
// fail loudly — bad CRC, or a prev-CRC that does not match the frame it
// claims to extend.
func TestDeltaChainCorruption(t *testing.T) {
	prev := fullCheckpoint()
	cur := mutateCheckpoint(prev)
	base, crc, err := EncodeBaseFrame(prev)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ComputeDelta(prev, cur)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bit flip in delta body", func(t *testing.T) {
		frame, _, err := EncodeDeltaFrame(d, &prev.State, crc)
		if err != nil {
			t.Fatal(err)
		}
		chain := append(append([]byte(nil), base...), frame...)
		chain[len(chain)-1] ^= 0x01
		if _, err := DecodeChain(chain); !errors.Is(err, ckpt.ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("wrong prev crc", func(t *testing.T) {
		frame, _, err := EncodeDeltaFrame(d, &prev.State, crc^0xDEADBEEF)
		if err != nil {
			t.Fatal(err)
		}
		chain := append(append([]byte(nil), base...), frame...)
		if _, err := DecodeChain(chain); !errors.Is(err, ckpt.ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("wrong delta magic", func(t *testing.T) {
		frame, _, err := EncodeDeltaFrame(d, &prev.State, crc)
		if err != nil {
			t.Fatal(err)
		}
		chain := append(append([]byte(nil), base...), frame...)
		copy(chain[len(base):], "WXYZ")
		if _, err := DecodeChain(chain); !errors.Is(err, ckpt.ErrSchema) {
			t.Fatalf("got %v, want ErrSchema", err)
		}
	})
}

func TestApplyDeltaRejectsOutOfRange(t *testing.T) {
	prev := fullCheckpoint()
	d := &Delta{
		Time:       60,
		PosChanged: []PosChange{{Index: 99, Pos: ckpt.XY{X: 1, Y: 1}}},
	}
	if err := ApplyDelta(prev, d); err == nil {
		t.Fatal("out-of-range position index accepted")
	}
}

func TestDiffIdle(t *testing.T) {
	cases := []struct {
		prev, cur []int
	}{
		{nil, nil},
		{nil, []int{1, 2, 3}},
		{[]int{0, 0, 0}, []int{1, 1, 1}},
		{[]int{5, 3, 9}, []int{6, 0, 10}},
		{[]int{1, 2}, []int{7, 8, 9}},
		{[]int{4, 4, 4, 4}, []int{4, 4, 4, 4}},
	}
	for i, c := range cases {
		shift, overrides := DiffIdle(c.prev, c.cur)
		d := &Delta{HasIdle: true, IdleLen: len(c.cur), IdleShift: shift, IdleOverrides: overrides}
		ck := &ckpt.Checkpoint{State: ckpt.State{SchedulerIdle: c.prev,
			Positions: make([]ckpt.XY, 4), Endpoints: make([]ckpt.EndpointState, 4)}}
		if err := ApplyDelta(ck, d); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want := c.cur
		if len(want) == 0 {
			want = nil
		}
		got := ck.State.SchedulerIdle
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: got %v, want %v (shift %d overrides %v)", i, got, want, shift, overrides)
		}
	}
}

// TestDetect: Detect accepts the binary encoding and refuses the
// committed v1 JSON envelope, which is how the facade's loaders pick a
// decoder.
func TestDetect(t *testing.T) {
	bin, err := Encode(fullCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !Detect(bin) {
		t.Fatal("Detect rejected its own encoding")
	}
	v1, err := os.ReadFile("../../testdata/golden.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if Detect(v1) {
		t.Fatal("Detect claimed a JSON envelope")
	}
}
