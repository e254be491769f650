package waggle

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
)

// square returns four robot positions.
func square() []Point {
	return []Point{{0, 0}, {20, 0}, {20, 20}, {0, 20}}
}

func TestNewSwarmValidation(t *testing.T) {
	if _, err := NewSwarm(nil); !errors.Is(err, ErrTooFewRobots) {
		t.Errorf("err = %v, want ErrTooFewRobots", err)
	}
	if _, err := NewSwarm([]Point{{0, 0}}); !errors.Is(err, ErrTooFewRobots) {
		t.Errorf("err = %v, want ErrTooFewRobots", err)
	}
	if _, err := NewSwarm(square(), WithProtocol(ProtoSync2)); err == nil {
		t.Error("Sync2 with 4 robots accepted")
	}
	if _, err := NewSwarm([]Point{{0, 0}, {0, 0}}); err == nil {
		t.Error("coincident robots accepted")
	}
}

func TestProtocolAutoSelection(t *testing.T) {
	tests := []struct {
		name string
		pts  []Point
		opts []Option
		want Protocol
	}{
		{"two sync", []Point{{0, 0}, {5, 0}}, []Option{WithSynchronous()}, ProtoSync2},
		{"two async", []Point{{0, 0}, {5, 0}}, nil, ProtoAsync2},
		{"n sync", square(), []Option{WithSynchronous()}, ProtoSyncN},
		{"n async", square(), nil, ProtoAsyncN},
		{"bounded", square(), []Option{WithBoundedSlices(3)}, ProtoAsyncBounded},
		{"forced asyncn for two", []Point{{0, 0}, {5, 0}}, []Option{WithProtocol(ProtoAsyncN)}, ProtoAsyncN},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := NewSwarm(tt.pts, tt.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if s.Protocol() != tt.want {
				t.Errorf("protocol = %v, want %v", s.Protocol(), tt.want)
			}
		})
	}
}

func TestSwarmEndToEndMatrix(t *testing.T) {
	// The headline integration test: every protocol/capability
	// combination delivers a message.
	cases := []struct {
		name string
		pts  []Point
		opts []Option
	}{
		{"sync2", []Point{{0, 0}, {10, 0}}, []Option{WithSynchronous()}},
		{"sync2 levels", []Point{{0, 0}, {10, 0}}, []Option{WithSynchronous(), WithLevels(16)}},
		{"async2", []Point{{0, 0}, {10, 0}}, nil},
		{"async2 alternating", []Point{{0, 0}, {10, 0}}, []Option{WithAlternatingDrift()}},
		{"syncn sec", square(), []Option{WithSynchronous()}},
		{"syncn lex", square(), []Option{WithSynchronous(), WithSenseOfDirection()}},
		{"syncn ids", square(), []Option{WithSynchronous(), WithIdentifiedRobots()}},
		{"asyncn sec", square(), nil},
		{"asyncn lex", square(), []Option{WithSenseOfDirection()}},
		{"asyncn ids", square(), []Option{WithIdentifiedRobots()}},
		{"bounded", square(), []Option{WithBoundedSlices(2)}},
		{"left-handed frames", square(), []Option{WithLeftHandedFrames()}},
		{"round robin", square(), []Option{WithScheduler(SchedulerRoundRobin)}},
		{"starver", square(), []Option{WithStarver(1, 6)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSwarm(tc.pts, append(tc.opts, WithSeed(7))...)
			if err != nil {
				t.Fatal(err)
			}
			want := []byte("E2E")
			if err := s.Send(0, 1, want); err != nil {
				t.Fatal(err)
			}
			got, steps, err := s.RunUntilDelivered(1, 2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if got[0].From != 0 || got[0].To != 1 || !bytes.Equal(got[0].Payload, want) {
				t.Errorf("received %+v", got[0])
			}
			if steps == 0 {
				t.Error("delivered without any step")
			}
		})
	}
}

func TestSwarmRunUntilQuiet(t *testing.T) {
	s, err := NewSwarm(square(), WithSynchronous(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, 2, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(3, 1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	msgs, _, err := s.RunUntilQuiet(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("delivered %d, want 2", len(msgs))
	}
	if len(s.Delivered()) != 2 {
		t.Errorf("Delivered() = %d", len(s.Delivered()))
	}
}

func TestSwarmBroadcastAndOverhear(t *testing.T) {
	s, err := NewSwarm(square(), WithSynchronous(), WithSeed(5), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Broadcast(0, []byte("ALL")); err != nil {
		t.Fatal(err)
	}
	msgs, _, err := s.RunUntilQuiet(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Fatalf("broadcast delivered %d, want 3", len(msgs))
	}
	// Robot 1 also decoded the copies addressed to 2 and 3.
	over := s.Overheard(1)
	if len(over) != 2 {
		t.Errorf("robot 1 overheard %d, want 2", len(over))
	}
}

func TestSwarmDeterministicPerSeed(t *testing.T) {
	run := func() ([]Message, int) {
		s, err := NewSwarm(square(), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(2, 0, []byte("D")); err != nil {
			t.Fatal(err)
		}
		msgs, steps, err := s.RunUntilDelivered(1, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return msgs, steps
	}
	m1, s1 := run()
	m2, s2 := run()
	if s1 != s2 || !bytes.Equal(m1[0].Payload, m2[0].Payload) {
		t.Errorf("same seed diverged: %d vs %d steps", s1, s2)
	}
}

func TestSwarmFlocking(t *testing.T) {
	s, err := NewSwarm(square(), WithSynchronous(), WithFlocking(0.5, 0.25), WithSeed(1), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, 3, []byte("GO")); err != nil {
		t.Fatal(err)
	}
	msgs, steps, err := s.RunUntilDelivered(1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msgs[0].Payload, []byte("GO")) {
		t.Errorf("payload %q", msgs[0].Payload)
	}
	// The swarm as a whole must have drifted.
	pos := s.Positions()
	wantX := 0 + 0.5*float64(steps)
	if pos[0].X < wantX-6 || pos[0].X > wantX+6 {
		t.Errorf("robot 0 at x=%v, want about %v", pos[0].X, wantX)
	}
}

func TestSwarmSigmaClampKeepsAsyncNWorking(t *testing.T) {
	// A modest movement bound slows the robots but must not break
	// delivery (the protocols move in the same direction across
	// activations).
	s, err := NewSwarm(square(), WithSigma(0.8), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x42}
	if err := s.Send(1, 3, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.RunUntilDelivered(1, 4_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0].Payload, want) {
		t.Errorf("payload %v", got[0].Payload)
	}
}

func TestSwarmTraceMetrics(t *testing.T) {
	s, err := NewSwarm(square(), WithSynchronous(), WithSeed(2), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, 1, []byte("T")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RunUntilDelivered(1, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if s.TotalDistance(0) == 0 {
		t.Error("sender distance is zero")
	}
	if s.TotalDistance(2) != 0 {
		t.Error("idle robot moved in a silent synchronous protocol")
	}
	if s.MinPairwiseDistance() <= 0 {
		t.Error("robots collided")
	}
	if s.SentBits(0) != 24 { // 16-bit header + 1 byte
		t.Errorf("SentBits = %d, want 24", s.SentBits(0))
	}
}

func TestBackupMessengerFacade(t *testing.T) {
	s, err := NewSwarm(square(), WithSynchronous(), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	radio := NewRadio(s.N(), 1)
	bm, err := NewBackupMessenger(radio, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := bm.Send(0, 1, []byte("R")); err != nil {
		t.Fatal(err)
	}
	if got := radio.Receive(1); len(got) != 1 {
		t.Fatalf("radio delivery missing: %v", got)
	}
	radio.Break(0)
	if !radio.Broken(0) {
		t.Error("Break not recorded")
	}
	want := []byte("M")
	if err := bm.Send(0, 2, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := bm.Swarm().RunUntilDelivered(1, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].To != 2 || !bytes.Equal(got[0].Payload, want) {
		t.Errorf("movement fallback delivered %+v", got[0])
	}
	viaRadio, viaMovement := bm.Stats()
	if viaRadio != 1 || viaMovement != 1 {
		t.Errorf("stats (%d,%d), want (1,1)", viaRadio, viaMovement)
	}
	if _, err := NewBackupMessenger(nil, nil); err == nil {
		t.Error("nil args accepted")
	}
}

func TestProtocolString(t *testing.T) {
	for p, want := range map[Protocol]string{
		ProtoAuto: "auto", ProtoSync2: "sync2", ProtoSyncN: "syncn",
		ProtoAsync2: "async2", ProtoAsyncN: "asyncn", ProtoAsyncBounded: "asyncbounded",
		Protocol(99): "Protocol(99)",
	} {
		if got := p.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(p), got, want)
		}
	}
}

func ExampleSwarm() {
	swarm, err := NewSwarm(
		[]Point{{0, 0}, {10, 0}},
		WithSynchronous(),
		WithSeed(1),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := swarm.Send(0, 1, []byte("HELLO")); err != nil {
		fmt.Println(err)
		return
	}
	msgs, _, err := swarm.RunUntilDelivered(1, 100_000)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("robot %d received %q from robot %d\n", msgs[0].To, msgs[0].Payload, msgs[0].From)
	// Output: robot 1 received "HELLO" from robot 0
}

func TestSwarmSendAllEfficient(t *testing.T) {
	s, err := NewSwarm(square(), WithSynchronous(), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("ONE")
	if err := s.SendAll(1, want); err != nil {
		t.Fatal(err)
	}
	msgs, _, err := s.RunUntilQuiet(200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Fatalf("SendAll delivered %d copies, want 3", len(msgs))
	}
	for _, m := range msgs {
		if m.From != 1 || !bytes.Equal(m.Payload, want) {
			t.Errorf("bad copy %+v", m)
		}
	}
	// One frame, not n-1.
	if bits := s.SentBits(1); bits != 16+8*len(want) {
		t.Errorf("SentBits = %d, want %d", bits, 16+8*len(want))
	}
}

func TestOptionValidation(t *testing.T) {
	two := []Point{{0, 0}, {10, 0}}
	tests := []struct {
		name string
		pts  []Point
		opts []Option
	}{
		{"flocking without sync", square(), []Option{WithFlocking(1, 0)}},
		{"levels async", two, []Option{WithLevels(4)}},
		{"levels with forced async protocol", two, []Option{WithSynchronous(), WithLevels(4), WithProtocol(ProtoAsync2)}},
		{"bounded base 1", square(), []Option{WithBoundedSlices(1)}},
		{"bounded base above n", square(), []Option{WithBoundedSlices(5)}},
		{"bounded with sync", square(), []Option{WithSynchronous(), WithBoundedSlices(2)}},
		{"bounded with forced protocol", square(), []Option{WithBoundedSlices(2), WithProtocol(ProtoAsyncN)}},
		{"alternating drift on n robots", square(), []Option{WithAlternatingDrift()}},
		{"alternating drift sync", two, []Option{WithSynchronous(), WithAlternatingDrift()}},
		{"starver victim out of range", square(), []Option{WithStarver(9, 4)}},
		{"non-positive sigma", two, []Option{WithSigma(-1)}},
		{"NaN sigma", two, []Option{WithSigma(math.NaN())}},
		{"NaN activation probability", square(), []Option{WithActivationProbability(math.NaN())}},
		{"negative activation probability", square(), []Option{WithActivationProbability(-0.5)}},
		{"activation probability above 1", square(), []Option{WithActivationProbability(3)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSwarm(tt.pts, tt.opts...); err == nil {
				t.Error("invalid option combination accepted")
			}
		})
	}
}

func TestSwarmNLevels(t *testing.T) {
	msg := bytes.Repeat([]byte{0x69}, 8)
	stepsFor := func(levels int) int {
		opts := []Option{WithSynchronous(), WithSeed(31)}
		if levels > 0 {
			opts = append(opts, WithLevels(levels))
		}
		s, err := NewSwarm(square(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(0, 2, msg); err != nil {
			t.Fatal(err)
		}
		got, steps, err := s.RunUntilDelivered(1, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[0].Payload, msg) {
			t.Fatalf("levels=%d payload corrupted", levels)
		}
		return steps
	}
	plain := stepsFor(0)
	leveled := stepsFor(16)
	if ratio := float64(plain) / float64(leveled); ratio < 3.5 || ratio > 4.5 {
		t.Errorf("n-robot 16-level speedup = %.2f, want about 4", ratio)
	}
}

func TestSwarmActivationProbability(t *testing.T) {
	stepsFor := func(p float64) int {
		opts := []Option{WithSeed(33)}
		if p > 0 {
			opts = append(opts, WithActivationProbability(p))
		}
		s, err := NewSwarm(square(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(0, 1, []byte{1}); err != nil {
			t.Fatal(err)
		}
		_, steps, err := s.RunUntilDelivered(1, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return steps
	}
	fast := stepsFor(0.9)
	slow := stepsFor(0.1)
	if slow <= fast {
		t.Errorf("sparse activation (%d steps) not slower than dense (%d steps)", slow, fast)
	}
}
