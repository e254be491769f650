package waggle

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"waggle/internal/sim"
)

// onEngine forces a swarm's step engine onto one compute path through
// the simulator's hook; swarms built by NewSwarm always run the
// adaptive sim.EngineAuto. It is curried to take NewSwarm's results:
// onEngine(m)(NewSwarm(...)).
func onEngine(m sim.EngineMode) func(*Swarm, error) (*Swarm, error) {
	return func(s *Swarm, err error) (*Swarm, error) {
		if err == nil {
			s.net.World().SetEngine(m)
		}
		return s, err
	}
}

// TestGoldenRun pins a full end-to-end execution: same options, same
// seed must yield bit-identical deliveries, step counts, and final
// positions across releases. If an intentional protocol change alters
// the trajectory, update the constants — consciously.
func TestGoldenRun(t *testing.T) {
	s, err := NewSwarm(
		[]Point{{X: 0, Y: 0}, {X: 24, Y: 6}, {X: 10, Y: 28}, {X: 30, Y: 30}},
		WithSeed(12345),
		WithTrace(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, 3, []byte("GOLD")); err != nil {
		t.Fatal(err)
	}
	msgs, steps, err := s.RunUntilDelivered(1, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msgs[0].Payload, []byte("GOLD")) {
		t.Fatalf("payload %q", msgs[0].Payload)
	}
	const wantSteps = 1226
	if steps != wantSteps {
		t.Errorf("steps = %d, want %d (golden; update only for intentional protocol changes)", steps, wantSteps)
	}
	// Re-run: must reproduce exactly.
	s2, err := NewSwarm(
		[]Point{{X: 0, Y: 0}, {X: 24, Y: 6}, {X: 10, Y: 28}, {X: 30, Y: 30}},
		WithSeed(12345),
		WithTrace(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Send(0, 3, []byte("GOLD")); err != nil {
		t.Fatal(err)
	}
	_, steps2, err := s2.RunUntilDelivered(1, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if steps2 != steps {
		t.Errorf("re-run diverged: %d vs %d steps", steps2, steps)
	}
	p1, p2 := s.Positions(), s2.Positions()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Errorf("robot %d final position diverged: %v vs %v", i, p1[i], p2[i])
		}
	}
}

// TestRandomizedEndToEnd is the facade-level property test: random
// payloads, random swarm shapes, random capability sets, random
// schedulers — every message must arrive intact with correct metadata.
func TestRandomizedEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			n := 2 + rng.Intn(5)
			positions := make([]Point, 0, n)
			for len(positions) < n {
				p := Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
				ok := true
				for _, q := range positions {
					dx, dy := p.X-q.X, p.Y-q.Y
					if dx*dx+dy*dy < 100 {
						ok = false
						break
					}
				}
				if ok {
					positions = append(positions, p)
				}
			}
			opts := []Option{WithSeed(rng.Int63())}
			if rng.Intn(2) == 0 {
				opts = append(opts, WithSynchronous())
			}
			switch rng.Intn(3) {
			case 0:
				opts = append(opts, WithIdentifiedRobots())
			case 1:
				opts = append(opts, WithSenseOfDirection())
			}
			if rng.Intn(2) == 0 {
				opts = append(opts, WithLeftHandedFrames())
			}
			s, err := NewSwarm(positions, opts...)
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 1+rng.Intn(5))
			rng.Read(payload)
			from := rng.Intn(n)
			to := rng.Intn(n - 1)
			if to >= from {
				to++
			}
			if err := s.Send(from, to, payload); err != nil {
				t.Fatal(err)
			}
			msgs, _, err := s.RunUntilDelivered(1, 10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if msgs[0].From != from || msgs[0].To != to || !bytes.Equal(msgs[0].Payload, payload) {
				t.Errorf("trial %d: got %+v, want %d->%d %v", trial, msgs[0], from, to, payload)
			}
		})
	}
}

// TestGoldenEngineParity is the acceptance gate for the step engine's
// compute paths: the same seed and scheduler must produce a
// byte-for-byte identical execution — step count, every recorded move,
// every final position — whether the moves are computed sequentially,
// over the worker pool, or under EngineAuto's size-dependent dispatch.
func TestGoldenEngineParity(t *testing.T) {
	positions := []Point{{X: 0, Y: 0}, {X: 24, Y: 6}, {X: 10, Y: 28}, {X: 30, Y: 30}, {X: -20, Y: 14}, {X: 8, Y: -22}}
	runWith := func(mode sim.EngineMode) (*Swarm, int) {
		t.Helper()
		s, err := onEngine(mode)(NewSwarm(positions, WithSeed(4242), WithTrace()))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(0, 3, []byte("PARITY")); err != nil {
			t.Fatal(err)
		}
		if err := s.Send(2, 5, []byte("CHECK")); err != nil {
			t.Fatal(err)
		}
		msgs, steps, err := s.RunUntilDelivered(2, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 2 {
			t.Fatalf("%v: %d messages", mode, len(msgs))
		}
		return s, steps
	}
	seq, seqSteps := runWith(sim.EngineSequential)
	var seqTrace bytes.Buffer
	if err := seq.WriteTraceCSV(&seqTrace); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []sim.EngineMode{sim.EngineParallel, sim.EngineAuto} {
		other, otherSteps := runWith(mode)
		if seqSteps != otherSteps {
			t.Fatalf("step counts diverged: sequential %d, %v %d", seqSteps, mode, otherSteps)
		}
		p1, p2 := seq.Positions(), other.Positions()
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Errorf("%v: robot %d final position diverged: %v vs %v", mode, i, p1[i], p2[i])
			}
		}
		var otherTrace bytes.Buffer
		if err := other.WriteTraceCSV(&otherTrace); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seqTrace.Bytes(), otherTrace.Bytes()) {
			t.Errorf("recorded traces differ between sequential and %v engines", mode)
		}
	}
}
