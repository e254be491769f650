package waggle

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"waggle/internal/core"
	"waggle/internal/figures"
	"waggle/internal/protocol"
	"waggle/internal/sim"
)

// decoderCase is one configuration TestDecoderDigest pins: n robots
// placed by figures.RandomConfiguration on a 12n square at separation
// 8, msgs queued 4-byte unicasts from distinct senders after instant 0,
// then steps more instants.
type decoderCase struct {
	name       string
	n, msgs    int
	steps      int
	opts       []Option
	resolution int    // AsyncN's DirectionResolution, which no Option reaches; 0 builds through NewSwarm
	digest     string // the same under both engines
}

// decoderCases' digests were recorded before the movement decoder gained
// its certified fast path. They pin every delivery (instant, sender,
// recipient, payload) and every final position's float bits, so a change
// that moved one boundary classification anywhere in these runs fails.
// Never update them to make the test pass.
var decoderCases = []decoderCase{
	{
		// The chat-async stack: facade defaults (AsyncN, SEC naming,
		// random fair scheduler).
		name: "chat-async", n: 32, msgs: 16, steps: 2400,
		opts:   []Option{WithSeed(11)},
		digest: "20c86d0e6ab1dd61311b74a5bfa727ac45a8377f878d2f6862b9cf6cdbd2c56a",
	},
	{
		name: "syncn-lex", n: 24, msgs: 12, steps: 160,
		opts:   []Option{WithSeed(12), WithSynchronous(), WithSenseOfDirection()},
		digest: "920babcee6f7fb469dacafbebb68b437eb0f01c81fadbe7cfbced41a9f555d76",
	},
	{
		name: "syncn-ids", n: 24, msgs: 12, steps: 160,
		opts:   []Option{WithSeed(13), WithSynchronous(), WithIdentifiedRobots()},
		digest: "01a3995006e93c469a2d509db73392e3ca090644aa9be55efe0800c142852ba6",
	},
	{
		name: "async-bounded", n: 16, msgs: 8, steps: 3000,
		opts:   []Option{WithSeed(14), WithBoundedSlices(3)},
		digest: "2b0679c86ed35f1de26caeee05edf32c4327dc2ca38ab82038b34b2f4464c9a1",
	},
	{
		name: "asyncn-resolution", n: 12, msgs: 6, steps: 3000, resolution: 256,
		opts:   []Option{WithSeed(15)},
		digest: "7f4f757da833e7a47dc889662b60d26a8e26c081cbb1d92d2529e7d5e47f53ab",
	},
	{
		name: "asyncn-left-handed", n: 16, msgs: 8, steps: 3000,
		opts:   []Option{WithSeed(16), WithLeftHandedFrames()},
		digest: "55cfc3498c25f85ca226016d9e2830c5cdbf286124741a97311d6c3fec09c302",
	},
}

// decoderNetwork builds the case's stack under the given engine.
func decoderNetwork(t *testing.T, c decoderCase, engine EngineMode) *core.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(c.name))*7919 + int64(c.n)))
	pts := figures.RandomConfiguration(rng, c.n, 12*float64(c.n), 8)
	opts := append(append([]Option(nil), c.opts...), WithEngine(engine))
	if c.resolution == 0 {
		positions := make([]Point, len(pts))
		for i, p := range pts {
			positions[i] = Point{X: p.X, Y: p.Y}
		}
		s, err := NewSwarm(positions, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s.network()
	}
	// The facade's AsyncN stack with DirectionResolution set.
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	frames := buildFrames(o, c.n)
	sigmaLocal := make([]float64, c.n)
	for i, f := range frames {
		sigmaLocal[i] = o.sigma / f.Scale
	}
	behaviors, endpoints, err := protocol.NewAsyncN(c.n, protocol.AsyncNConfig{
		Naming: naming(o), SigmaLocal: sigmaLocal, DirectionResolution: c.resolution,
	})
	if err != nil {
		t.Fatal(err)
	}
	robots := make([]*sim.Robot, c.n)
	for i := range robots {
		robots[i] = &sim.Robot{Frame: frames[i], Sigma: o.sigma, Behavior: behaviors[i]}
	}
	world, err := sim.NewWorld(sim.Config{Positions: pts, Robots: robots, Engine: buildEngine(o)})
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.NewNetwork(world, buildScheduler(o), endpoints)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// decoderDigest runs the case and returns the SHA-256 of its deliveries
// and final positions, with the number of deliveries.
func decoderDigest(t *testing.T, c decoderCase, engine EngineMode) (string, int) {
	t.Helper()
	net := decoderNetwork(t, c, engine)
	if err := net.Step(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(c.n) ^ 0x44454344))
	senders := rng.Perm(c.n)
	for _, from := range senders[:c.msgs] {
		to := rng.Intn(c.n - 1)
		if to >= from {
			to++
		}
		var p [4]byte
		rng.Read(p[:])
		if err := net.Send(from, to, p[:]); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	delivered := 0
	for s := 0; s < c.steps; s++ {
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
		for _, m := range net.DeliveredSince(delivered) {
			word(uint64(net.World().Time()))
			word(uint64(m.From))
			word(uint64(m.To))
			word(uint64(len(m.Payload)))
			h.Write(m.Payload)
			delivered++
		}
	}
	for i := 0; i < c.n; i++ {
		p := net.World().Position(i)
		word(math.Float64bits(p.X))
		word(math.Float64bits(p.Y))
	}
	return hex.EncodeToString(h.Sum(nil)), delivered
}

// TestDecoderDigest pins the movement decoder's output bits on larger
// swarms than the golden files cover, under both engines: the chat-async
// stack, SyncN under Lex and IDs naming, the bounded-slice variant,
// AsyncN with a limited direction resolution, and left-handed frames.
// `make race-repeat` runs its parallel subtest, where the robots of a
// swarm decode concurrently.
func TestDecoderDigest(t *testing.T) {
	for _, engine := range []struct {
		name string
		mode EngineMode
	}{{"sequential", EngineSequential}, {"parallel", EngineParallel}} {
		t.Run(engine.name, func(t *testing.T) {
			for _, c := range decoderCases {
				t.Run(c.name, func(t *testing.T) {
					got, delivered := decoderDigest(t, c, engine.mode)
					if delivered == 0 {
						t.Errorf("nothing delivered in %d instants", c.steps)
					}
					if got != c.digest {
						t.Errorf("digest %s (%d deliveries), want %s", got, delivered, c.digest)
					}
				})
			}
		})
	}
}
