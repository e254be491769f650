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
	"waggle/internal/geom"
	"waggle/internal/protocol"
	"waggle/internal/sim"
)

// decoderCase is one configuration TestDecoderDigest pins: n robots
// placed by figures.RandomConfiguration on a 12n square at separation
// 8 (or by place), msgs queued 4-byte unicasts from distinct senders
// after instant 0, then steps more instants.
type decoderCase struct {
	name       string
	n, msgs    int
	steps      int
	opts       []Option
	resolution int                 // AsyncN's DirectionResolution, which no Option reaches; 0 builds through NewSwarm
	place      func() []geom.Point // a hand-built placement of n robots; nil places them at random
	resend     int                 // when > 0, the same unicasts are queued again every resend instants
	digest     string              // the same on both compute paths
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
	// The SEC naming cases were recorded before the one-sort naming
	// (naming.SECNaming) existed.
	{
		name: "syncn-sec", n: 24, msgs: 12, steps: 160,
		opts:   []Option{WithSeed(18), WithSynchronous()},
		digest: "3f6d5fa602d1fe013fe40045da7b39d5e77a43136417448f3df9cffb5cc096f1",
	},
	{
		// Four epochs, each rebuilding every robot's naming, with the
		// same unicasts queued again at the start of each.
		name: "syncn-sec-stabilizing", n: 24, msgs: 12, steps: 480, resend: 120,
		opts:   []Option{WithSeed(19), WithSynchronous(), WithStabilization(120)},
		digest: "dc0bfdb2a44b2207b102bc29fda14ae53516838e824906a0695521488d94ad80",
	},
	{
		name: "syncn-sec-radius-ties", n: 19, msgs: 10, steps: 160, place: secRadiusTies,
		opts:   []Option{WithSeed(20), WithSynchronous()},
		digest: "96ba95700bf3b63f8660d1f0ff974fe72e6bd197600df6526447da07b8d4cf5d",
	},
	{
		name: "asyncn-sec-radius-ties", n: 19, msgs: 8, steps: 3000, place: secRadiusTies,
		opts:   []Option{WithSeed(21)},
		digest: "fee00471b6a76f82cf81821c16353dbc979a6e2a8c90435f41f61723b61684fe",
	},
	{
		name: "asyncn-sec-near-ties", n: 14, msgs: 7, steps: 3000, place: secNearTies,
		opts:   []Option{WithSeed(22)},
		digest: "4eb466d807cdb872c084ea7df3fba9cd5844d63923157f8fab7f42257b38f2c3",
	},
}

// largeDecoderCases are pinned like decoderCases but kept out of
// `make race-repeat`, where the race detector makes them slow.
var largeDecoderCases = []decoderCase{
	{
		name: "asyncn-sec-128", n: 128, msgs: 8, steps: 3000,
		opts:   []Option{WithSeed(23)},
		digest: "81a4508e6fa78d93c212d3a7a454b9edb20ea420a9abfe19318eca8654def7b7",
	},
}

// secTriangle is three robots on a circle of radius 100 about the
// origin, 120° apart: the configuration's smallest enclosing circle
// whenever every other robot lies strictly inside it.
func secTriangle() []geom.Point {
	h := 50 * math.Sqrt(3)
	return []geom.Point{geom.Pt(0, 100), geom.Pt(-h, -50), geom.Pt(h, -50)}
}

// secRadiusTies is 19 robots, most of them sharing an SEC radius with
// others: rays along integer directions from the SEC centre, so that
// robots on one ray tie exactly in angle in the world frame. Robot 3
// sits at the centre (label 0 in every naming), and robots 5 and 6 are
// on a radius with a robot nearer the centre (not innermost).
func secRadiusTies() []geom.Point {
	return append(secTriangle(),
		geom.Pt(0, 0),
		geom.Pt(12, 16), geom.Pt(27, 36), geom.Pt(42, 56), // along (3, 4)
		geom.Pt(0, 30), geom.Pt(0, 60), // with the support robot (0, 100)
		geom.Pt(-20, 20), geom.Pt(-45, 45),
		geom.Pt(-10, -20), geom.Pt(-25, -50),
		geom.Pt(30, -30), geom.Pt(55, -55),
		geom.Pt(-60, 15),
		geom.Pt(40, 0), geom.Pt(75, 0),
		geom.Pt(-35, 0),
	)
}

// secNearTies is 14 robots, four pairs of which differ in angle about
// the SEC centre by half or twice naming's angleEps (1e-9 rad), one
// pair across the ±π seam: far enough from angleEps that every robot's
// frame resolves each pair the same way, too near it for the one-sort
// naming's certificate, so every robot takes the per-observer fallback.
func secNearTies() []geom.Point {
	polar := func(r, a float64) geom.Point { return geom.Pt(r*math.Cos(a), r*math.Sin(a)) }
	return append(secTriangle(),
		polar(40, 0.7), polar(70, 0.7+0.5e-9),
		polar(30, 2.5), polar(65, 2.5+2e-9),
		polar(45, math.Pi-0.25e-9), polar(80, -math.Pi+0.25e-9),
		polar(50, -1.2), polar(85, -1.2-2e-9),
		polar(20, 1.6), polar(35, -2.2), polar(60, 0),
	)
}

// decoderNetwork builds the case's stack on the given compute path.
func decoderNetwork(t *testing.T, c decoderCase, engine sim.EngineMode) *core.Network {
	t.Helper()
	var pts []geom.Point
	if c.place != nil {
		pts = c.place()
		if len(pts) != c.n {
			t.Fatalf("placement of %d robots, want %d", len(pts), c.n)
		}
	} else {
		rng := rand.New(rand.NewSource(int64(len(c.name))*7919 + int64(c.n)))
		pts = figures.RandomConfiguration(rng, c.n, 12*float64(c.n), 8)
	}
	if c.resolution == 0 {
		positions := make([]Point, len(pts))
		for i, p := range pts {
			positions[i] = Point{X: p.X, Y: p.Y}
		}
		s, err := onEngine(engine)(NewSwarm(positions, c.opts...))
		if err != nil {
			t.Fatal(err)
		}
		return s.network()
	}
	// The facade's AsyncN stack with DirectionResolution set.
	o := defaultOptions()
	for _, opt := range c.opts {
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
	world, err := sim.NewWorld(sim.Config{Positions: pts, Robots: robots, Engine: engine})
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
func decoderDigest(t *testing.T, c decoderCase, engine sim.EngineMode) (string, int) {
	t.Helper()
	net := decoderNetwork(t, c, engine)
	if err := net.Step(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(c.n) ^ 0x44454344))
	senders := rng.Perm(c.n)
	type unicast struct {
		from, to int
		payload  [4]byte
	}
	sends := make([]unicast, c.msgs)
	for i, from := range senders[:c.msgs] {
		to := rng.Intn(c.n - 1)
		if to >= from {
			to++
		}
		sends[i] = unicast{from: from, to: to}
		rng.Read(sends[i].payload[:])
	}
	queue := func() {
		for _, u := range sends {
			if err := net.Send(u.from, u.to, u.payload[:]); err != nil {
				t.Fatal(err)
			}
		}
	}
	queue()
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	delivered := 0
	for s := 0; s < c.steps; s++ {
		if c.resend > 0 && s > 0 && s%c.resend == 0 {
			queue()
		}
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
// swarms than the golden files cover, on both of the engine's compute
// paths: the chat-async stack, SyncN under Lex, IDs and SEC naming
// (stabilizing too), the bounded-slice variant, AsyncN with a limited
// direction resolution, left-handed frames, and SEC namings with shared
// radii, a robot at the SEC centre, and near-ties. `make race-repeat`
// runs its parallel subtest, where the robots of a swarm decode
// concurrently.
func TestDecoderDigest(t *testing.T) {
	runDecoderDigests(t, decoderCases)
}

// TestDecoderDigestLarge pins AsyncN under SEC naming at n = 128.
func TestDecoderDigestLarge(t *testing.T) {
	runDecoderDigests(t, largeDecoderCases)
}

func runDecoderDigests(t *testing.T, cases []decoderCase) {
	for _, engine := range []struct {
		name string
		mode sim.EngineMode
	}{{"sequential", sim.EngineSequential}, {"parallel", sim.EngineParallel}} {
		t.Run(engine.name, func(t *testing.T) {
			for _, c := range cases {
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
