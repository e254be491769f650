package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"waggle"
	"waggle/internal/core"
	"waggle/internal/figures"
	"waggle/internal/geom"
)

// chatSpec sizes the chat workload: n robots talking by moving, in rounds
// of k seeded unicasts queued at once and drained one delivery at a
// time. The rounds go in turn to `placements` swarms, each placed from
// the seed: the cost of an instant depends on the placement, so one
// placement per run would make the result hinge on the seed's draw.
type chatSpec struct {
	n, k, placements int
}

// chatAsync is the paper's weakest model: the facade defaults (AsyncN,
// SEC naming, the random fair scheduler).
var chatAsync = chatSpec{n: 32, k: 16, placements: 4}

// chatMaxSteps bounds the instants one delivery may take; a message
// still undelivered after it fails the run.
const chatMaxSteps = 1_000_000

type chatMsg struct {
	from, to int
	payload  string
}

// chatPlacements draws each swarm's placement: n robots uniformly on a
// 12n square at minimum separation 8.
func chatPlacements(seed int64, spec chatSpec) [][]geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]geom.Point, spec.placements)
	for k := range out {
		out[k] = figures.RandomConfiguration(rng, spec.n, 12*float64(spec.n), 8)
	}
	return out
}

// chatSeed is the seed the k-th swarm of a run is built with.
func chatSeed(seed int64, k int) int64 { return seed*256 + int64(k) }

// chatGen draws the rounds of messages from the seed.
type chatGen struct {
	rng  *rand.Rand
	spec chatSpec
}

func newChatGen(seed int64, spec chatSpec) *chatGen {
	return &chatGen{rng: rand.New(rand.NewSource(seed ^ 0x43484154)), spec: spec}
}

// round draws k messages from k distinct senders, so no sender queues
// two messages in one round and a round's length does not hinge on how
// many messages the draw piled onto one robot.
func (g *chatGen) round() []chatMsg {
	msgs := make([]chatMsg, g.spec.k)
	senders := g.rng.Perm(g.spec.n)
	for i := range msgs {
		from := senders[i]
		to := g.rng.Intn(g.spec.n - 1)
		if to >= from {
			to++
		}
		var p [4]byte
		g.rng.Read(p[:])
		msgs[i] = chatMsg{from: from, to: to, payload: string(p[:])}
	}
	return msgs
}

// newChatSwarms builds one facade swarm per placement and runs its
// instant 0, where every robot is active and the protocols do their
// preprocessing.
func newChatSwarms(places [][]geom.Point, seed int64) ([]*waggle.Swarm, error) {
	out := make([]*waggle.Swarm, len(places))
	for k, pts := range places {
		wp := make([]waggle.Point, len(pts))
		for i, p := range pts {
			wp[i] = waggle.Point{X: p.X, Y: p.Y}
		}
		s, err := waggle.NewSwarm(wp, waggle.WithSeed(chatSeed(seed, k)))
		if err != nil {
			return nil, err
		}
		if err := s.Step(); err != nil {
			return nil, err
		}
		out[k] = s
	}
	return out, nil
}

// chatDriver runs a chat swarm either through the facade (untraced) or
// through the probed internal stack (traced).
type chatDriver interface {
	send(m chatMsg) error
	// deliver advances until one more message is delivered and returns it.
	deliver() (chatMsg, error)
	time() int
	sentBits() int // excursions performed so far, over all robots
}

type facadeDriver struct{ s *waggle.Swarm }

func (d facadeDriver) send(m chatMsg) error { return d.s.Send(m.from, m.to, []byte(m.payload)) }

func (d facadeDriver) deliver() (chatMsg, error) {
	msgs, _, err := d.s.RunUntilDelivered(1, chatMaxSteps)
	if err != nil {
		return chatMsg{}, err
	}
	return chatMsg{from: msgs[0].From, to: msgs[0].To, payload: string(msgs[0].Payload)}, nil
}

func (d facadeDriver) time() int { return d.s.Time() }

func (d facadeDriver) sentBits() int {
	total := 0
	for i := 0; i < d.s.N(); i++ {
		total += d.s.SentBits(i)
	}
	return total
}

// stackDriver steps the probed stack one core.Network.Step at a time, in
// the order Network.RunUntilDelivered(1, ...) would, timing each step.
type stackDriver struct {
	net    *core.Network
	p      *simProbe
	parent int // the span of the round in progress
	coreNs int64
}

func (d *stackDriver) send(m chatMsg) error { return d.net.Send(m.from, m.to, []byte(m.payload)) }

func (d *stackDriver) deliver() (chatMsg, error) {
	for steps := 0; ; steps++ {
		recs, _, err := d.net.RunUntilDelivered(1, 0)
		if err == nil {
			return chatMsg{from: recs[0].From, to: recs[0].To, payload: string(recs[0].Payload)}, nil
		}
		if !errors.Is(err, core.ErrNotDelivered) || steps == chatMaxSteps {
			return chatMsg{}, err
		}
		if err := d.step(); err != nil {
			return chatMsg{}, err
		}
	}
}

func (d *stackDriver) step() error {
	t := d.net.World().Time()
	start := d.p.tr.now()
	if err := d.net.Step(); err != nil {
		return err
	}
	end := d.p.tr.now()
	d.coreNs += end - start
	d.p.endInstant(t, 0, d.p.tr.add(span{Name: "core.step", Start: start, End: end, Parent: d.parent, ID: int64(t)}))
	return nil
}

func (d *stackDriver) time() int { return d.net.World().Time() }

func (d *stackDriver) sentBits() int {
	total := 0
	for i := 0; i < d.net.World().N(); i++ {
		total += d.net.Endpoint(i).SentBits()
	}
	return total
}

// delivery is one message as the round's drain returned it.
type delivery struct {
	msg      chatMsg
	instants int // from the round's sends to the delivery
}

// chatResult is what one pass of rounds measured.
type chatResult struct {
	rounds   [][]delivery
	latMS    []float64  // per message, from the round's start
	units    []workUnit // per round
	roundNs  int64      // total wall time of the rounds
	excursed int        // excursions performed during the rounds
}

// chatRun plays rounds until the window elapses (window > 0) or exactly
// `rounds` rounds, round r on swarm r mod len(ds). Every delivery must
// match a message of its round: same sender, recipient and payload, and
// the round must deliver exactly what it sent.
func chatRun(e *env, rep *report, ds []chatDriver, gen *chatGen, window time.Duration, rounds int) (*chatResult, error) {
	res := &chatResult{}
	sentBits := func() int {
		total := 0
		for _, d := range ds {
			total += d.sentBits()
		}
		return total
	}
	bits0 := sentBits()
	deadline := time.Now().Add(window)
	for r := 0; window > 0 && time.Now().Before(deadline) || window <= 0 && r < rounds; r++ {
		d := ds[r%len(ds)]
		sd, _ := d.(*stackDriver)
		msgs := gen.round()
		var roundSpan int
		if sd != nil {
			roundSpan = sd.p.tr.add(span{Name: "chat.round", Start: sd.p.tr.now(), Parent: -1, ID: int64(r)})
			sd.parent = roundSpan
		}
		start := time.Now()
		t0 := d.time()
		want := map[chatMsg]int{}
		for _, m := range msgs {
			rep.attempted++
			if err := d.send(m); err != nil {
				return nil, fmt.Errorf("round %d: send: %w", r, err)
			}
			want[m]++
		}
		var got []delivery
		for range msgs {
			m, err := d.deliver()
			if err != nil {
				rep.fail(e, "round %d: %v", r, err)
				break
			}
			res.latMS = append(res.latMS, float64(time.Since(start))/1e6)
			got = append(got, delivery{msg: m, instants: d.time() - t0})
			if want[m] == 0 {
				rep.fail(e, "round %d: delivered %d->%d %q, which was not sent (or already delivered)", r, m.from, m.to, m.payload)
				continue
			}
			want[m]--
		}
		ns := int64(time.Since(start))
		res.roundNs += ns
		res.units = append(res.units, workUnit{ops: len(got), ns: ns})
		if sd != nil {
			sd.p.tr.setEnd(roundSpan, sd.p.tr.now())
		}
		res.rounds = append(res.rounds, got)
	}
	res.excursed = sentBits() - bits0
	return res, nil
}

func (r *chatResult) instants() []float64 {
	var out []float64
	for _, round := range r.rounds {
		for _, dl := range round {
			out = append(out, float64(dl.instants))
		}
	}
	return out
}

func (r *chatResult) delivered() int { return len(r.latMS) }

// runChat measures chat through the facade. The traced run repeats the
// same rounds through the probed stacks and requires identical
// deliveries.
func runChat(e *env) (*report, error) {
	spec := chatAsync
	if e.smoke {
		spec = chatSpec{n: 8, k: 4, placements: 2}
	}
	places := chatPlacements(e.seed, spec)
	rep := newReport()
	var swarms []*waggle.Swarm
	err := e.setup(rep, func(int) error {
		var err error
		swarms, err = newChatSwarms(places, e.seed)
		return err
	}, func() error { swarms = nil; return nil })
	if err != nil {
		return nil, err
	}
	window := e.seconds
	if e.tr != nil {
		window /= 2
	}
	ds := make([]chatDriver, len(swarms))
	for k, s := range swarms {
		ds[k] = facadeDriver{s}
	}
	base, err := chatRun(e, rep, ds, newChatGen(e.seed, spec), window, 0)
	if err != nil {
		return nil, err
	}
	e.logf("%d msgs in %d rounds over %d placements, %.2f msg/s", base.delivered(), len(base.rounds), len(places),
		ratio(float64(base.delivered()), float64(base.roundNs)/1e9))
	e.logf("%s", pctLine("delivery latency", base.latMS))
	e.logf("instants per msg: median %.1f (n=%d); excursions per msg %.2f",
		median(base.instants()), len(base.instants()), ratio(float64(base.excursed), float64(base.delivered())))
	if e.tr == nil {
		rep.latMS, rep.units = base.latMS, base.units
		return rep, nil
	}

	p := newSimProbe(e.tr, spec.placements*spec.n)
	stacks, err := newChatStacks(places, e.seed, p)
	if err != nil {
		return nil, err
	}
	p.reset()
	for k, sd := range stacks {
		sd.coreNs = 0
		ds[k] = sd
	}
	traced, err := chatRun(e, rep, ds, newChatGen(e.seed, spec), 0, len(base.rounds))
	if err != nil {
		return nil, err
	}
	for r := range base.rounds {
		if !slices.Equal(base.rounds[r], traced.rounds[r]) {
			rep.fail(e, "round %d: the traced stack delivered %v, the facade %v", r, traced.rounds[r], base.rounds[r])
		}
	}
	var coreNs int64
	for _, sd := range stacks {
		coreNs += sd.coreNs
	}
	m := rep.layer
	m["trace.overhead_pct"] = 100 * (ratio(median(traced.latMS), median(base.latMS)) - 1)
	p.layerMetrics(traced.roundNs, m)
	m["core.collect_pct"] = share(float64(coreNs-p.tot.step), float64(traced.roundNs))
	m["protocol.first_activation_ratio"] = p.firstActivationRatio()
	m["protocol.instants_per_msg"] = median(traced.instants())
	m["protocol.excursions_per_msg"] = ratio(float64(traced.excursed), float64(traced.delivered()))
	for _, l := range p.lines() {
		e.logf("%s", l)
	}
	e.logf("core: mean step %.3f ms, of which collect %.3f ms", ratio(float64(coreNs), float64(p.tot.instants))/1e6,
		ratio(float64(coreNs-p.tot.step), float64(p.tot.instants))/1e6)
	e.logf("trace overhead %.1f%% (p50 delivery latency, %d rounds each)", m["trace.overhead_pct"], len(base.rounds))
	return rep, nil
}
