// Package sweep runs the parameter-sweep experiments of DESIGN.md §4
// (C3, C4, C5, C6, C8 plus latency scaling) and formats them as tables.
// cmd/waggle-sweep prints them; EXPERIMENTS.md records their outputs;
// the root bench suite exercises the same code paths under testing.B.
package sweep

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"waggle"
	"waggle/internal/encoding"
	"waggle/internal/figures"
	"waggle/internal/render"
)

// stepBudget bounds every individual run.
const stepBudget = 20_000_000

// Run executes the named experiment.
func Run(name string) (*render.Table, error) {
	switch name {
	case "levels":
		return Levels()
	case "slices":
		return Slices()
	case "drift":
		return Drift()
	case "silence":
		return Silence()
	case "backup":
		return Backup()
	case "latency":
		return Latency()
	case "msgsize":
		return MessageSize()
	case "throughput":
		return Throughput()
	case "resolution":
		return Resolution()
	case "onetoall":
		return OneToAll()
	case "visibility":
		return Visibility()
	case "ablation-stepdivisor":
		return AblationStepDivisor()
	case "ablation-amplitude":
		return AblationAmplitude()
	case "ablation-activation":
		return AblationActivation()
	case "chaos":
		return Chaos()
	default:
		return nil, fmt.Errorf("sweep: unknown experiment %q (try: %v)", name, Names())
	}
}

// Names lists the available experiments.
func Names() []string {
	return []string{
		"levels", "slices", "drift", "silence", "backup", "latency", "msgsize",
		"throughput", "resolution", "onetoall", "visibility",
		"ablation-stepdivisor", "ablation-amplitude", "ablation-activation",
		"chaos",
	}
}

// positionsFor draws a benchmark configuration from the shared
// grid-backed placement helper (figures.RandomConfiguration, built on
// spatial.Placer): identical accept/reject decisions to the old O(n²)
// rejection scan, so the sweep tables are unchanged.
func positionsFor(n int, seed int64) []waggle.Point {
	rng := rand.New(rand.NewSource(seed))
	raw := figures.RandomConfiguration(rng, n, float64(n)*12, 8)
	out := make([]waggle.Point, n)
	for i, p := range raw {
		out[i] = waggle.Point{X: p.X, Y: p.Y}
	}
	return out
}

// Levels is experiment C3: §3.1's amplitude-level coding. k levels carry
// log2(k) bits per excursion, so delivery steps shrink by that factor.
func Levels() (*render.Table, error) {
	msg := bytes.Repeat([]byte{0xA7}, 32)
	tbl := render.NewTable("swarm", "levels", "bits/excursion", "steps", "speedup vs binary")
	run := func(variant string, positions []waggle.Point, k int) (int, error) {
		opts := []waggle.Option{waggle.WithSynchronous(), waggle.WithSeed(1)}
		if k > 0 {
			opts = append(opts, waggle.WithLevels(k))
		}
		s, err := waggle.NewSwarm(positions, opts...)
		if err != nil {
			return 0, err
		}
		if err := s.Send(0, 1, msg); err != nil {
			return 0, err
		}
		_, steps, err := s.RunUntilDelivered(1, stepBudget)
		if err != nil {
			return 0, fmt.Errorf("%s levels=%d: %w", variant, k, err)
		}
		return steps, nil
	}
	two := []waggle.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	var base float64
	for _, k := range []int{2, 4, 16, 64, 256} {
		steps, err := run("sync2", two, k)
		if err != nil {
			return nil, err
		}
		if k == 2 {
			base = float64(steps)
		}
		tbl.AddRow("2 robots (§3.1)", k, bitsPer(k), steps, base/float64(steps))
	}
	// The n-robot composition: signed excursion lengths on the
	// recipient's diameter.
	nPos := positionsFor(6, 19)
	var baseN float64
	for _, k := range []int{0, 4, 16} {
		steps, err := run("syncn", nPos, k)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			baseN = float64(steps)
			tbl.AddRow("6 robots (plain §3.2-3.4)", 0, 1, steps, 1.0)
			continue
		}
		tbl.AddRow("6 robots (levels composition)", k, bitsPer(k), steps, baseN/float64(steps))
	}
	return tbl, nil
}

func bitsPer(k int) int {
	b := 0
	for v := k; v > 1; v >>= 1 {
		b++
	}
	return b
}

// Slices is experiment C4: the §5 trade-off between granular slices and
// transmission steps, at the sizes DESIGN.md §4 lists (n from 8 to
// 512). The direct protocol uses n+1 diameters and sends a message in
// frameBits excursions; the bounded variant uses k+2 diameters and pays
// a ⌈log_k n⌉-excursion prelude.
func Slices() (*render.Table, error) {
	msg := []byte{0x5C}
	frameBits := 16 + 8*len(msg)
	tbl := render.NewTable("n", "variant", "diameters", "excursions/msg", "steps")
	for _, n := range []int{8, 16, 32, 64, 128, 256, 512} {
		positions := positionsFor(n, int64(n))
		run := func(opts ...waggle.Option) (int, int, error) {
			s, err := waggle.NewSwarm(positions, append(opts, waggle.WithSeed(int64(n)))...)
			if err != nil {
				return 0, 0, err
			}
			if err := s.Send(0, n-1, msg); err != nil {
				return 0, 0, err
			}
			_, steps, err := s.RunUntilDelivered(1, stepBudget)
			if err != nil {
				return 0, 0, err
			}
			return s.SentBits(0), steps, nil
		}
		exc, steps, err := run()
		if err != nil {
			return nil, fmt.Errorf("direct n=%d: %w", n, err)
		}
		tbl.AddRow(n, "direct (§4.2)", n+1, exc, steps)
		for _, k := range []int{2, 4} {
			exc, steps, err := run(waggle.WithBoundedSlices(k))
			if err != nil {
				return nil, fmt.Errorf("bounded n=%d k=%d: %w", n, k, err)
			}
			wantExc := frameBits + encoding.IndexCodeLen(n, k)
			variant := fmt.Sprintf("bounded k=%d (§5)", k)
			if exc != wantExc {
				variant += " (!)"
			}
			tbl.AddRow(n, variant, k+2, exc, steps)
		}
	}
	return tbl, nil
}

// Drift is experiment C6: the §4.1 drawback. The base Async2 drifts
// apart without bound; the alternating variant stays near the initial
// separation at the cost of infinitesimally small movements.
func Drift() (*render.Table, error) {
	tbl := render.NewTable("variant", "messages", "steps", "final separation", "min distance")
	for _, alt := range []bool{false, true} {
		opts := []waggle.Option{waggle.WithSeed(3), waggle.WithTrace()}
		name := "drift-away (§4.1 base)"
		if alt {
			opts = append(opts, waggle.WithAlternatingDrift())
			name = "alternating (§4.1 variant)"
		}
		s, err := waggle.NewSwarm([]waggle.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}, opts...)
		if err != nil {
			return nil, err
		}
		const messages = 4
		for m := 0; m < messages; m++ {
			if err := s.Send(0, 1, []byte{byte(m)}); err != nil {
				return nil, err
			}
		}
		_, steps, err := s.RunUntilDelivered(messages, stepBudget)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		pos := s.Positions()
		dx, dy := pos[0].X-pos[1].X, pos[0].Y-pos[1].Y
		sep := dx*dx + dy*dy
		tbl.AddRow(name, messages, steps, math.Sqrt(sep), s.MinPairwiseDistance())
	}
	return tbl, nil
}

// Silence is experiment C5: synchronous protocols are silent (idle
// robots never move); asynchronous protocols are provably not
// (Remark 4.3).
func Silence() (*render.Table, error) {
	tbl := render.NewTable("setting", "protocol", "idle robot distance", "silent")
	for _, sync := range []bool{true, false} {
		opts := []waggle.Option{waggle.WithSeed(5), waggle.WithTrace()}
		if sync {
			opts = append(opts, waggle.WithSynchronous())
		}
		s, err := waggle.NewSwarm(positionsFor(5, 9), opts...)
		if err != nil {
			return nil, err
		}
		if err := s.Send(0, 1, []byte("S")); err != nil {
			return nil, err
		}
		if _, _, err := s.RunUntilDelivered(1, stepBudget); err != nil {
			return nil, err
		}
		idle := s.TotalDistance(3) // robot 3 neither sends nor receives
		tbl.AddRow(settingName(sync), s.Protocol().String(), idle, idle == 0)
	}
	return tbl, nil
}

func settingName(sync bool) string {
	if sync {
		return "synchronous (§3)"
	}
	return "asynchronous (§4)"
}

// Backup is experiment C8: movement signalling as a wireless backup.
// As jamming grows, the share of traffic carried by movement grows to
// 100% while overall delivery stays at 100%.
func Backup() (*render.Table, error) {
	tbl := render.NewTable("jam probability", "messages", "via radio", "via movement", "delivered", "steps")
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		s, err := waggle.NewSwarm(positionsFor(4, 11), waggle.WithSynchronous(), waggle.WithSeed(11))
		if err != nil {
			return nil, err
		}
		radio := waggle.NewRadio(s.N(), 42)
		if err := radio.SetJamming(p); err != nil {
			return nil, err
		}
		bm, err := waggle.NewBackupMessenger(radio, s)
		if err != nil {
			return nil, err
		}
		const messages = 12
		for m := 0; m < messages; m++ {
			if err := bm.Send(m%4, (m+1)%4, []byte{byte(m)}); err != nil {
				return nil, err
			}
		}
		// Radio deliveries are instantaneous; drain the movement channel.
		moved, steps, err := s.RunUntilQuiet(stepBudget)
		if err != nil {
			return nil, err
		}
		viaRadio, viaMovement := bm.Stats()
		delivered := viaRadio + len(moved)
		tbl.AddRow(p, messages, viaRadio, viaMovement, delivered, steps)
	}
	return tbl, nil
}

// Latency measures delivery steps against swarm size for both settings:
// synchronous cost stays flat at two instants per bit (routing is
// positional, not hop-by-hop), while the asynchronous cost grows with n
// because every bit waits for every robot to move twice.
func Latency() (*render.Table, error) {
	msg := []byte{0xEE}
	tbl := render.NewTable("n", "sync steps", "async steps", "async/sync")
	for _, n := range []int{2, 4, 8, 16, 32} {
		positions := positionsFor(n, int64(100+n))
		runOne := func(sync bool) (int, error) {
			opts := []waggle.Option{waggle.WithSeed(int64(n))}
			if sync {
				opts = append(opts, waggle.WithSynchronous())
			}
			if n == 2 {
				// Compare like with like: the n-robot protocols.
				opts = append(opts, waggle.WithProtocol(protoFor(sync)))
			}
			s, err := waggle.NewSwarm(positions, opts...)
			if err != nil {
				return 0, err
			}
			if err := s.Send(0, n-1, msg); err != nil {
				return 0, err
			}
			_, steps, err := s.RunUntilDelivered(1, stepBudget)
			return steps, err
		}
		syncSteps, err := runOne(true)
		if err != nil {
			return nil, fmt.Errorf("sync n=%d: %w", n, err)
		}
		asyncSteps, err := runOne(false)
		if err != nil {
			return nil, fmt.Errorf("async n=%d: %w", n, err)
		}
		tbl.AddRow(n, syncSteps, asyncSteps, float64(asyncSteps)/float64(syncSteps))
	}
	return tbl, nil
}

func protoFor(sync bool) waggle.Protocol {
	if sync {
		return waggle.ProtoSyncN
	}
	return waggle.ProtoAsyncN
}

// MessageSize measures delivery steps against payload length: linear in
// both settings (each bit costs a constant number of excursions).
func MessageSize() (*render.Table, error) {
	tbl := render.NewTable("payload bytes", "frame bits", "sync steps", "steps/bit")
	for _, size := range []int{1, 4, 16, 64, 256} {
		msg := bytes.Repeat([]byte{0b10110010}, size)
		s, err := waggle.NewSwarm(positionsFor(4, 13), waggle.WithSynchronous(), waggle.WithSeed(13))
		if err != nil {
			return nil, err
		}
		if err := s.Send(0, 2, msg); err != nil {
			return nil, err
		}
		_, steps, err := s.RunUntilDelivered(1, stepBudget)
		if err != nil {
			return nil, err
		}
		frameBits := 16 + 8*size
		tbl.AddRow(size, frameBits, steps, float64(steps)/float64(frameBits))
	}
	return tbl, nil
}
