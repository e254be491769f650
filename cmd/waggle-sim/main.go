// Command waggle-sim runs one movement-signal communication scenario
// from command-line flags and prints the delivery trace.
//
// Examples:
//
//	waggle-sim -n 2 -sync -msg HELLO
//	waggle-sim -n 12 -from 9 -to 3 -msg FIG2 -seed 7
//	waggle-sim -n 6 -scheduler starver -msg X
//	waggle-sim -n 4 -sync -listen :8080   # serve /metrics, /trace, pprof
//	waggle-sim -obs-check                 # validate the obs pipeline
//	waggle-sim -checkpoint run.ckpt -checkpoint-every 5000
//	waggle-sim -resume run.ckpt           # continue an interrupted run
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"

	"waggle"
	"waggle/internal/figures"
	"waggle/internal/obs"
)

// config carries the parsed flags; tests drive run with it directly.
type config struct {
	n         int
	sync      bool
	ids       bool
	compass   bool
	seed      int64
	from, to  int
	msg       string
	levels    int
	bounded   int
	scheduler string
	budget    int
	quiet     bool
	tracePath string
	listen    string // -listen: observability endpoint address
	block     bool   // keep serving after the run until interrupted
	obsCheck  bool   // -obs-check: validate the obs pipeline and exit

	ckptPath  string // -checkpoint: write checkpoints to this file
	ckptEvery int    // -checkpoint-every: save every N instants while waiting
	ckptCodec string // -ckpt-codec: checkpoint serialization format
	resume    string // -resume: continue a run from this checkpoint file

	stream       string // -stream: record a waggle-stream/v1 movement stream
	replayStream string // -replay-stream: verify and summarize a stream file
	streamCheck  bool   // -stream-check: validate the streaming pipeline and exit
	streamVictim string // -stream-victim: internal stream-check kill -9 target
}

func main() {
	var cfg config
	flag.IntVar(&cfg.n, "n", 2, "number of robots (>= 2)")
	flag.BoolVar(&cfg.sync, "sync", false, "synchronous setting (§3); default asynchronous (§4)")
	flag.BoolVar(&cfg.ids, "ids", false, "robots carry observable IDs (§3.2)")
	flag.BoolVar(&cfg.compass, "compass", false, "robots share a sense of direction (§3.3)")
	flag.Int64Var(&cfg.seed, "seed", 1, "randomness seed (placement, frames, scheduler)")
	flag.IntVar(&cfg.from, "from", 0, "sender index")
	flag.IntVar(&cfg.to, "to", 1, "recipient index")
	flag.StringVar(&cfg.msg, "msg", "HELLO", "message payload")
	flag.IntVar(&cfg.levels, "levels", 0, "amplitude levels for 2-robot sync coding (power of two)")
	flag.IntVar(&cfg.bounded, "bounded", 0, "bounded-slice base k (2..n) for the §5 variant")
	flag.StringVar(&cfg.scheduler, "scheduler", "random", "asynchronous scheduler: random|roundrobin|starver")
	flag.IntVar(&cfg.budget, "budget", 5_000_000, "maximum time instants")
	flag.BoolVar(&cfg.quiet, "q", false, "print only the delivery line")
	flag.StringVar(&cfg.tracePath, "trace", "", "write the full execution trace as CSV to this file")
	flag.StringVar(&cfg.listen, "listen", "", "serve the observability endpoint (/metrics, /trace, pprof) on this address")
	flag.BoolVar(&cfg.obsCheck, "obs-check", false, "run a short instrumented sim, validate the metrics pipeline, and exit")
	flag.StringVar(&cfg.ckptPath, "checkpoint", "", "write checkpoints to this file (atomic; see -checkpoint-every)")
	flag.IntVar(&cfg.ckptEvery, "checkpoint-every", 0, "while waiting for delivery, save a checkpoint every N instants (requires -checkpoint)")
	flag.StringVar(&cfg.ckptCodec, "ckpt-codec", "delta", "checkpoint serialization: binary (full snapshot per save) or delta (base + per-save delta frames); -resume also reads JSON v1 files, which are no longer written")
	flag.StringVar(&cfg.resume, "resume", "", "resume a run from this checkpoint file instead of starting fresh")
	flag.StringVar(&cfg.stream, "stream", "", "record a waggle-stream/v1 movement stream (appendable, spectatable, crash-tolerant) to this file")
	flag.StringVar(&cfg.replayStream, "replay-stream", "", "replay and verify a waggle-stream/v1 file instead of running, printing its digests")
	flag.BoolVar(&cfg.streamCheck, "stream-check", false, "validate the streaming pipeline (control digest, mid-stream join, kill -9 torn-tail tolerance) and exit")
	flag.StringVar(&cfg.streamVictim, "stream-victim", "", "(internal) stream-check victim: stream an unbounded run to this file until killed")
	flag.Parse()
	cfg.block = cfg.listen != ""
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "waggle-sim:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.obsCheck {
		return obsCheck()
	}
	if cfg.streamCheck {
		return streamCheck()
	}
	if cfg.streamVictim != "" {
		return streamVictim(cfg.streamVictim)
	}
	if cfg.replayStream != "" {
		return replayStream(cfg.replayStream)
	}
	if cfg.ckptEvery > 0 && cfg.ckptPath == "" {
		return fmt.Errorf("-checkpoint-every requires -checkpoint")
	}
	if cfg.resume != "" {
		return runResumed(cfg)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	raw := figures.RandomConfiguration(rng, cfg.n, float64(cfg.n)*12, 8)
	positions := make([]waggle.Point, cfg.n)
	for i, p := range raw {
		positions[i] = waggle.Point{X: p.X, Y: p.Y}
	}

	opts := []waggle.Option{waggle.WithSeed(cfg.seed), waggle.WithTrace()}
	if cfg.stream != "" {
		opts = append(opts, waggle.WithStream(cfg.stream))
	}
	if cfg.sync {
		opts = append(opts, waggle.WithSynchronous())
	}
	if cfg.ids {
		opts = append(opts, waggle.WithIdentifiedRobots())
	}
	if cfg.compass {
		opts = append(opts, waggle.WithSenseOfDirection())
	}
	if cfg.levels > 0 {
		opts = append(opts, waggle.WithLevels(cfg.levels))
	}
	if cfg.bounded > 0 {
		opts = append(opts, waggle.WithBoundedSlices(cfg.bounded))
	}
	switch cfg.scheduler {
	case "roundrobin":
		opts = append(opts, waggle.WithScheduler(waggle.SchedulerRoundRobin))
	case "starver":
		opts = append(opts, waggle.WithStarver(cfg.to, 8))
	case "random", "":
	default:
		return fmt.Errorf("unknown scheduler %q", cfg.scheduler)
	}
	var obsv *waggle.Observer
	if cfg.listen != "" {
		obsv = waggle.NewObserver()
		opts = append(opts, waggle.WithObserver(obsv))
		stop, err := serveIntrospection(cfg.listen, obsv)
		if err != nil {
			return err
		}
		defer stop()
	}

	swarm, err := waggle.NewSwarm(positions, opts...)
	if err != nil {
		return err
	}
	if !cfg.quiet {
		fmt.Printf("swarm: n=%d protocol=%v scheduler=%s seed=%d\n", cfg.n, swarm.Protocol(), cfg.scheduler, cfg.seed)
	}
	if err := swarm.Send(cfg.from, cfg.to, []byte(cfg.msg)); err != nil {
		return err
	}
	return finishRun(cfg, swarm, cfg.budget)
}

// runResumed continues a run from a checkpoint file: the pending send,
// positions, clock, scheduler and RNG streams are all restored, so the
// continuation is byte-identical to a run that was never interrupted.
func runResumed(cfg config) error {
	ck, err := waggle.LoadCheckpoint(cfg.resume)
	if err != nil {
		return err
	}
	res, err := waggle.Restore(ck)
	if err != nil {
		return err
	}
	swarm := res.Swarm
	if cfg.stream != "" {
		// Attach after the restore replay: an existing stream file is
		// appended to (the evict/resume pattern), never re-streamed.
		if _, err := swarm.NewStreamWriter(cfg.stream); err != nil {
			return err
		}
	}
	if cfg.listen != "" {
		if res.Observer == nil {
			return fmt.Errorf("-listen with -resume needs a checkpoint captured with an observer")
		}
		stop, err := serveIntrospection(cfg.listen, res.Observer)
		if err != nil {
			return err
		}
		defer stop()
	}
	if !cfg.quiet {
		fmt.Printf("resumed from %s at t=%d (n=%d)\n", cfg.resume, swarm.Time(), swarm.N())
	}
	return finishRun(cfg, swarm, cfg.budget)
}

// finishRun drives the swarm to the first delivery — saving periodic
// checkpoints if configured — and prints the reports.
func finishRun(cfg config, swarm *waggle.Swarm, budget int) error {
	var cw *waggle.CheckpointWriter
	if cfg.ckptPath != "" {
		codec, err := waggle.ParseCheckpointCodec(cfg.ckptCodec)
		if err != nil {
			return err
		}
		// One writer for the whole run: with the delta codec the periodic
		// saves after the first append only what changed (and reuse the
		// recorder's merged input log instead of re-encoding it), instead
		// of rewriting the full snapshot every interval.
		cw, err = swarm.NewCheckpointWriter(cfg.ckptPath, codec)
		if err != nil {
			return err
		}
	}
	msgs, steps, err := deliverWithCheckpoints(cfg, swarm, budget, cw)
	if err != nil {
		return err
	}
	fmt.Printf("robot %d -> robot %d in %d instants: %q\n", msgs[0].From, msgs[0].To, steps, msgs[0].Payload)
	if !cfg.quiet {
		// Key the sender stats on the delivered message, not cfg.from: a
		// resumed run doesn't know the original -from flag.
		sender := msgs[0].From
		fmt.Printf("sender excursions: %d; sender distance: %.2f; min pairwise distance: %.3f\n",
			swarm.SentBits(sender), swarm.TotalDistance(sender), swarm.MinPairwiseDistance())
	}
	if cw != nil {
		if err := cw.Save(); err != nil {
			return err
		}
		if !cfg.quiet {
			fmt.Printf("final checkpoint (t=%d, %s) written to %s\n", swarm.Time(), cw.Codec(), cfg.ckptPath)
		}
	}
	if cfg.tracePath != "" {
		f, err := os.Create(cfg.tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := swarm.WriteTraceCSV(f); err != nil {
			return err
		}
		if !cfg.quiet {
			fmt.Printf("trace written to %s\n", cfg.tracePath)
		}
	}
	if sw := swarm.Stream(); sw != nil {
		if err := sw.Close(); err != nil {
			return err
		}
		if !cfg.quiet {
			fmt.Printf("stream (%d bytes) written to %s\n", sw.Offset(), sw.Path())
		}
	}
	if cfg.block {
		fmt.Println("serving observability endpoint; interrupt to exit")
		waitForInterrupt()
	}
	return nil
}

// deliverWithCheckpoints waits for the first delivery. With
// -checkpoint-every it runs the budget in chunks, saving a checkpoint
// after each undelivered chunk so an interrupted run can be continued
// with -resume from at most one chunk back. The writer decides how: a
// full atomic rewrite (json/binary) or an appended delta frame.
func deliverWithCheckpoints(cfg config, swarm *waggle.Swarm, budget int, cw *waggle.CheckpointWriter) ([]waggle.Message, int, error) {
	if cfg.ckptEvery <= 0 {
		return swarm.RunUntilDelivered(1, budget)
	}
	total := 0
	for {
		chunk := cfg.ckptEvery
		if remaining := budget - total; chunk > remaining {
			chunk = remaining
		}
		msgs, steps, err := swarm.RunUntilDelivered(1, chunk)
		total += steps
		if err == nil {
			return msgs, total, nil
		}
		if !errors.Is(err, waggle.ErrNotDelivered) {
			return nil, total, err
		}
		if ckErr := cw.Save(); ckErr != nil {
			return nil, total, ckErr
		}
		if !cfg.quiet {
			kind := "snapshot"
			if cw.LastSaveWasDelta() {
				kind = fmt.Sprintf("delta +%dB, chain %d", cw.LastSaveBytes(), cw.ChainLen())
			}
			fmt.Printf("checkpoint (t=%d, %s) written to %s\n", swarm.Time(), kind, cfg.ckptPath)
		}
		if total >= budget {
			return nil, total, err
		}
	}
}

// obsCheck is `make obs-check`: run a short instrumented sim, then
// validate that the Prometheus exposition parses and the JSON snapshot
// round-trips byte-for-byte — the end-to-end health check of the obs
// pipeline, with no external dependencies.
func obsCheck() error {
	obsv := waggle.NewObserver()
	s, err := waggle.NewSwarm(
		[]waggle.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 12}, {X: 11, Y: 11}},
		waggle.WithSynchronous(), waggle.WithSeed(1), waggle.WithObserver(obsv),
	)
	if err != nil {
		return err
	}
	if err := s.Send(0, 2, []byte("OBS")); err != nil {
		return err
	}
	if _, _, err := s.RunUntilDelivered(1, 200_000); err != nil {
		return err
	}

	var exposition bytes.Buffer
	if err := obsv.WriteMetrics(&exposition); err != nil {
		return err
	}
	samples, err := obs.ValidateExposition(exposition.String())
	if err != nil {
		return fmt.Errorf("obs-check: invalid Prometheus exposition: %w", err)
	}

	var snap bytes.Buffer
	if err := obsv.WriteSnapshot(&snap, true); err != nil {
		return err
	}
	var back waggle.MetricsSnapshot
	if err := json.Unmarshal(snap.Bytes(), &back); err != nil {
		return fmt.Errorf("obs-check: snapshot does not parse: %w", err)
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		return err
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		return fmt.Errorf("obs-check: snapshot does not round-trip")
	}
	if v, ok := back.CounterValue("waggle_sim_steps_total"); !ok || v == 0 {
		return fmt.Errorf("obs-check: step counter missing or zero after a delivered run")
	}
	fmt.Printf("obs-check ok: %d samples, %d trace events, snapshot round-trips\n",
		samples, len(back.Trace))
	return nil
}

// serveIntrospection starts the observability endpoint in the
// background via the shared obs wiring (hardened timeouts, graceful
// drain on stop), returning a closer that logs any shutdown error.
func serveIntrospection(addr string, o *waggle.Observer) (func(), error) {
	stop, err := obs.StartIntrospection(addr, o.Handler(), os.Stdout)
	if err != nil {
		return nil, err
	}
	return func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "waggle-sim: %v\n", err)
		}
	}, nil
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}
