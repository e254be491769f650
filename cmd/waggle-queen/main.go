// Command waggle-queen is the distributed campaign orchestrator: it
// decomposes a chaos matrix or a parameter sweep into shards, leases
// them to workers over HTTP, steals checkpoint-migrated progress from
// dead workers, and merges the results into a report byte-identical
// to the single-process waggle-chaos / waggle-sweep run.
//
// Usage:
//
//	waggle-queen -campaign chaos -workers 4 -o report.json
//	waggle-queen -campaign sweep -names silence,drift -workers 2 -o sweep.json
//	waggle-queen -journal q.journal -campaign chaos -workers 4   # crash-restartable
//	waggle-queen -worker -join http://host:9090 -name w0         # remote worker
//	waggle-queen -listen :9090 -campaign chaos                   # serve workers + /metrics
//	waggle-queen -self-check                                     # kill/steal/restart gauntlet
//	waggle-queen -bench                                          # 1-vs-N scaling to BENCH_queen.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"waggle/internal/obs"
	"waggle/internal/queen"
)

// config carries the parsed flags.
type config struct {
	campaign  string // -campaign: chaos|sweep
	names     string // -names: comma-separated shard names (empty = all chaos scenarios)
	seed      int64
	workers   int    // -workers: local worker processes to spawn
	listen    string // -listen: queen API + observability address
	out       string // -o: merged report path
	journal   string // -journal: task-graph journal (enables restart-resume)
	leaseTTL  time.Duration
	attempts  int
	ckptEvery int

	worker bool   // -worker: run as a worker process
	join   string // -join: queen base URL for -worker
	name   string // -name: worker name
	stall  time.Duration

	selfCheck bool
	bench     bool
	benchOut  string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.campaign, "campaign", "chaos", "campaign kind: chaos|sweep")
	flag.StringVar(&cfg.names, "names", "", "comma-separated shard names (empty = every chaos scenario)")
	flag.Int64Var(&cfg.seed, "seed", 1, "campaign seed")
	flag.IntVar(&cfg.workers, "workers", 2, "local worker processes to spawn (0 = external workers only)")
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:0", "queen API and observability address")
	flag.StringVar(&cfg.out, "o", "", "write the merged report to this file")
	flag.StringVar(&cfg.journal, "journal", "", "task-graph journal path; an existing journal resumes its campaign")
	flag.DurationVar(&cfg.leaseTTL, "lease-ttl", 10*time.Second, "lease duration without a heartbeat")
	flag.IntVar(&cfg.attempts, "shard-attempts", 5, "grants of one shard before the campaign fails")
	flag.IntVar(&cfg.ckptEvery, "ckpt-every", 200, "chaos shard snapshot cadence in simulated instants")
	flag.BoolVar(&cfg.worker, "worker", false, "run as a worker process")
	flag.StringVar(&cfg.join, "join", "", "queen base URL to join (with -worker)")
	flag.StringVar(&cfg.name, "name", "", "worker name (with -worker)")
	flag.DurationVar(&cfg.stall, "stall", 0, "worker dwell after each banked snapshot (test hook)")
	flag.BoolVar(&cfg.selfCheck, "self-check", false, "run the kill/steal/restart gauntlet and exit")
	flag.BoolVar(&cfg.bench, "bench", false, "benchmark 1-vs-N workers and a worker-kill run")
	flag.StringVar(&cfg.benchOut, "bench-out", "BENCH_queen.json", "benchmark report path (with -bench)")
	flag.Parse()

	var err error
	switch {
	case cfg.worker:
		err = runWorker(cfg)
	case cfg.selfCheck:
		err = selfCheck(cfg)
	case cfg.bench:
		err = runBench(cfg)
	default:
		err = runQueen(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "waggle-queen:", err)
		os.Exit(1)
	}
}

func runWorker(cfg config) error {
	if cfg.join == "" {
		return fmt.Errorf("-worker requires -join")
	}
	return queen.RunWorker(queen.WorkerOptions{
		Base:  strings.TrimRight(cfg.join, "/"),
		Name:  cfg.name,
		Stall: cfg.stall,
	})
}

// specFrom derives the campaign spec from flags.
func specFrom(cfg config) queen.Spec {
	spec := queen.Spec{
		Kind:            cfg.campaign,
		Seed:            cfg.seed,
		CheckpointEvery: cfg.ckptEvery,
	}
	if cfg.names != "" {
		spec.Names = strings.Split(cfg.names, ",")
	}
	return spec
}

// newQueen builds (or resumes, when the journal already exists) the
// queen for cfg.
func newQueen(cfg config, ob *obs.Observer) (*queen.Queen, error) {
	opts := queen.Options{
		Spec:          specFrom(cfg),
		Journal:       cfg.journal,
		Out:           cfg.out,
		LeaseTTL:      cfg.leaseTTL,
		ShardAttempts: cfg.attempts,
	}
	if cfg.journal != "" {
		if st, err := os.Stat(cfg.journal); err == nil && st.Size() > 0 {
			fmt.Printf("resuming campaign from %s\n", cfg.journal)
			return queen.NewFromJournal(cfg.journal, opts, ob)
		}
	}
	return queen.New(opts, ob)
}

// runQueen is the coordinator path: serve the worker API, spawn local
// workers, wait for the merge.
func runQueen(cfg config) error {
	ob := obs.New(4096)
	q, err := newQueen(cfg, ob)
	if err != nil {
		return err
	}
	q.Start()
	defer q.Stop()

	mux := obs.Mux(ob)
	q.Mount(mux)
	addr, stopHTTP, err := obs.ServeWith(cfg.listen, mux, obs.ServeOptions{})
	if err != nil {
		return err
	}
	defer stopHTTP()
	base := fmt.Sprintf("http://%s", addr)
	fmt.Printf("queen serving on %s\n", base)

	procs, err := spawnWorkers(base, cfg.workers, cfg.stall)
	if err != nil {
		return err
	}
	defer reapWorkers(procs)

	<-q.Done()
	if err := q.Err(); err != nil {
		return err
	}
	printCounters(q.Counters())
	if cfg.out != "" {
		fmt.Printf("merged report written to %s (%d bytes)\n", cfg.out, len(q.Report()))
	}
	return nil
}

func printCounters(c map[string]int64) {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c[k]))
	}
	fmt.Printf("campaign complete: %s\n", strings.Join(parts, " "))
}

// workerProc is one spawned local worker.
type workerProc struct {
	name string
	cmd  *exec.Cmd
}

// spawnWorkers launches n local worker processes of this same binary
// against base.
func spawnWorkers(base string, n int, stall time.Duration) ([]*workerProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	procs := make([]*workerProc, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		args := []string{"-worker", "-join", base, "-name", name}
		if stall > 0 {
			args = append(args, "-stall", stall.String())
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			reapWorkers(procs)
			return nil, fmt.Errorf("spawn worker %s: %w", name, err)
		}
		procs = append(procs, &workerProc{name: name, cmd: cmd})
	}
	return procs, nil
}

// reapWorkers waits briefly for workers to exit on their own (they do,
// once the campaign is done) and kills stragglers.
func reapWorkers(procs []*workerProc) {
	done := make(chan struct{})
	go func() {
		for _, p := range procs {
			p.cmd.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		for _, p := range procs {
			if p.cmd.Process != nil {
				p.cmd.Process.Kill()
			}
		}
		<-done
	}
}
