package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"waggle/internal/ckpt"
	"waggle/internal/queen"
	"waggle/internal/sweep"
)

// benchReport is the committed BENCH_queen.json shape: 1-vs-4-worker
// wall time on the full chaos matrix and on a sweep campaign, plus a
// kill run proving fault tolerance costs correctness nothing. The two
// scaling groups bracket the orchestrator's regime: chaos shards are
// milliseconds each, so dispatch overhead dominates and distribution
// roughly breaks even; sweep experiments are heavy enough that the
// campaign tracks its critical path instead of its total work.
type benchReport struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	// CPUs is the host's logical CPU count: on a single-CPU host the
	// worker processes time-share and speedup necessarily pins near
	// 1.0 — read the scaling numbers against this.
	CPUs         int        `json:"cpus"`
	ChaosRuns    []benchRun `json:"chaos_runs"`
	ChaosSpeedup float64    `json:"chaos_speedup"`
	SweepNames   []string   `json:"sweep_names"`
	SweepRuns    []benchRun `json:"sweep_runs"`
	SweepSpeedup float64    `json:"sweep_speedup"`
	Kill         benchKill  `json:"kill"`
}

// benchRun is one clean campaign.
type benchRun struct {
	Workers         int     `json:"workers"`
	Shards          int     `json:"shards"`
	Seconds         float64 `json:"seconds"`
	ReportIdentical bool    `json:"report_identical"`
}

// benchKill is the fault-injected chaos campaign: one worker
// SIGKILLed mid-shard, its progress stolen by a peer.
type benchKill struct {
	Workers         int     `json:"workers"`
	KilledWorker    string  `json:"killed_worker"`
	Seconds         float64 `json:"seconds"`
	LeaseExpired    int64   `json:"lease_expired"`
	Stolen          int64   `json:"stolen"`
	ReportIdentical bool    `json:"report_identical"`
}

const benchSchema = "waggle-bench-queen/v2"

// benchSweepNames are medium-weight experiments (the second-scale
// ones; "resolution" alone takes ~50s and would reduce any scaling
// measurement to its own runtime).
var benchSweepNames = []string{"slices", "visibility", "latency", "msgsize", "levels", "onetoall", "throughput", "silence"}

// runBench measures the scaling groups and the kill run, verifying
// every merged report against the single-process oracle, and writes
// the results to -bench-out.
func runBench(cfg config) error {
	chaosRef, err := referenceReport(cfg.seed)
	if err != nil {
		return err
	}
	sweepRef, err := sweepReference(benchSweepNames)
	if err != nil {
		return err
	}
	report := benchReport{
		Schema:     benchSchema,
		Seed:       cfg.seed,
		CPUs:       runtime.NumCPU(),
		SweepNames: benchSweepNames,
	}

	chaosSpec := queen.Spec{Kind: "chaos", Seed: cfg.seed, CheckpointEvery: 400}
	report.ChaosRuns, err = benchScaling("chaos", chaosSpec, len(sweep.ChaosScenarioNames(cfg.seed)), chaosRef)
	if err != nil {
		return err
	}
	report.ChaosSpeedup = round3(report.ChaosRuns[0].Seconds / report.ChaosRuns[1].Seconds)

	sweepSpec := queen.Spec{Kind: "sweep", Names: benchSweepNames}
	report.SweepRuns, err = benchScaling("sweep", sweepSpec, len(benchSweepNames), sweepRef)
	if err != nil {
		return err
	}
	report.SweepSpeedup = round3(report.SweepRuns[0].Seconds / report.SweepRuns[1].Seconds)

	kill, err := runDistributed(distOpts{
		spec:    queen.Spec{Kind: "chaos", Seed: cfg.seed, CheckpointEvery: 80},
		workers: 4,
		stall:   100 * time.Millisecond,
		ttl:     1500 * time.Millisecond,
		kill:    true,
	})
	if err != nil {
		return fmt.Errorf("bench kill run: %w", err)
	}
	identical := bytes.Equal(kill.report, chaosRef)
	report.Kill = benchKill{
		Workers:         4,
		KilledWorker:    kill.killed,
		Seconds:         round3(kill.elapsed.Seconds()),
		LeaseExpired:    kill.counters["lease_expired"],
		Stolen:          kill.counters["stolen"],
		ReportIdentical: identical,
	}
	fmt.Printf("bench: kill run %.2fs killed=%s lease_expired=%d stolen=%d identical=%v\n",
		kill.elapsed.Seconds(), kill.killed, report.Kill.LeaseExpired, report.Kill.Stolen, identical)
	if !identical {
		return fmt.Errorf("bench kill run: merged report diverges from the single-process run")
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := ckpt.WriteFileAtomic(cfg.benchOut, append(data, '\n')); err != nil {
		return err
	}
	fmt.Printf("bench report written to %s\n", cfg.benchOut)
	return nil
}

// benchScaling runs one campaign under 1 and 4 workers, checking each
// merged report against ref.
func benchScaling(label string, spec queen.Spec, shards int, ref []byte) ([]benchRun, error) {
	var runs []benchRun
	for _, workers := range []int{1, 4} {
		res, err := runDistributed(distOpts{spec: spec, workers: workers, ttl: 30 * time.Second})
		if err != nil {
			return nil, fmt.Errorf("bench %s %d workers: %w", label, workers, err)
		}
		identical := bytes.Equal(res.report, ref)
		runs = append(runs, benchRun{
			Workers:         workers,
			Shards:          shards,
			Seconds:         round3(res.elapsed.Seconds()),
			ReportIdentical: identical,
		})
		fmt.Printf("bench: %s %d worker(s) %.2fs identical=%v\n", label, workers, res.elapsed.Seconds(), identical)
		if !identical {
			return nil, fmt.Errorf("bench %s %d workers: merged report diverges from the single-process run", label, workers)
		}
	}
	return runs, nil
}

// sweepReference renders the single-process sweep report for names.
func sweepReference(names []string) ([]byte, error) {
	ref := sweep.NewSweepReport()
	for _, n := range names {
		tbl, err := sweep.Run(n)
		if err != nil {
			return nil, err
		}
		ref.Add(n, tbl)
	}
	var buf bytes.Buffer
	if err := ref.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func round3(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }
