package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"waggle/internal/obs"
	"waggle/internal/queen"
	"waggle/internal/sweep"
)

// selfCheck is the orchestrator gauntlet the Makefile gates on: the
// full chaos matrix under 4 workers, with one worker SIGKILLed while
// it holds a shard with banked progress (forcing a lease expiry and a
// checkpoint-migrating steal) and the queen itself killed and
// restarted from its journal mid-campaign — and the merged report
// must still be byte-identical (sha256-compared) to the
// single-process waggle-chaos run.
func selfCheck(cfg config) error {
	ref, err := referenceReport(cfg.seed)
	if err != nil {
		return err
	}
	fmt.Printf("self-check: single-process reference %s (%d bytes)\n", digest(ref), len(ref))

	res, err := runDistributed(distOpts{
		spec:    queen.Spec{Kind: "chaos", Seed: cfg.seed, CheckpointEvery: 80},
		workers: 4,
		stall:   150 * time.Millisecond,
		ttl:     1500 * time.Millisecond,
		kill:    true,
		restart: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("self-check: distributed report    %s (%d bytes) in %.1fs; killed %s; counters %v\n",
		digest(res.report), len(res.report), res.elapsed.Seconds(), res.killed, res.counters)
	if !bytes.Equal(res.report, ref) {
		return fmt.Errorf("self-check: merged report diverges from the single-process run (%s vs %s)",
			digest(res.report), digest(ref))
	}
	if res.counters["lease_expired"] < 1 {
		return fmt.Errorf("self-check: SIGKILL did not surface as a lease expiry")
	}
	if res.counters["stolen"] < 1 {
		return fmt.Errorf("self-check: no shard was stolen with migrated progress")
	}
	fmt.Println("self-check ok: kill + steal + queen restart, merged report byte-identical")
	return nil
}

// referenceReport renders the single-process chaos report for the full
// matrix — the oracle every distributed run is compared against.
func referenceReport(seed int64) ([]byte, error) {
	report, err := sweep.ChaosReportFor("", seed, nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	return fmt.Sprintf("sha256:%x", sha256.Sum256(b))[:23]
}

// distOpts shapes one distributed campaign run.
type distOpts struct {
	spec    queen.Spec
	workers int
	stall   time.Duration
	ttl     time.Duration
	kill    bool // SIGKILL one worker once it banks a snapshot
	restart bool // restart the queen from its journal after the steal
}

// distResult is what a distributed run yields.
type distResult struct {
	elapsed  time.Duration
	report   []byte
	counters map[string]int64
	killed   string
}

// runDistributed stands up a queen on a loopback port, spawns local
// worker processes, optionally injects a worker SIGKILL and a queen
// restart, and waits for the merged report.
func runDistributed(o distOpts) (*distResult, error) {
	dir, err := os.MkdirTemp("", "waggle-queen-check-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "queen.journal")
	out := filepath.Join(dir, "report.json")

	opts := queen.Options{
		Spec:     o.spec,
		Journal:  journal,
		Out:      out,
		LeaseTTL: o.ttl,
	}
	ob := obs.New(1024)
	q, err := queen.New(opts, ob)
	if err != nil {
		return nil, err
	}
	q.Start()
	mux := obs.Mux(ob)
	q.Mount(mux)
	addr, stopHTTP, err := obs.ServeWith("127.0.0.1:0", mux, obs.ServeOptions{})
	if err != nil {
		q.Stop()
		return nil, err
	}
	base := fmt.Sprintf("http://%s", addr)
	start := time.Now()

	procs, err := spawnWorkers(base, o.workers, o.stall)
	if err != nil {
		stopHTTP()
		q.Stop()
		return nil, err
	}
	defer reapWorkers(procs)

	res := &distResult{counters: map[string]int64{}}
	deadline := time.Now().Add(4 * time.Minute)

	if o.kill {
		victim, err := killSnapshottedWorker(base, procs, deadline)
		if err != nil {
			stopHTTP()
			q.Stop()
			return nil, err
		}
		res.killed = victim
		// Wait for the death to be observed (lease expiry) and the
		// shard re-granted with the dead worker's progress (steal).
		if err := waitCounters(q, deadline, "lease_expired", "stolen"); err != nil {
			stopHTTP()
			q.Stop()
			return nil, err
		}
	}

	if o.restart {
		// Kill the queen mid-campaign: drop the listener, discard the
		// in-memory task graph, and rebuild from the journal on the
		// same address. Workers ride it out on their retry policies.
		for k, v := range q.Counters() {
			res.counters[k] += v
		}
		stopHTTP()
		q.Stop()
		ob = obs.New(1024)
		q, err = queen.NewFromJournal(journal, queen.Options{Out: out, LeaseTTL: o.ttl}, ob)
		if err != nil {
			return nil, err
		}
		q.Start()
		mux = obs.Mux(ob)
		q.Mount(mux)
		_, stopHTTP, err = obs.ServeWith(addr.String(), mux, obs.ServeOptions{})
		if err != nil {
			q.Stop()
			return nil, fmt.Errorf("rebind %s after queen restart: %w", addr, err)
		}
	}

	select {
	case <-q.Done():
	case <-time.After(time.Until(deadline)):
		stopHTTP()
		q.Stop()
		return nil, fmt.Errorf("campaign did not finish within the deadline")
	}
	res.elapsed = time.Since(start)
	// Drain workers before dropping the endpoint: each exits cleanly on
	// its next lease (done:true) instead of burning its retry budget
	// against a dead port.
	reapWorkers(procs)
	stopHTTP()
	defer q.Stop()
	if err := q.Err(); err != nil {
		return nil, err
	}
	for k, v := range q.Counters() {
		res.counters[k] += v
	}
	res.report = append([]byte(nil), q.Report()...)
	return res, nil
}

// killSnapshottedWorker polls the status endpoint until some worker
// holds a lease with banked progress, then SIGKILLs that worker's
// process — mid-shard by construction.
func killSnapshottedWorker(base string, procs []*workerProc, deadline time.Time) (string, error) {
	byName := map[string]*workerProc{}
	for _, p := range procs {
		byName[p.name] = p
	}
	for time.Now().Before(deadline) {
		st, err := statusOf(base)
		if err == nil {
			for _, sh := range st.Shards {
				if sh.State == "leased" && sh.HasSnapshot {
					p, ok := byName[sh.Worker]
					if !ok {
						continue
					}
					if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
						return "", fmt.Errorf("SIGKILL %s: %w", sh.Worker, err)
					}
					return sh.Worker, nil
				}
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return "", fmt.Errorf("no worker banked a snapshot before the deadline")
}

// waitCounters blocks until every named campaign counter is nonzero.
func waitCounters(q *queen.Queen, deadline time.Time, names ...string) error {
	for time.Now().Before(deadline) {
		c := q.Counters()
		ok := true
		for _, n := range names {
			if c[n] < 1 {
				ok = false
			}
		}
		if ok {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("counters %v did not fire before the deadline: %v", names, q.Counters())
}

func statusOf(base string) (*queen.StatusResponse, error) {
	resp, err := http.Get(base + "/queen/v1/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st queen.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
