// Package queen is the distributed sweep/chaos orchestrator: a
// coordinator that decomposes a campaign into shards (one scenario or
// experiment each), leases them to workers over HTTP, and merges the
// completed results into the canonical single-process report —
// byte-identical to what waggle-sweep/waggle-chaos -o write, whatever
// the worker count, completion order, or mid-campaign failures.
//
// The fault model is the paper's, lifted one level up: workers are
// deaf and dumb too. They never talk to each other; a worker may die
// silently at any instant, and the queen only learns of it by watching
// state it can observe — the lease heartbeat going quiet. Progress
// migrates the way robot state does: through durable observable
// artifacts (checkpoint-chain shard snapshots), so a stolen shard
// resumes exactly where the dead worker left it and still produces the
// canonical bytes. The queen itself is restartable from a journal of
// the task graph, making every party in the protocol crash-tolerant.
package queen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"waggle/internal/ckpt"
	"waggle/internal/obs"
	"waggle/internal/retry"
	"waggle/internal/sweep"
)

// Spec is the campaign definition: what to run and how to shard it.
// It is journaled verbatim, so a restarted queen re-derives the exact
// task graph.
type Spec struct {
	// Kind selects the harness: "chaos" (scenario matrix) or "sweep"
	// (experiment tables).
	Kind string `json:"kind"`
	// Seed keys chaos scenario generation and the merged report.
	Seed int64 `json:"seed"`
	// Names lists the shards. Empty selects every chaos scenario;
	// sweep campaigns must name their experiments.
	Names []string `json:"names,omitempty"`
	// CheckpointEvery is the chaos shard snapshot cadence in simulated
	// instants (default 200): smaller values migrate more progress on a
	// steal at the cost of more chain appends.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// shardState is one node of the task graph.
type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

func (s shardState) String() string {
	switch s {
	case shardLeased:
		return "leased"
	case shardDone:
		return "done"
	default:
		return "pending"
	}
}

// shard is the queen-side state of one unit of work.
type shard struct {
	name     string
	state    shardState
	attempts int // grants so far (first dispatch included)
	token    string
	worker   string
	leasedAt time.Time
	deadline time.Time
	// notBefore delays re-dispatch of a requeued shard (jittered
	// capped backoff).
	notBefore time.Time
	// snapshot is the latest migratable progress uploaded by a
	// heartbeat; a subsequent lease of this shard hands it over.
	snapshot  []byte
	snapshotT int
	result    json.RawMessage
}

// Options configures a Queen.
type Options struct {
	Spec Spec
	// Journal is the task-graph journal path; empty disables
	// journaling (and restart-resume).
	Journal string
	// Out is where the merged report is atomically written on
	// completion; empty keeps it in memory only (see Report).
	Out string
	// LeaseTTL is how long a lease survives without a heartbeat
	// (default 10s).
	LeaseTTL time.Duration
	// ShardAttempts caps how many times one shard may be granted
	// before the campaign fails (default 5).
	ShardAttempts int
	// Requeue shapes the jittered backoff between a shard failing (or
	// its lease expiring) and its next grant.
	Requeue retry.Policy
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.ShardAttempts <= 0 {
		o.ShardAttempts = 5
	}
	if o.Spec.CheckpointEvery <= 0 {
		o.Spec.CheckpointEvery = 200
	}
	return o
}

// Queen coordinates one campaign.
type Queen struct {
	opts Options

	mu       sync.Mutex
	shards   map[string]*shard
	order    []string
	tokenSeq int
	rng      *rand.Rand
	workers  map[string]bool
	finished bool
	failure  error
	report   []byte
	jw       *journalWriter

	m metrics

	doneCh chan struct{}
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// New builds a queen for the campaign in opts. ob receives the queen's
// instrumentation (nil allocates a private observer). Call Start to
// arm the lease reaper and Mount to expose the worker API.
func New(opts Options, ob *obs.Observer) (*Queen, error) {
	opts = opts.withDefaults()
	names, err := shardNames(opts.Spec)
	if err != nil {
		return nil, err
	}
	if ob == nil {
		ob = obs.New(16)
	}
	q := &Queen{
		opts:    opts,
		shards:  map[string]*shard{},
		order:   names,
		rng:     rand.New(rand.NewSource(opts.Spec.Seed ^ 0x5eed)),
		workers: map[string]bool{},
		m:       newMetrics(ob.Registry()),
		doneCh:  make(chan struct{}),
		stopCh:  make(chan struct{}),
	}
	for _, n := range names {
		q.shards[n] = &shard{name: n}
	}
	if opts.Journal != "" {
		jw, err := openJournal(opts.Journal, opts.Spec)
		if err != nil {
			return nil, err
		}
		q.jw = jw
	}
	q.syncGauges()
	return q, nil
}

// NewFromJournal rebuilds a queen from a journal written by a previous
// run: the spec is adopted from the journal's campaign record, every
// journaled shard result is seated as done, and the campaign continues
// from there (in-flight leases of the dead queen are simply pending
// again — leases are volatile by design). opts.Spec is ignored except
// as a cross-check: when its Kind is set, it must match the journal.
func NewFromJournal(path string, opts Options, ob *obs.Observer) (*Queen, error) {
	rec, err := readJournal(path)
	if err != nil {
		return nil, err
	}
	if opts.Spec.Kind != "" && !specEqual(opts.Spec, rec.spec) {
		return nil, fmt.Errorf("queen: journal %s holds a different campaign (kind %q seed %d) than requested",
			path, rec.spec.Kind, rec.spec.Seed)
	}
	opts.Spec = rec.spec
	opts.Journal = path
	q, err := New(opts, ob)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	for name, result := range rec.results {
		sh, ok := q.shards[name]
		if !ok {
			q.mu.Unlock()
			q.Stop()
			return nil, fmt.Errorf("queen: journal %s holds a result for unknown shard %q", path, name)
		}
		sh.state = shardDone
		sh.result = result
		q.m.Completed.Inc()
	}
	q.syncGauges()
	allDone := q.allDoneLocked()
	q.mu.Unlock()
	if allDone {
		if err := q.finish(); err != nil {
			q.Stop()
			return nil, err
		}
	}
	return q, nil
}

func specEqual(a, b Spec) bool {
	return a.Kind == b.Kind && a.Seed == b.Seed
}

// shardNames derives and validates the campaign's shard list.
func shardNames(spec Spec) ([]string, error) {
	switch spec.Kind {
	case "chaos":
		all := sweep.ChaosScenarioNames(spec.Seed)
		if len(spec.Names) == 0 {
			return all, nil
		}
		valid := map[string]bool{}
		for _, n := range all {
			valid[n] = true
		}
		seen := map[string]bool{}
		for _, n := range spec.Names {
			if !valid[n] {
				return nil, fmt.Errorf("queen: unknown chaos scenario %q", n)
			}
			if seen[n] {
				return nil, fmt.Errorf("queen: duplicate shard %q", n)
			}
			seen[n] = true
		}
		return spec.Names, nil
	case "sweep":
		if len(spec.Names) == 0 {
			return nil, fmt.Errorf("queen: sweep campaigns must name their experiments")
		}
		seen := map[string]bool{}
		for _, n := range spec.Names {
			if seen[n] {
				return nil, fmt.Errorf("queen: duplicate shard %q", n)
			}
			seen[n] = true
		}
		return spec.Names, nil
	default:
		return nil, fmt.Errorf("queen: unknown campaign kind %q (chaos|sweep)", spec.Kind)
	}
}

// Start arms the lease reaper. Safe to call once.
func (q *Queen) Start() {
	q.wg.Add(1)
	go q.reap()
}

// Stop halts the reaper and closes the journal. The campaign state is
// left as-is; a journaled campaign can be resumed with NewFromJournal.
func (q *Queen) Stop() {
	q.mu.Lock()
	select {
	case <-q.stopCh:
	default:
		close(q.stopCh)
	}
	jw := q.jw
	q.jw = nil
	q.mu.Unlock()
	q.wg.Wait()
	if jw != nil {
		jw.close()
	}
}

// Done is closed when every shard has completed and the merged report
// has been written.
func (q *Queen) Done() <-chan struct{} { return q.doneCh }

// Err reports the terminal campaign failure, if any.
func (q *Queen) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.failure
}

// Report returns the merged report bytes (nil until Done).
func (q *Queen) Report() []byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.report
}

// Counters snapshots the campaign counters by short name — what the
// CLI prints and the self-check asserts on.
func (q *Queen) Counters() map[string]int64 {
	return map[string]int64{
		"dispatched":    q.m.Dispatched.Value(),
		"retried":       q.m.Retried.Value(),
		"stolen":        q.m.Stolen.Value(),
		"completed":     q.m.Completed.Value(),
		"failed":        q.m.Failed.Value(),
		"lease_expired": q.m.LeaseExpired.Value(),
		"snapshots":     q.m.Snapshots.Value(),
	}
}

// reap scans for expired leases at TTL/8 granularity: an expired lease
// means a worker died (or wedged) mid-shard, so the shard — with its
// last uploaded snapshot — goes back in the queue for another worker
// to steal.
func (q *Queen) reap() {
	defer q.wg.Done()
	tick := q.opts.LeaseTTL / 8
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-q.stopCh:
			return
		case now := <-t.C:
			q.expireLeases(now)
		}
	}
}

func (q *Queen) expireLeases(now time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, name := range q.order {
		sh := q.shards[name]
		if sh.state == shardLeased && now.After(sh.deadline) {
			q.m.LeaseExpired.Inc()
			q.requeueLocked(sh, fmt.Errorf("queen: shard %q lease expired on worker %q", sh.name, sh.worker))
		}
	}
	q.syncGauges()
}

// requeueLocked returns a shard to the pending queue with backoff, or
// fails the campaign when its attempts are exhausted.
func (q *Queen) requeueLocked(sh *shard, cause error) {
	sh.state = shardPending
	sh.token = ""
	sh.worker = ""
	if sh.attempts >= q.opts.ShardAttempts {
		q.failLocked(fmt.Errorf("queen: shard %q exhausted %d attempts: %w", sh.name, sh.attempts, cause))
		return
	}
	sh.notBefore = time.Now().Add(q.opts.Requeue.JitteredDelay(q.rng, sh.attempts-1))
}

// failLocked records the terminal campaign failure and releases
// waiters.
func (q *Queen) failLocked(err error) {
	if q.finished {
		return
	}
	q.finished = true
	q.failure = err
	close(q.doneCh)
}

// lease grants the next runnable shard to worker. The bool reports
// whether the campaign is complete; a zero wait means a grant was
// made, and a positive wait asks the worker to come back later.
func (q *Queen) lease(worker string) (grant *LeaseResponse, wait time.Duration, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.finished {
		if q.failure != nil {
			return nil, 0, q.failure
		}
		return &LeaseResponse{Done: true}, 0, nil
	}
	if !q.workers[worker] {
		q.workers[worker] = true
		q.m.Workers.Set(float64(len(q.workers)))
	}
	now := time.Now()
	var soonest time.Duration
	for _, name := range q.order {
		sh := q.shards[name]
		if sh.state != shardPending {
			continue
		}
		if d := sh.notBefore.Sub(now); d > 0 {
			if soonest == 0 || d < soonest {
				soonest = d
			}
			continue
		}
		q.tokenSeq++
		sh.state = shardLeased
		sh.token = fmt.Sprintf("%s#%d", worker, q.tokenSeq)
		sh.worker = worker
		sh.leasedAt = now
		sh.deadline = now.Add(q.opts.LeaseTTL)
		sh.attempts++
		q.m.Dispatched.Inc()
		if sh.attempts > 1 {
			q.m.Retried.Inc()
		}
		if len(sh.snapshot) > 0 {
			q.m.Stolen.Inc()
		}
		q.syncGauges()
		return &LeaseResponse{
			Name:            sh.name,
			Token:           sh.token,
			Kind:            q.opts.Spec.Kind,
			Seed:            q.opts.Spec.Seed,
			CheckpointEvery: q.opts.Spec.CheckpointEvery,
			TTLMillis:       q.opts.LeaseTTL.Milliseconds(),
			Snapshot:        sh.snapshot,
		}, 0, nil
	}
	if soonest <= 0 {
		// Everything is leased out: poll again after a fraction of the
		// TTL — sooner than that and nothing can have changed.
		soonest = q.opts.LeaseTTL / 4
	}
	return nil, soonest, nil
}

// heartbeat extends a lease and optionally banks migratable progress.
// A false return means the caller no longer holds the shard (expired
// and re-granted, or completed elsewhere) and must abandon it.
func (q *Queen) heartbeat(name, token string, t int, snapshot []byte) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	sh, ok := q.shards[name]
	if !ok || sh.state != shardLeased || sh.token != token {
		return false
	}
	sh.deadline = time.Now().Add(q.opts.LeaseTTL)
	if len(snapshot) > 0 {
		sh.snapshot = snapshot
		sh.snapshotT = t
		q.m.Snapshots.Inc()
		q.m.SnapshotBytes.Add(int64(len(snapshot)))
	}
	return true
}

// complete accepts a finished shard's result. Deliberately token-blind
// for open shards: results are deterministic, so a result from a
// stale lease is byte-for-byte the result the current lease would
// produce — accepting it early is RoboCast's retry-until-acknowledged
// discipline, not a race. Duplicate completion is idempotent.
func (q *Queen) complete(name string, result json.RawMessage) error {
	q.mu.Lock()
	sh, ok := q.shards[name]
	if !ok {
		q.mu.Unlock()
		return fmt.Errorf("queen: unknown shard %q", name)
	}
	if sh.state == shardDone {
		q.mu.Unlock()
		return nil
	}
	if q.finished {
		q.mu.Unlock()
		return fmt.Errorf("queen: campaign already failed")
	}
	worker, leasedAt := sh.worker, sh.leasedAt
	sh.state = shardDone
	sh.result = result
	sh.snapshot = nil
	sh.token = ""
	q.m.Completed.Inc()
	if worker != "" && !leasedAt.IsZero() {
		q.m.ShardSeconds.Observe(time.Since(leasedAt).Seconds())
	}
	jw := q.jw
	q.syncGauges()
	allDone := q.allDoneLocked()
	q.mu.Unlock()

	if jw != nil {
		if err := jw.appendDone(name, result); err != nil {
			return err
		}
	}
	if allDone {
		return q.finish()
	}
	return nil
}

// fail requeues a shard after a worker-reported failure.
func (q *Queen) fail(name, token, cause string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	sh, ok := q.shards[name]
	if !ok {
		return fmt.Errorf("queen: unknown shard %q", name)
	}
	if sh.state != shardLeased || sh.token != token {
		return nil // stale failure report; the reaper already moved on
	}
	q.m.Failed.Inc()
	q.requeueLocked(sh, fmt.Errorf("worker %q: %s", sh.worker, cause))
	q.syncGauges()
	return nil
}

func (q *Queen) allDoneLocked() bool {
	for _, sh := range q.shards {
		if sh.state != shardDone {
			return false
		}
	}
	return true
}

// finish merges the completed shards into the canonical report, writes
// it atomically, journals the merge, and releases waiters.
func (q *Queen) finish() error {
	report, err := q.buildReport()
	if err == nil && q.opts.Out != "" {
		err = ckpt.WriteFileAtomic(q.opts.Out, report)
	}
	q.mu.Lock()
	if q.finished {
		q.mu.Unlock()
		return q.failure
	}
	jw := q.jw
	q.finished = true
	if err != nil {
		q.failure = err
	} else {
		q.report = report
	}
	close(q.doneCh)
	q.mu.Unlock()
	if err == nil && jw != nil {
		return jw.appendMerged()
	}
	return err
}

// buildReport assembles the merged report bytes exactly as the
// single-process CLIs write them.
func (q *Queen) buildReport() ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var buf bytes.Buffer
	switch q.opts.Spec.Kind {
	case "chaos":
		results := map[string]sweep.ChaosResult{}
		for name, sh := range q.shards {
			var r sweep.ChaosResult
			if err := json.Unmarshal(sh.result, &r); err != nil {
				return nil, fmt.Errorf("queen: shard %q result: %w", name, err)
			}
			results[name] = r
		}
		names := q.opts.Spec.Names
		if len(names) == 0 {
			names = nil
		}
		report, err := sweep.MergeChaosReport(q.opts.Spec.Seed, names, results)
		if err != nil {
			return nil, err
		}
		if err := report.WriteJSON(&buf); err != nil {
			return nil, err
		}
	case "sweep":
		tables := map[string]sweep.TableReport{}
		for name, sh := range q.shards {
			var t sweep.TableReport
			if err := json.Unmarshal(sh.result, &t); err != nil {
				return nil, fmt.Errorf("queen: shard %q result: %w", name, err)
			}
			tables[name] = t
		}
		report, err := sweep.MergeSweepReport(q.opts.Spec.Names, tables)
		if err != nil {
			return nil, err
		}
		if err := report.WriteJSON(&buf); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("queen: unknown campaign kind %q", q.opts.Spec.Kind)
	}
	return buf.Bytes(), nil
}

// status snapshots the task graph for /queen/v1/status.
func (q *Queen) status() StatusResponse {
	q.mu.Lock()
	defer q.mu.Unlock()
	resp := StatusResponse{
		Kind:   q.opts.Spec.Kind,
		Seed:   q.opts.Spec.Seed,
		Done:   q.finished && q.failure == nil,
		Merged: q.report != nil,
	}
	if q.failure != nil {
		resp.Error = q.failure.Error()
	}
	for _, name := range q.order {
		sh := q.shards[name]
		resp.Shards = append(resp.Shards, ShardStatus{
			Name:        sh.name,
			State:       sh.state.String(),
			Worker:      sh.worker,
			Attempts:    sh.attempts,
			HasSnapshot: len(sh.snapshot) > 0,
			SnapshotT:   sh.snapshotT,
		})
		switch sh.state {
		case shardPending:
			resp.Pending++
		case shardLeased:
			resp.Leased++
		case shardDone:
			resp.Completed++
		}
	}
	workers := make([]string, 0, len(q.workers))
	for w := range q.workers {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	resp.Workers = workers
	return resp
}

func (q *Queen) syncGauges() {
	var pending, leased, done float64
	for _, sh := range q.shards {
		switch sh.state {
		case shardPending:
			pending++
		case shardLeased:
			leased++
		case shardDone:
			done++
		}
	}
	q.m.Pending.Set(pending)
	q.m.Leased.Set(leased)
	q.m.DoneShards.Set(done)
}
