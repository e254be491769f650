package queen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"waggle/internal/retry"
	"waggle/internal/sweep"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Base is the queen's base URL (http://host:port).
	Base string
	// Name identifies this worker in leases and metrics.
	Name string
	// Stall inserts a dwell after each banked snapshot — a test hook
	// that widens the window in which killing the worker leaves
	// migratable progress behind. Zero in production.
	Stall time.Duration
	// Dir holds the worker's scratch checkpoint chains (default: a
	// fresh temp dir, removed on return).
	Dir string
	// Client overrides the HTTP client (default 30s timeout).
	Client *http.Client
}

// leasePolicy covers the two ways a lease call legitimately stalls: an
// idle queen (503 + Retry-After, hinted) and a queen mid-restart
// (connection refused). Generous attempts with a tight cap bound the
// total idle wait without giving up during a normal restart window.
var leasePolicy = retry.Policy{MaxAttempts: 300, Base: 25 * time.Millisecond, Cap: 500 * time.Millisecond}

// finishPolicy covers complete/fail delivery: the result of a finished
// shard must not be lost to a transient network error or a queen
// restart, so retry hard before surfacing an error.
var finishPolicy = retry.Policy{MaxAttempts: 30, Base: 50 * time.Millisecond, Cap: time.Second}

// RunWorker joins the queen at opts.Base and executes shards until the
// campaign is done: lease, drive in checkpoint-cadence chunks,
// heartbeat each chunk with a banked snapshot, complete. A 409 from a
// heartbeat means the lease was lost (this worker was presumed dead
// and the shard stolen) — the shard is abandoned and the loop leases
// anew. Worker processes never address each other: the queen's banked
// snapshots are the only channel between them.
func RunWorker(opts WorkerOptions) error {
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.Dir == "" {
		dir, err := os.MkdirTemp("", "waggle-queen-worker-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.Dir = dir
	}
	w := &worker{opts: opts}
	for {
		lr, err := w.lease()
		if err != nil {
			return err
		}
		if lr.Done {
			return nil
		}
		if err := w.runShard(lr); err != nil {
			return err
		}
	}
}

type worker struct {
	opts WorkerOptions
}

// lease claims the next shard, sleeping through idle 503s and queen
// restarts.
func (w *worker) lease() (*LeaseResponse, error) {
	var lr LeaseResponse
	err := retry.Do(leasePolicy, int64(os.Getpid()), nil, func(int) error {
		return w.post("/queen/v1/lease", LeaseRequest{Worker: w.opts.Name}, &lr)
	})
	if err != nil {
		return nil, fmt.Errorf("queen worker %s: lease: %w", w.opts.Name, err)
	}
	return &lr, nil
}

// runShard executes one granted shard to completion or abandonment.
func (w *worker) runShard(lr *LeaseResponse) error {
	switch lr.Kind {
	case "chaos":
		return w.runChaosShard(lr)
	case "sweep":
		return w.runSweepShard(lr)
	default:
		return w.fail(lr, fmt.Sprintf("unknown shard kind %q", lr.Kind))
	}
}

// runChaosShard drives one scenario in CheckpointEvery-instant chunks,
// banking a migratable snapshot with each heartbeat.
func (w *worker) runChaosShard(lr *LeaseResponse) error {
	sc, err := sweep.FindChaosScenario(lr.Name, lr.Seed)
	if err != nil {
		return w.fail(lr, err.Error())
	}
	var run *sweep.ChaosShardRun
	if len(lr.Snapshot) > 0 {
		run, err = sweep.ResumeChaosShardRun(sc, lr.Snapshot)
	} else {
		run, err = sweep.NewChaosShardRun(sc)
	}
	if err != nil {
		return w.fail(lr, err.Error())
	}
	chain := filepath.Join(w.opts.Dir, fmt.Sprintf("%s-%s.wck", fileSafe(lr.Name), fileSafe(lr.Token)))
	defer os.Remove(chain)
	every := lr.CheckpointEvery
	if every <= 0 {
		every = 200
	}
	for !run.Finished() {
		if err := run.DriveTo(run.T() + every); err != nil {
			return w.fail(lr, err.Error())
		}
		if run.Finished() {
			break
		}
		snap, err := run.Snapshot(chain)
		if err != nil {
			return w.fail(lr, err.Error())
		}
		held, err := w.heartbeat(lr, run.T(), snap)
		if err != nil {
			return err
		}
		if !held {
			return nil // stolen: abandon and lease anew
		}
		if w.opts.Stall > 0 {
			time.Sleep(w.opts.Stall)
		}
	}
	res, err := run.Result()
	if err != nil {
		return w.fail(lr, err.Error())
	}
	return w.complete(lr, res)
}

// runSweepShard runs one experiment table.
func (w *worker) runSweepShard(lr *LeaseResponse) error {
	tbl, err := sweep.Run(lr.Name)
	if err != nil {
		return w.fail(lr, err.Error())
	}
	return w.complete(lr, sweep.NewTableReport(lr.Name, tbl))
}

// heartbeat extends the lease and banks snap. A false return without
// error means the lease was lost.
func (w *worker) heartbeat(lr *LeaseResponse, t int, snap []byte) (bool, error) {
	err := w.post("/queen/v1/heartbeat", HeartbeatRequest{
		Worker: w.opts.Name, Name: lr.Name, Token: lr.Token, T: t, Snapshot: snap,
	}, nil)
	if err == nil {
		return true, nil
	}
	var se *statusError
	if asStatusError(err, &se) && se.code == http.StatusConflict {
		return false, nil
	}
	// A missed heartbeat is not fatal by itself — the next one (or the
	// reaper) resolves it.
	return true, nil
}

// complete delivers the shard result, retrying through queen restarts.
func (w *worker) complete(lr *LeaseResponse, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return err
	}
	err = retry.Do(finishPolicy, int64(os.Getpid()), nil, func(int) error {
		return w.post("/queen/v1/complete", CompleteRequest{
			Worker: w.opts.Name, Name: lr.Name, Token: lr.Token, Result: raw,
		}, nil)
	})
	if err != nil {
		return fmt.Errorf("queen worker %s: complete %s: %w", w.opts.Name, lr.Name, err)
	}
	return nil
}

// fail reports a shard failure and keeps the worker alive — the queen
// decides whether to retry the shard or fail the campaign.
func (w *worker) fail(lr *LeaseResponse, cause string) error {
	err := retry.Do(finishPolicy, int64(os.Getpid()), nil, func(int) error {
		return w.post("/queen/v1/fail", FailRequest{
			Worker: w.opts.Name, Name: lr.Name, Token: lr.Token, Error: cause,
		}, nil)
	})
	if err != nil {
		return fmt.Errorf("queen worker %s: fail %s: %w", w.opts.Name, lr.Name, err)
	}
	return nil
}

// statusError carries an HTTP status through the retry classification.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func asStatusError(err error, out **statusError) bool {
	for err != nil {
		if se, ok := err.(*statusError); ok {
			*out = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// post issues one JSON request and classifies the response for retry:
// 503 is a hinted wait, 5xx and transport errors are transient
// (covers the queen-restart window), everything else ≥400 is
// permanent.
func (w *worker) post(path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return retry.Permanent(err)
	}
	resp, err := w.opts.Client.Post(w.opts.Base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err // transport error: transient
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		hint := hintFrom(resp, raw)
		return retry.Hint(&statusError{code: resp.StatusCode, msg: fmt.Sprintf("%s: idle (status 503)", path)}, hint)
	}
	if resp.StatusCode >= 500 {
		return &statusError{code: resp.StatusCode, msg: fmt.Sprintf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))}
	}
	if resp.StatusCode >= 400 {
		return retry.Permanent(&statusError{code: resp.StatusCode, msg: fmt.Sprintf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))})
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return retry.Permanent(err)
		}
	}
	return nil
}

// hintFrom prefers the millisecond wait in the 503 body over the
// whole-second Retry-After header.
func hintFrom(resp *http.Response, raw []byte) time.Duration {
	var wr WaitResponse
	if err := json.Unmarshal(raw, &wr); err == nil && wr.WaitMillis > 0 {
		return time.Duration(wr.WaitMillis) * time.Millisecond
	}
	if d, ok := retry.ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
		return d
	}
	return 0
}

// fileSafe maps a worker name or lease token into a file-name-safe
// alphabet, for the worker's chain files.
func fileSafe(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
