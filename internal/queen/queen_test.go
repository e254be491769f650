package queen

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"waggle/internal/obs"
	"waggle/internal/retry"
	"waggle/internal/sweep"
	"waggle/internal/wire"
)

// fastRequeue keeps test requeues instant.
var fastRequeue = retry.Policy{MaxAttempts: 2, Base: time.Nanosecond, Cap: time.Nanosecond}

// chaosReference renders the single-process chaos report for the
// named scenarios — the byte-identity oracle.
func chaosReference(t *testing.T, seed int64, names []string) []byte {
	t.Helper()
	results := map[string]sweep.ChaosResult{}
	for _, name := range names {
		sc, err := sweep.FindChaosScenario(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sweep.RunChaosScenarioObserved(sc, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = *r
	}
	report, err := sweep.MergeChaosReport(seed, names, results)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignMergeByteIdentity runs a 3-scenario chaos campaign
// through the full HTTP protocol with two concurrent workers and
// requires the merged report to be byte-identical to the
// single-process run.
func TestCampaignMergeByteIdentity(t *testing.T) {
	names := []string{"crash-sync", "radio-outage", "combined"}
	out := filepath.Join(t.TempDir(), "report.json")
	q, err := New(Options{
		Spec: Spec{Kind: "chaos", Seed: 1, Names: names},
		Out:  out,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Stop()
	mux := http.NewServeMux()
	q.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(WorkerOptions{Base: srv.URL, Name: "w" + string(rune('0'+i)), Dir: t.TempDir()})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-q.Done():
	case <-time.After(time.Minute):
		t.Fatal("campaign did not finish")
	}
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := chaosReference(t, 1, names); !bytes.Equal(got, want) {
		t.Fatalf("merged report differs from single-process run\n got: %s\nwant: %s", got, want)
	}
	st := q.status()
	if st.Completed != len(names) || !st.Merged {
		t.Fatalf("status after completion: %+v", st)
	}
}

// TestSweepCampaignMergeByteIdentity: the sweep kind merges experiment
// tables in request order, matching the single-process report.
func TestSweepCampaignMergeByteIdentity(t *testing.T) {
	names := []string{"silence", "drift"}
	q, err := New(Options{Spec: Spec{Kind: "sweep", Names: names}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Stop()
	mux := http.NewServeMux()
	q.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	if err := RunWorker(WorkerOptions{Base: srv.URL, Name: "w0", Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	<-q.Done()
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}

	ref := sweep.NewSweepReport()
	for _, n := range names {
		tbl, err := sweep.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		ref.Add(n, tbl)
	}
	var want bytes.Buffer
	if err := ref.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.Report(), want.Bytes()) {
		t.Fatalf("merged sweep report differs from single-process run\n got: %s\nwant: %s", q.Report(), want.Bytes())
	}
}

// TestLeaseExpiryStealsSnapshot drives the protocol by hand: worker A
// leases a shard, banks a snapshot, and goes silent; after the TTL
// the reaper requeues the shard, and worker B's lease receives A's
// snapshot — a steal — while A's late heartbeat is rejected.
func TestLeaseExpiryStealsSnapshot(t *testing.T) {
	q, err := New(Options{
		Spec:    Spec{Kind: "chaos", Seed: 1, Names: []string{"crash-sync"}},
		Requeue: fastRequeue,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()

	grantA, wait, err := q.lease("workerA")
	if err != nil || grantA == nil {
		t.Fatalf("lease A: grant=%v wait=%v err=%v", grantA, wait, err)
	}
	if len(grantA.Snapshot) != 0 {
		t.Fatal("first lease carried a snapshot")
	}
	if !q.heartbeat(grantA.Name, grantA.Token, 60, []byte("progress-blob")) {
		t.Fatal("live heartbeat rejected")
	}

	// No more heartbeats from A: the reaper (driven by hand with a
	// future clock) expires the lease.
	q.expireLeases(time.Now().Add(time.Hour))
	if got := q.m.LeaseExpired.Value(); got != 1 {
		t.Fatalf("lease_expired = %d, want 1", got)
	}
	if q.heartbeat(grantA.Name, grantA.Token, 120, nil) {
		t.Fatal("heartbeat on an expired lease accepted")
	}

	grantB, _, err := q.lease("workerB")
	if err != nil || grantB == nil {
		t.Fatalf("lease B: %v %v", grantB, err)
	}
	if !bytes.Equal(grantB.Snapshot, []byte("progress-blob")) {
		t.Fatalf("steal did not hand over the banked snapshot: %q", grantB.Snapshot)
	}
	if grantB.Token == grantA.Token {
		t.Fatal("re-grant reused the dead lease's token")
	}
	if got := q.m.Stolen.Value(); got != 1 {
		t.Fatalf("stolen = %d, want 1", got)
	}
	if got := q.m.Retried.Value(); got != 1 {
		t.Fatalf("retried = %d, want 1", got)
	}
}

// TestCompleteIsTokenBlindAndIdempotent: a stale lease's result is
// accepted (results are deterministic) and a duplicate completion is
// a no-op.
func TestCompleteTokenBlindIdempotent(t *testing.T) {
	q, err := New(Options{
		Spec:    Spec{Kind: "chaos", Seed: 1, Names: []string{"crash-sync"}},
		Requeue: fastRequeue,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	grantA, _, _ := q.lease("workerA")
	q.expireLeases(time.Now().Add(time.Hour))
	if _, _, err := q.lease("workerB"); err != nil {
		t.Fatal(err)
	}
	// A's result arrives after the shard was re-leased to B.
	res := mustResult(t, "crash-sync")
	if err := q.complete(grantA.Name, res); err != nil {
		t.Fatalf("stale-lease completion rejected: %v", err)
	}
	if err := q.complete(grantA.Name, res); err != nil {
		t.Fatalf("duplicate completion: %v", err)
	}
	if got := q.m.Completed.Value(); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
	<-q.Done()
	if q.Err() != nil || q.Report() == nil {
		t.Fatalf("campaign not cleanly finished: err=%v", q.Err())
	}
}

// TestAttemptsExhaustedFailsCampaign: a shard that keeps dying runs
// out of attempts and the campaign fails loudly instead of spinning.
func TestAttemptsExhaustedFailsCampaign(t *testing.T) {
	q, err := New(Options{
		Spec:          Spec{Kind: "chaos", Seed: 1, Names: []string{"crash-sync"}},
		ShardAttempts: 2,
		Requeue:       fastRequeue,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	for i := 0; i < 2; i++ {
		grant, _, err := q.lease("flaky")
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		if grant == nil {
			// Backoff gating; retry shortly.
			time.Sleep(time.Millisecond)
			i--
			continue
		}
		q.expireLeases(time.Now().Add(time.Hour))
	}
	select {
	case <-q.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("exhausted campaign did not fail")
	}
	if q.Err() == nil {
		t.Fatal("campaign failure not recorded")
	}
	if _, _, err := q.lease("flaky"); err == nil {
		t.Fatal("lease against a failed campaign succeeded")
	}
}

// TestJournalRestartResumes: a queen that dies mid-campaign is rebuilt
// from its journal with completed shards seated, and the resumed
// campaign's merged report is byte-identical to the single-process
// run.
func TestJournalRestartResumes(t *testing.T) {
	names := []string{"crash-sync", "radio-outage"}
	dir := t.TempDir()
	journal := filepath.Join(dir, "queen.journal")
	out := filepath.Join(dir, "report.json")

	q1, err := New(Options{
		Spec:    Spec{Kind: "chaos", Seed: 1, Names: names},
		Journal: journal,
		Out:     out,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	grant, _, err := q1.lease("w0")
	if err != nil {
		t.Fatal(err)
	}
	if err := q1.complete(grant.Name, mustResult(t, grant.Name)); err != nil {
		t.Fatal(err)
	}
	q1.Stop() // queen dies with one shard done, one pending

	q2, err := NewFromJournal(journal, Options{Out: out}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Stop()
	st := q2.status()
	if st.Completed != 1 || st.Pending != 1 {
		t.Fatalf("restarted queen state: %+v", st)
	}
	grant2, _, err := q2.lease("w1")
	if err != nil {
		t.Fatal(err)
	}
	if grant2.Name == grant.Name {
		t.Fatalf("restarted queen re-dispatched completed shard %q", grant.Name)
	}
	if err := q2.complete(grant2.Name, mustResult(t, grant2.Name)); err != nil {
		t.Fatal(err)
	}
	<-q2.Done()
	if err := q2.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := chaosReference(t, 1, names); !bytes.Equal(got, want) {
		t.Fatalf("resumed campaign report differs\n got: %s\nwant: %s", got, want)
	}

	// A journal for a different campaign must be refused: another kind,
	// or the same kind and seed over other shards or in another order.
	for _, spec := range []Spec{
		{Kind: "sweep", Names: []string{"silence"}},
		{Kind: "chaos", Seed: 1, Names: []string{"radio-outage"}},
		{Kind: "chaos", Seed: 1, Names: []string{"radio-outage", "crash-sync"}},
	} {
		if _, err := NewFromJournal(journal, Options{Spec: spec}, nil); err == nil {
			t.Fatalf("journal adopted into a mismatched campaign %+v", spec)
		}
	}
	// A fresh queen may append to it only for the same campaign, and a
	// different snapshot cadence is the same campaign.
	if _, err := openJournal(journal, Spec{Kind: "chaos", Seed: 1, Names: []string{"radio-outage"}}); err == nil {
		t.Fatal("journal reopened for other shards")
	}
	jw, err := openJournal(journal, Spec{Kind: "chaos", Seed: 1, Names: names, CheckpointEvery: 80})
	if err != nil {
		t.Fatalf("journal refused for another snapshot cadence: %v", err)
	}
	jw.close()
}

// TestJournalRestartAfterCompletion: resuming a fully-finished journal
// immediately reports done with the merged report rebuilt.
func TestJournalRestartAfterCompletion(t *testing.T) {
	names := []string{"crash-sync"}
	dir := t.TempDir()
	journal := filepath.Join(dir, "queen.journal")
	q1, err := New(Options{
		Spec:    Spec{Kind: "chaos", Seed: 1, Names: names},
		Journal: journal,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	grant, _, _ := q1.lease("w0")
	if err := q1.complete(grant.Name, mustResult(t, grant.Name)); err != nil {
		t.Fatal(err)
	}
	<-q1.Done()
	report := q1.Report()
	q1.Stop()

	q2, err := NewFromJournal(journal, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Stop()
	select {
	case <-q2.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("finished journal did not resume as done")
	}
	if !bytes.Equal(q2.Report(), report) {
		t.Fatal("rebuilt report differs from the original")
	}
}

// TestJournalRestartIgnoresEngine: journals written by builds that
// still let a campaign pick its step engine carry an "engine" key in
// their campaign spec. Such a journal restarts, and merges the
// single-process report (the engine never changed a result).
func TestJournalRestartIgnoresEngine(t *testing.T) {
	names := []string{"crash-sync"}
	journal := filepath.Join(t.TempDir(), "queen.journal")
	var data []byte
	for _, body := range []string{
		`{"ev":"campaign","spec":{"kind":"chaos","seed":1,"engine":"sequential","names":["crash-sync"]}}`,
		`{"ev":"done","shard":"crash-sync","result":` + string(mustResult(t, "crash-sync")) + `}`,
	} {
		frame, _ := wire.EncodeFrame(wire.JournalFormat.Next, 0, []byte(body))
		data = append(data, frame...)
	}
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := NewFromJournal(journal, Options{Spec: Spec{Kind: "chaos", Seed: 1, Names: names}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	select {
	case <-q.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("finished journal did not resume as done")
	}
	if want := chaosReference(t, 1, names); !bytes.Equal(q.Report(), want) {
		t.Fatalf("report from the old journal differs\n got: %s\nwant: %s", q.Report(), want)
	}
}

// mustResult computes one scenario's canonical result as its JSON
// completion payload.
func mustResult(t *testing.T, name string) json.RawMessage {
	t.Helper()
	sc, err := sweep.FindChaosScenario(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sweep.RunChaosScenarioObserved(sc, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestShardSecondsIgnoresWorkerNames: worker names come from clients,
// so they must not mint metric names. Two names that sanitize alike
// (w-1, w.1) both complete a shard; the exposition stays valid and the
// queen keeps answering leases.
func TestShardSecondsIgnoresWorkerNames(t *testing.T) {
	ob := obs.New(16)
	q, err := New(Options{Spec: Spec{Kind: "chaos", Seed: 1,
		Names: []string{"crash-sync", "radio-outage", "combined"}}}, ob)
	if err != nil {
		t.Fatal(err)
	}
	q.Start()
	defer q.Stop()
	mux := obs.Mux(ob)
	q.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	post := func(path string, req, resp any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r, err := client.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK && r.StatusCode != http.StatusNoContent {
			t.Fatalf("POST %s: status %d", path, r.StatusCode)
		}
		if resp != nil {
			if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, worker := range []string{"w-1", "w.1"} {
		var grant LeaseResponse
		post("/queen/v1/lease", LeaseRequest{Worker: worker}, &grant)
		post("/queen/v1/complete", CompleteRequest{Worker: worker, Name: grant.Name, Token: grant.Token,
			Result: json.RawMessage(`{}`)}, nil)
	}
	r, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateExposition(string(text)); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if !bytes.Contains(text, []byte("waggle_queen_shard_seconds_count 2\n")) {
		t.Errorf("/metrics lacks one shard histogram holding both completions:\n%s", text)
	}
	var grant LeaseResponse
	post("/queen/v1/lease", LeaseRequest{Worker: "w2"}, &grant)
	if grant.Name != "combined" {
		t.Fatalf("lease after the completions granted %+v, want the last shard", grant)
	}
}
