package sweep

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// TestChaosShardResumeMatchesUninterrupted is the migration-safety
// property the queen's work-stealing rests on: a shard driven in
// chunks, snapshot mid-run, torn down, and resumed from the snapshot
// bytes alone (as a stolen shard is on another worker) reports the
// exact result — obs rollup included — of the uninterrupted observed
// run.
func TestChaosShardResumeMatchesUninterrupted(t *testing.T) {
	for _, name := range []string{"crash-sync", "radio-outage", "combined"} {
		sc, err := FindChaosScenario(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunChaosScenarioObserved(sc, false, nil)
		if err != nil {
			t.Fatal(err)
		}

		run, err := NewChaosShardRun(sc)
		if err != nil {
			t.Fatal(err)
		}
		chain := filepath.Join(t.TempDir(), "shard.wck")
		// Drive two small chunks well inside the fault window (every
		// scenario is still mid-chaos at t=120), snapshotting after
		// each so the chain grows a delta link; only the last
		// snapshot's bytes survive the abandonment.
		var snap []byte
		const chunk = 60
		for _, until := range []int{chunk, 2 * chunk} {
			if err := run.DriveTo(until); err != nil {
				t.Fatal(err)
			}
			if run.Finished() {
				t.Fatalf("%s: scenario finished at t=%d, before a mid-run snapshot", name, until)
			}
			if snap, err = run.Snapshot(chain); err != nil {
				t.Fatal(err)
			}
		}

		resumed, err := ResumeChaosShardRun(sc, snap)
		if err != nil {
			t.Fatal(err)
		}
		for !resumed.Finished() {
			if err := resumed.DriveTo(resumed.T() + chunk); err != nil {
				t.Fatal(err)
			}
		}
		got, err := resumed.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: resumed shard result diverges\n got: %+v\nwant: %+v", name, got, want)
		}
	}
}

// TestChaosShardSnapshotRejectsMismatch: a snapshot resumes only into
// the scenario it was taken from.
func TestChaosShardSnapshotRejectsMismatch(t *testing.T) {
	sc, err := FindChaosScenario("radio-outage", 1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewChaosShardRun(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.DriveTo(100); err != nil {
		t.Fatal(err)
	}
	snap, err := run.Snapshot(filepath.Join(t.TempDir(), "s.wck"))
	if err != nil {
		t.Fatal(err)
	}
	other, err := FindChaosScenario("jam-ramp", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeChaosShardRun(other, snap); err == nil {
		t.Fatal("resumed a radio-outage snapshot into jam-ramp")
	}
	if _, err := ResumeChaosShardRun(sc, []byte("{")); err == nil {
		t.Fatal("resumed from torn snapshot bytes")
	}
}

// TestMergeChaosReportDeterministic: merging identical result sets fed
// in different completion orders produces byte-identical reports, in
// canonical scenario order.
func TestMergeChaosReportDeterministic(t *testing.T) {
	names := ChaosScenarioNames(1)
	synth := func(name string, k int) ChaosResult {
		return ChaosResult{
			Scenario: name, Family: "f", Protocol: "p",
			Sent: k, Delivered: k - 1, MeanLatency: float64(k) / 3,
			StepsToRecover: -1,
			Obs:            ObsRollup{"waggle_sim_steps_total": int64(100 * k)},
		}
	}
	encode := func(order []string) []byte {
		results := map[string]ChaosResult{}
		for i, n := range order {
			results[n] = synth(n, i+7)
		}
		// Rebuild values keyed by name so both orders hold identical data.
		for i, n := range names {
			results[n] = synth(n, i+7)
		}
		report, err := MergeChaosReport(1, nil, results)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	shuffled := append([]string(nil), names...)
	rand.New(rand.NewSource(42)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a, b := encode(names), encode(shuffled)
	if !bytes.Equal(a, b) {
		t.Fatal("merge output depends on completion order")
	}
	// And the canonical order is the scenario order.
	report, err := MergeChaosReport(1, nil, func() map[string]ChaosResult {
		m := map[string]ChaosResult{}
		for i, n := range shuffled {
			m[n] = synth(n, i)
		}
		return m
	}())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range report.Results {
		if r.Scenario != names[i] {
			t.Fatalf("result %d is %q, want %q", i, r.Scenario, names[i])
		}
	}
}

// TestMergeChaosReportValidates: missing and out-of-campaign results
// are loud errors, not silent truncation.
func TestMergeChaosReportValidates(t *testing.T) {
	if _, err := MergeChaosReport(1, nil, map[string]ChaosResult{}); err == nil {
		t.Fatal("merged a campaign with every result missing")
	}
	if _, err := MergeChaosReport(1, []string{"crash-sync"},
		map[string]ChaosResult{"crash-sync": {}, "jam-ramp": {}}); err == nil {
		t.Fatal("accepted a result outside the campaign")
	}
	if _, err := MergeChaosReport(1, []string{"no-such"}, nil); err == nil {
		t.Fatal("accepted an unknown scenario name")
	}
}

// TestMergeSweepReportDeterministic: sweep tables merge in request
// order whatever order they completed in, and validation is loud.
func TestMergeSweepReportDeterministic(t *testing.T) {
	names := []string{"alpha", "beta", "gamma"}
	tables := map[string]TableReport{
		"gamma": {Name: "gamma", Header: []string{"h"}, Rows: [][]string{{"3"}}},
		"alpha": {Name: "alpha", Header: []string{"h"}, Rows: [][]string{{"1"}}},
		"beta":  {Name: "beta", Header: []string{"h"}, Rows: [][]string{{"2"}}},
	}
	report, err := MergeSweepReport(names, tables)
	if err != nil {
		t.Fatal(err)
	}
	for i, exp := range report.Experiments {
		if exp.Name != names[i] {
			t.Fatalf("experiment %d is %q, want %q", i, exp.Name, names[i])
		}
	}
	if _, err := MergeSweepReport(names[:2], tables); err == nil {
		t.Fatal("accepted a table outside the campaign")
	}
	delete(tables, "beta")
	if _, err := MergeSweepReport(names, tables); err == nil {
		t.Fatal("merged with a missing experiment")
	}
}
