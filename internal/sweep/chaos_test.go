package sweep

import (
	"reflect"
	"testing"

	"waggle"
)

// TestChaosTableDeterministic: two runs of the full scenario table at
// the same seed produce byte-identical CSV reports.
func TestChaosTableDeterministic(t *testing.T) {
	a, err := ChaosTable(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosTable(1)
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Errorf("chaos reports differ between identical runs:\n%s\nvs\n%s", a.CSV(), b.CSV())
	}
}

// TestChaosScenarioOutcomes pins the qualitative behaviour of every
// scenario: all recover after their fault window, the radio scenarios
// drive the self-healing messenger through its full lifecycle, and the
// crash scenarios deliver what the model says must survive.
func TestChaosScenarioOutcomes(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range ChaosScenarios(1) {
		r, err := RunChaosScenario(sc, false)
		if err != nil {
			t.Fatal(err)
		}
		seen[sc.Name] = true
		if r.StepsToRecover < 0 {
			t.Errorf("%s: no post-fault message delivered (steps-to-recover %d)", sc.Name, r.StepsToRecover)
		}
		if r.Delivered == 0 || r.Sent < 3 {
			t.Errorf("%s: implausible traffic: %+v", sc.Name, r)
		}
		switch sc.Family {
		case "radio", "combined":
			if r.Retries < 1 || r.Failovers < 1 || r.Failbacks < 1 || r.ImplicitAcks < 1 {
				t.Errorf("%s: messenger lifecycle incomplete: %+v", sc.Name, r)
			}
			if r.Rate() != 1 {
				t.Errorf("%s: self-healing messenger lost traffic: %+v", sc.Name, r)
			}
		default:
			if r.Retries != 0 || r.Failovers != 0 {
				t.Errorf("%s: radio counters on a radioless scenario: %+v", sc.Name, r)
			}
		}
		switch sc.Name {
		case "crash-sync":
			// The in-flight frame is lost at the epoch boundary; the
			// queued-but-unstarted message and the post-recovery probe
			// survive.
			if r.Delivered != 3 {
				t.Errorf("crash-sync delivered %d, want 3 (in-flight frame lost)", r.Delivered)
			}
		case "crash-async":
			// AsyncN tolerates a crash window by construction.
			if r.Rate() != 1 {
				t.Errorf("crash-async rate %v, want 1", r.Rate())
			}
		}
	}
	if len(seen) < 6 {
		t.Errorf("only %d scenarios scripted, want at least 6", len(seen))
	}
	families := map[string]bool{}
	for _, sc := range ChaosScenarios(1) {
		families[sc.Family] = true
	}
	for _, f := range []string{"crash", "displacement", "observation", "movement", "radio", "combined"} {
		if !families[f] {
			t.Errorf("fault family %q not covered", f)
		}
	}
}

// TestChaosSeedSensitivity: a different seed changes the configuration
// and schedules, so at least something in the table moves — the
// determinism is per-seed, not a constant table.
func TestChaosSeedSensitivity(t *testing.T) {
	a, err := ChaosTable(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosTable(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() == b.CSV() {
		t.Error("tables identical across seeds; the seed is not wired through")
	}
}

// TestChaosRegistry: the sweep registry exposes the chaos table.
func TestChaosRegistry(t *testing.T) {
	names := Names()
	found := false
	for _, n := range names {
		if n == "chaos" {
			found = true
		}
	}
	if !found {
		t.Fatalf("chaos missing from sweep names %v", names)
	}
	tbl, err := Run("chaos")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.CSV() == "" {
		t.Error("empty chaos table from the registry")
	}
}

// TestChaosKillAndResume is the checkpoint acceptance check at the
// chaos level: killing the whole stack mid-plan — inside active fault
// windows, with messenger retries in flight — serializing it, and
// resuming from the bytes must reproduce the uninterrupted run
// byte-for-byte, trace included.
func TestChaosKillAndResume(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		killAt   int
	}{
		{"radio-outage", 200}, // mid-outage, retries pending
		{"combined", 150},     // crash + outage + ramp all active
		{"crash-sync", 120},   // no radio: swarm-only restore path
	} {
		sc, err := FindChaosScenario(tc.scenario, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunChaosScenario(sc, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunChaosScenarioResumedCodec(sc, tc.killAt, waggle.CodecBinary)
		if err != nil {
			t.Fatalf("%s killAt=%d: %v", tc.scenario, tc.killAt, err)
		}
		if got.TraceCSV == "" || got.TraceCSV != want.TraceCSV {
			t.Errorf("%s: resumed trace differs from uninterrupted run", tc.scenario)
		}
		got.TraceCSV, want.TraceCSV = "", ""
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resumed report differs:\n%+v\nvs\n%+v", tc.scenario, got, want)
		}
	}
}
