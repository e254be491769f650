package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	o := New(16)
	o.Sim.Steps.Add(3)
	o.Sim.Robots.Set(6)
	o.Sim.StepSeconds.Observe(0.0003)
	o.Sim.StepSeconds.Observe(5.56) // a 1M-robot synchronous step
	o.Sim.StepSeconds.Observe(40)   // a serve long-poll: MaxObserveWait + RequestTimeout
	o.Sim.StepSeconds.Observe(200)  // above the last bound: +Inf bucket
	o.Sim.ActivationsPerStep.Observe(6)
	o.Msgr.Retries.Inc()

	var buf bytes.Buffer
	if err := o.Registry().WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"waggle_sim_steps_total 3",
		"# TYPE waggle_sim_step_seconds histogram",
		`waggle_sim_step_seconds_bucket{le="5"} 1`,
		`waggle_sim_step_seconds_bucket{le="10"} 2`,
		`waggle_sim_step_seconds_bucket{le="50"} 3`,
		`waggle_sim_step_seconds_bucket{le="100"} 3`,
		`waggle_sim_step_seconds_bucket{le="+Inf"} 4`,
		"waggle_sim_step_seconds_count 4",
		"waggle_msgr_retries_total 1",
		"waggle_sim_robots 6",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if n, err := ValidateExposition(text); err != nil {
		t.Fatalf("exposition does not validate: %v", err)
	} else if n == 0 {
		t.Fatal("validator saw no samples")
	}
}

func TestValidateExpositionRejectsGarbage(t *testing.T) {
	for name, text := range map[string]string{
		"no type":        "some_metric 1\n",
		"bad value":      "# TYPE m counter\n# HELP m h\nm notanumber\n",
		"bad type":       "# TYPE m summary\nm 1\n",
		"shrinking hist": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_sum 1\nh_count 5\n",
		"missing sum":    "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
	} {
		if _, err := ValidateExposition(text); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "test", []float64{1, 10}, false)
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs := s.Histograms[0]
	if want := []int64{2, 1, 1}; !reflect.DeepEqual(hs.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", hs.Counts, want)
	}
	if hs.Count != 4 || hs.Sum != 106.5 {
		t.Errorf("count/sum = %d/%v, want 4/106.5", hs.Count, hs.Sum)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	o := New(8)
	o.Net.Sends.Add(2)
	o.Record(Event{T: 1, Kind: EvSend, Robot: 0, Peer: 1, Val: 5})
	o.Record(Event{T: 3, Kind: EvDeliver, Robot: 1, Peer: 0, Val: 5})

	var buf bytes.Buffer
	if err := o.Snapshot(true).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("snapshot does not round-trip:\n%s\nvs\n%s", buf.String(), again.String())
	}
	if back.Schema != SnapshotSchema {
		t.Errorf("schema = %q", back.Schema)
	}
	if len(back.Trace) != 2 || back.Trace[0].Kind != EvSend {
		t.Errorf("trace lost in round-trip: %+v", back.Trace)
	}
}

func TestDeterministicSnapshotExcludesVolatile(t *testing.T) {
	o := New(8)
	o.Sim.StepSeconds.Observe(0.1)
	o.Sim.ActivationsPerStep.Observe(4)
	det := o.DeterministicSnapshot()
	for _, h := range det.Histograms {
		if h.Volatile {
			t.Errorf("volatile histogram %q in deterministic snapshot", h.Name)
		}
	}
	full := o.Snapshot(false)
	if len(full.Histograms) != len(det.Histograms)+1 {
		t.Errorf("expected exactly one volatile histogram excluded: %d vs %d",
			len(full.Histograms), len(det.Histograms))
	}
}

func TestRingNormalization(t *testing.T) {
	r := NewRing(8)
	// Deliberately unsorted within an instant (parallel emission order).
	r.Append(Event{T: 2, Kind: EvNoise, Robot: 3})
	r.Append(Event{T: 2, Kind: EvNoise, Robot: 1})
	r.Append(Event{T: 2, Kind: EvActivate, Robot: 1})
	got := r.Events()
	want := []Event{
		{T: 2, Kind: EvActivate, Robot: 1},
		{T: 2, Kind: EvNoise, Robot: 1},
		{T: 2, Kind: EvNoise, Robot: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalized = %+v, want %+v", got, want)
	}
}

func TestRingWrapDropsOldestInstant(t *testing.T) {
	r := NewRing(4)
	for t0 := 0; t0 < 3; t0++ {
		r.Append(Event{T: t0, Kind: EvActivate, Robot: 0})
		r.Append(Event{T: t0, Kind: EvActivate, Robot: 1})
	}
	// Capacity 4, six appended: retained instants {1 (partial), 2}; the
	// partially-evicted instant 1 must be dropped entirely.
	got := r.Events()
	for _, e := range got {
		if e.T != 2 {
			t.Errorf("event from partially-evicted instant retained: %+v", e)
		}
	}
	if len(got) != 2 {
		t.Errorf("retained %d events, want 2: %+v", len(got), got)
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", r.Dropped())
	}
}

func TestEventKindJSON(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var back EventKind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if back != k {
			t.Errorf("kind %v round-trips to %v", k, back)
		}
	}
}

func TestNilObserverIsInert(t *testing.T) {
	var o *Observer
	o.Record(Event{T: 1})
	if o.TraceEvents() != nil || o.TraceDropped() != 0 {
		t.Error("nil observer holds state")
	}
	if o.Registry() != nil {
		t.Error("nil observer has a registry")
	}
	s := o.Snapshot(true)
	if s.Schema != SnapshotSchema || len(s.Counters) != 0 {
		t.Errorf("nil snapshot = %+v", s)
	}
	var buf bytes.Buffer
	if err := (*Registry)(nil).WriteMetrics(&buf); err != nil || buf.Len() != 0 {
		t.Error("nil registry wrote something")
	}
}

func TestConcurrentObserves(t *testing.T) {
	o := New(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				o.Sim.Activations.Inc()
				o.Sim.ActivationsPerStep.Observe(float64(i % 7))
				o.Record(Event{T: i, Kind: EvActivate, Robot: w})
			}
		}(w)
	}
	wg.Wait()
	if v := o.Sim.Activations.Value(); v != 8000 {
		t.Errorf("activations = %d, want 8000", v)
	}
	if c := o.Sim.ActivationsPerStep.Count(); c != 8000 {
		t.Errorf("histogram count = %d, want 8000", c)
	}
	if s := o.Sim.ActivationsPerStep.Sum(); math.IsNaN(s) {
		t.Error("histogram sum corrupted")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	o := New(32)
	o.Sim.Steps.Inc()
	o.Msgr.Retries.Add(4)
	o.Sim.StepSeconds.Observe(0.002)
	o.Record(Event{T: 7, Kind: EvRetry, Robot: 0, Peer: 2})
	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	if _, err := ValidateExposition(metrics); err != nil {
		t.Errorf("/metrics invalid: %v", err)
	}
	for _, want := range []string{"waggle_sim_step_seconds_bucket", "waggle_msgr_retries_total 4"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Errorf("/metrics.json: %v", err)
	}
	var tr Snapshot
	if err := json.Unmarshal([]byte(get("/trace")), &tr); err != nil {
		t.Errorf("/trace: %v", err)
	} else if len(tr.Trace) != 1 || tr.Trace[0].Kind != EvRetry {
		t.Errorf("/trace = %+v", tr.Trace)
	}
	if !strings.Contains(get("/debug/pprof/cmdline"), "") {
		t.Error("pprof unreachable")
	}
	if !strings.Contains(get("/"), "/metrics") {
		t.Error("index missing endpoint list")
	}
}
