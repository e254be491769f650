package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmokeWorkloads runs every workload at its smoke size, untraced and
// traced, and requires a correct result carrying every metric of its
// kind; the end-to-end ones must not be zero.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				e := &env{seed: 7, seconds: 400 * time.Millisecond, smoke: true, work: t.TempDir(), out: io.Discard}
				if traced {
					e.tr = newTracer(true)
				}
				rep, err := w.run(e)
				if err != nil {
					t.Fatal(err)
				}
				res := rep.result(traced)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					v, ok := res.Metrics[m.name]
					switch {
					case !ok || v.Unit != m.unit:
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.name, v, ok, m.unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s is %v", m.name, v.Value)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end metric %s is %v", m.name, v.Value)
					}
				}
			})
		}
	}
}

// TestSpecMatchesCode pins BENCHMARK.json to the code: the same
// workloads and the same metrics, in order, with the same units.
func TestSpecMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec has %d workloads, code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: spec %q, code %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("spec has %d+%d metrics, code %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != m.name || s.Unit != m.unit {
			t.Errorf("end_to_end %d: spec %s/%s, code %s/%s", i, s.Name, s.Unit, m.name, m.unit)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		maxBound = math.Max(maxBound, s.Bound)
		if s.Name == "setup_s" {
			setupBound = s.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for i, m := range perLayer {
		if s := spec.PerLayer[i]; s.Name != m.name || s.Unit != m.unit {
			t.Errorf("per_layer %d: spec %s/%s, code %s/%s", i, s.Name, s.Unit, m.name, m.unit)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 4}, [3]float64{1, 4, 10}},
		{[]float64{5, 6}, [3]float64{4.75, 5.5, 6.25}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", a, "lower", "unchanged"},
		{"faster", scale(a, 0.8), "lower", "improved"},
		{"slower", scale(a, 1.2), "lower", "regressed"},
		{"slightly slower", scale(a, 1.05), "lower", "unchanged"},
		{"higher is better", scale(a, 1.2), "higher", "improved"},
	} {
		if got := verdict(a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	wide := []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 100}
	if got := verdict(wide, wide, "lower", 0.1); got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}
}

func TestThroughput(t *testing.T) {
	var units []workUnit
	for i := 0; i < 100; i++ {
		units = append(units, workUnit{ops: 2, ns: int64(time.Millisecond)})
	}
	// One slow slice of ten cannot move the median.
	for i := 0; i < 10; i++ {
		units[i].ns *= 5
	}
	if got := throughput(units); got != 2000 {
		t.Errorf("throughput %v, want 2000", got)
	}
}
