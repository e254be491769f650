package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadOut(path string) (*outFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc outFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != outSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q (write result files with -out)", path, doc.Schema, outSchema)
	}
	return &doc, nil
}

// runCompare prints, per workload and end-to-end metric, the median and
// quartiles of set A (the parent) and set B (the change) and a verdict.
// Files pair up in the order given: A[i] with B[i].
func runCompare(w io.Writer, specPath string, args []string) error {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		return fmt.Errorf("usage: -compare A.json... -- B.json...")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	load := func(paths []string) ([]*outFile, error) {
		var docs []*outFile
		for _, p := range paths {
			d, err := loadOut(p)
			if err != nil {
				return nil, err
			}
			docs = append(docs, d)
		}
		return docs, nil
	}
	as, err := load(args[:split])
	if err != nil {
		return err
	}
	bs, err := load(args[split+1:])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %d runs, B: %d runs; median [q1 q3] per set\n", len(as), len(bs))
	for _, wl := range workloads {
		a, b := values(as, wl.name), values(bs, wl.name)
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.name)
		for _, m := range spec.EndToEnd {
			av, bv := a[m.Name], b[m.Name]
			fmt.Fprintf(w, "  %-12s A %s  B %s  %s\n", m.Name, summary(av), summary(bv), verdict(av, bv, m.Better, m.Bound))
		}
	}
	return nil
}

// values gathers each metric's values of one workload across files.
func values(docs []*outFile, workload string) map[string][]float64 {
	out := map[string][]float64{}
	for _, d := range docs {
		res, ok := d.Results[workload]
		if !ok {
			continue
		}
		for name, v := range res.Metrics {
			out[name] = append(out[name], v.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return fmt.Sprintf("%-32s", "-")
	}
	q := quartiles(xs)
	return fmt.Sprintf("%-32s", fmt.Sprintf("%.4g [%.4g %.4g] n=%d", q[1], q[0], q[2], len(xs)))
}

// quartiles computes the three cut points the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}

// verdict applies the rules of the choosing-metrics method to one
// metric:
//   - improved: B wins at least 9 of 10 pairs (ties count for neither)
//     and the medians differ by more than A's interquartile range;
//   - regressed: B's median is worse than A's by more than the bound;
//   - unresolved: A's own spread is wider than the bound, unless every B
//     run reads better than every A run;
//   - unchanged otherwise.
func verdict(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	sign := 1.0 // positive differences favor B
	if better == "higher" {
		sign = -1
	}
	qa, qb := quartiles(a), quartiles(b)
	gain := sign * (qa[1] - qb[1])
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if sign*(a[i]-b[i]) > 0 {
			wins++
		}
	}
	iqr := qa[2] - qa[0]
	base := qa[1]
	if base < 0 {
		base = -base
	}
	switch {
	case wins*10 >= pairs*9 && gain > iqr:
		return "improved"
	case -gain > bound*base:
		return "regressed"
	case iqr > bound*base && !allBetter(a, b, sign):
		return "unresolved"
	}
	return "unchanged"
}

// allBetter reports whether every B value reads better than every A
// value.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(x-y) <= 0 {
				return false
			}
		}
	}
	return true
}
