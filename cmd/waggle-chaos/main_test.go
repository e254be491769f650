package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"waggle/internal/sweep"
)

func TestRunOneScenario(t *testing.T) {
	if err := run(config{scenario: "radio-outage", seed: 1}); err != nil {
		t.Error(err)
	}
	if err := run(config{scenario: "displace-sync", seed: 1, csv: true}); err != nil {
		t.Error(err)
	}
}

func TestRunList(t *testing.T) {
	if err := run(config{seed: 1, list: true}); err != nil {
		t.Error(err)
	}
}

func TestRunUnknown(t *testing.T) {
	if err := run(config{scenario: "nope", seed: 1}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestRunJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if err := run(config{scenario: "radio-outage", seed: 1, out: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report sweep.ChaosReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != sweep.ChaosReportSchema {
		t.Errorf("schema = %q, want %q", report.Schema, sweep.ChaosReportSchema)
	}
	if len(report.Results) != 1 || report.Results[0].Scenario != "radio-outage" {
		t.Fatalf("results = %+v", report.Results)
	}
	if v := report.Results[0].Obs["waggle_msgr_retries_total"]; v == 0 {
		t.Errorf("obs rollup missing retries: %v", report.Results[0].Obs)
	}
}

func TestServeIntrospection(t *testing.T) {
	// -listen without block: the endpoint must come up and serve during
	// the run; run() itself is exercised non-blocking.
	if err := run(config{scenario: "displace-sync", seed: 1, listen: "127.0.0.1:0"}); err != nil {
		t.Error(err)
	}
}
