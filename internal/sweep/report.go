package sweep

import (
	"encoding/json"
	"io"

	"waggle"
	"waggle/internal/render"
)

// Report schemas. Bump on any incompatible field change so CI diffs of
// -o outputs fail loudly instead of silently comparing different
// shapes.
const (
	SweepReportSchema = "waggle-sweep/v1"
	ChaosReportSchema = "waggle-chaos/v2"
)

// TableReport is one experiment's table in machine-readable form:
// the header and the already-formatted cells, exactly as the text and
// CSV renderings print them, so a JSON diff and a CSV diff disagree
// only in framing.
type TableReport struct {
	Name   string     `json:"name"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// NewTableReport captures a rendered table.
func NewTableReport(name string, tbl *render.Table) TableReport {
	return TableReport{Name: name, Header: tbl.Header(), Rows: tbl.Rows()}
}

// SweepReport is the JSON form of a waggle-sweep run (-o): the
// requested experiments' tables, in request order.
type SweepReport struct {
	Schema      string        `json:"schema"`
	Seed        int64         `json:"seed,omitempty"`
	Experiments []TableReport `json:"experiments"`
}

// NewSweepReport assembles a sweep report with the schema tag set.
func NewSweepReport() *SweepReport {
	return &SweepReport{Schema: SweepReportSchema, Experiments: []TableReport{}}
}

// Add appends one experiment's table.
func (r *SweepReport) Add(name string, tbl *render.Table) {
	r.Experiments = append(r.Experiments, NewTableReport(name, tbl))
}

// WriteJSON writes the report as indented JSON.
func (r *SweepReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// ChaosReport is the JSON form of a waggle-chaos run (-o): the
// per-scenario results, each with its observability rollup.
type ChaosReport struct {
	Schema  string        `json:"schema"`
	Seed    int64         `json:"seed"`
	Results []ChaosResult `json:"results"`
}

// WriteJSON writes the report as indented JSON.
func (r *ChaosReport) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// ChaosReportFor runs the named scenario (every scenario when name is
// empty) with observability rollups and assembles the report. When a
// non-nil observer is passed, the scenarios additionally accumulate
// into it — the hook behind waggle-chaos -listen.
func ChaosReportFor(name string, seed int64, o *waggle.Observer) (*ChaosReport, error) {
	report := &ChaosReport{
		Schema:  ChaosReportSchema,
		Seed:    seed,
		Results: []ChaosResult{},
	}
	for _, sc := range ChaosScenarios(seed) {
		if name != "" && sc.Name != name {
			continue
		}
		obsv := o
		if obsv == nil {
			// Fresh observer per scenario: rollups never bleed across
			// scenarios even though the diff logic would tolerate it.
			obsv = waggle.NewObserver()
		}
		r, err := RunChaosScenarioObserved(sc, false, obsv)
		if err != nil {
			return nil, err
		}
		report.Results = append(report.Results, *r)
	}
	if name != "" && len(report.Results) == 0 {
		_, err := FindChaosScenario(name, seed)
		return nil, err
	}
	return report, nil
}

// ChaosResultTable formats results the way ChaosTable does, for the
// text/CSV output paths of runners that already hold results.
func ChaosResultTable(results []ChaosResult) *render.Table {
	tbl := render.NewTable("scenario", "family", "protocol", "sent", "delivered", "rate",
		"mean latency", "retries", "failovers", "failbacks", "implicit acks", "steps to recover")
	for _, r := range results {
		tbl.AddRow(r.Scenario, r.Family, r.Protocol, r.Sent, r.Delivered, r.Rate(),
			r.MeanLatency, r.Retries, r.Failovers, r.Failbacks, r.ImplicitAcks, r.StepsToRecover)
	}
	return tbl
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
