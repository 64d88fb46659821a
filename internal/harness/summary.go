package harness

import (
	"encoding/json"

	"repro/internal/stats"
)

// SummarySchemaVersion stamps every emitted Summary so downstream tooling
// comparing BENCH_<n>.json files across commits can detect shape changes
// instead of mis-parsing. Bump it when a field is renamed, removed, or
// changes meaning; purely additive fields keep the version.
const SummarySchemaVersion = 3

// Summary is the machine-readable form of a harness run, emitted by
// `ilpbench -json` and archived by CI as BENCH_<n>.json so benchmark
// trajectories can be compared across commits without scraping tables.
type Summary struct {
	SchemaVersion int              `json:"schema_version"`
	Scale         float64          `json:"scale,omitempty"`
	Folds         int              `json:"folds"`
	Seed          int64            `json:"seed"`
	Procs         []int            `json:"procs"`
	Widths        []int            `json:"widths"`
	Datasets      []DatasetSummary `json:"datasets"`
}

// DatasetSummary is one dataset's sweep: the sequential baseline plus one
// cell per (procs, width) configuration, all values fold means.
type DatasetSummary struct {
	Name     string        `json:"name"`
	Pos      int           `json:"pos"`
	Neg      int           `json:"neg"`
	SeqTimeS float64       `json:"seq_time_s"`
	SeqAcc   float64       `json:"seq_accuracy"`
	Cells    []CellSummary `json:"cells"`
}

// CellSummary is one parallel configuration's fold-mean measurements —
// the quantities behind Tables 2–6.
type CellSummary struct {
	Procs    int     `json:"procs"`
	Width    int     `json:"width"` // 0 = the paper's "nolimit"
	TimeS    float64 `json:"time_s"`
	Speedup  float64 `json:"speedup"`
	CommMB   float64 `json:"comm_mb"`
	Epochs   float64 `json:"epochs"`
	Accuracy float64 `json:"accuracy"`
	WallS    float64 `json:"wall_s"`
}

// Summary collapses the per-fold measurements into fold means.
func (r *Results) Summary() Summary {
	s := Summary{
		SchemaVersion: SummarySchemaVersion,
		Folds:         r.Cfg.Folds,
		Seed:          r.Cfg.Seed,
		Procs:         r.Cfg.Procs,
		Widths:        r.Cfg.Widths,
	}
	for _, ds := range r.Cfg.Datasets {
		name, pos, neg := ds.Characterize()
		d := DatasetSummary{
			Name:     name,
			Pos:      pos,
			Neg:      neg,
			SeqTimeS: mean(r.Seq[name], timeOf),
			SeqAcc:   mean(r.Seq[name], accOf),
		}
		for _, w := range r.Cfg.Widths {
			for _, p := range r.Cfg.Procs {
				k := Key{Dataset: name, Width: w, Procs: p}
				runs := r.Par[k]
				d.Cells = append(d.Cells, CellSummary{
					Procs:    p,
					Width:    w,
					TimeS:    mean(runs, timeOf),
					Speedup:  stats.Mean(r.foldSpeedups(k)),
					CommMB:   mean(runs, mbOf),
					Epochs:   mean(runs, epochsOf),
					Accuracy: mean(runs, accOf),
					WallS:    mean(runs, wallOf),
				})
			}
		}
		s.Datasets = append(s.Datasets, d)
	}
	return s
}

// MarshalSummary renders the summary as indented JSON.
func (r *Results) MarshalSummary(scale float64) ([]byte, error) {
	s := r.Summary()
	s.Scale = scale
	return json.MarshalIndent(s, "", "  ")
}
