package harness

import (
	"encoding/json"
	"testing"

	"repro/internal/datasets"
)

func TestSummaryCoversEveryCell(t *testing.T) {
	res := sharedRun(t)
	s := res.Summary()
	if s.Folds != 3 || s.Seed != 5 {
		t.Fatalf("protocol echo wrong: %+v", s)
	}
	if len(s.Datasets) != 1 {
		t.Fatalf("datasets = %d", len(s.Datasets))
	}
	d := s.Datasets[0]
	if d.Name != "carcinogenesis" || d.Pos <= 0 || d.Neg <= 0 {
		t.Fatalf("dataset characterisation missing: %+v", d)
	}
	if d.SeqTimeS <= 0 {
		t.Fatalf("sequential baseline missing: %+v", d)
	}
	if want := len(s.Procs) * len(s.Widths); len(d.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(d.Cells), want)
	}
	for _, c := range d.Cells {
		if c.TimeS <= 0 || c.Speedup <= 0 || c.Epochs <= 0 {
			t.Fatalf("empty cell: %+v", c)
		}
	}

	// Synthetic runs fold-mean through Summary() into the right cell.
	k := Key{Dataset: "x", Width: 10, Procs: 2}
	r2 := &Results{
		Cfg: Config{Folds: 2, Seed: 1, Procs: []int{2}, Widths: []int{10}, Datasets: []*datasets.Dataset{{Name: "x"}}},
		Seq: map[string][]Record{"x": {{Time: 4}, {Time: 6}}},
		Par: map[Key][]Record{k: {{Time: 1, MB: 1, Wall: 0.5}, {Time: 3, MB: 4, Wall: 1.5}}},
	}
	c := r2.Summary().Datasets[0].Cells[0]
	if c.TimeS != 2 || c.CommMB != 2.5 || c.WallS != 1 || c.Speedup != 3 {
		t.Fatalf("fold means = time %v, comm %v, wall %v, speedup %v; want 2, 2.5, 1, 3",
			c.TimeS, c.CommMB, c.WallS, c.Speedup)
	}
}

func TestMarshalSummaryRoundTrips(t *testing.T) {
	res := sharedRun(t)
	out, err := res.MarshalSummary(0.08)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("summary JSON does not parse: %v", err)
	}
	if back.Scale != 0.08 || len(back.Datasets) != 1 || len(back.Datasets[0].Cells) != 4 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.SchemaVersion != SummarySchemaVersion {
		t.Fatalf("schema version = %d, want %d", back.SchemaVersion, SummarySchemaVersion)
	}
	// The version must appear under the stable key in the raw JSON, so
	// tooling can dispatch on it before binding the rest of the document.
	var raw map[string]any
	if err := json.Unmarshal(out, &raw); err != nil {
		t.Fatal(err)
	}
	if v, ok := raw["schema_version"].(float64); !ok || int(v) != SummarySchemaVersion {
		t.Fatalf("raw schema_version = %v, want %d", raw["schema_version"], SummarySchemaVersion)
	}
}
