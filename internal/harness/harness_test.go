package harness

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasets"
)

// tinyConfig keeps the integration sweep fast: small scaled datasets,
// 3 folds, p ∈ {2, 4}.
func tinyConfig() Config {
	ds, err := datasets.PaperScaled(0.08, 17)
	if err != nil {
		panic(err)
	}
	for _, d := range ds {
		d.Search.NodesLimit = 150
	}
	return Config{
		Datasets: ds[:1], // carcinogenesis only for speed
		Procs:    []int{2, 4},
		Widths:   []int{WidthUnlimited, 5},
		Folds:    3,
		Seed:     5,
	}
}

// The sweep is deterministic, so the integration tests share one run.
var (
	sharedOnce sync.Once
	sharedRes  *Results
	sharedErr  error
)

func sharedRun(t *testing.T) *Results {
	t.Helper()
	sharedOnce.Do(func() { sharedRes, sharedErr = Run(tinyConfig(), nil) })
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedRes
}

func TestRunProducesAllCells(t *testing.T) {
	res := sharedRun(t)
	cfg := res.Cfg
	for _, ds := range cfg.Datasets {
		if got := len(res.Seq[ds.Name]); got != cfg.Folds {
			t.Fatalf("%s: %d sequential times, want %d", ds.Name, got, cfg.Folds)
		}
		for _, w := range cfg.Widths {
			for _, p := range cfg.Procs {
				k := Key{ds.Name, w, p}
				if got := len(res.Par[k]); got != cfg.Folds {
					t.Fatalf("cell %+v: %d runs, want %d", k, got, cfg.Folds)
				}
				for _, run := range res.Par[k] {
					if run.Time <= 0 {
						t.Fatalf("cell %+v: nonpositive time %v", k, run.Time)
					}
				}
			}
		}
	}
}

func TestRenderTables(t *testing.T) {
	res := sharedRun(t)
	var buf bytes.Buffer
	res.RenderAll(&buf)
	out := buf.String()
	for _, want := range []string{
		"Table 1. Datasets Characterization",
		"Table 2. Average speedup",
		"Table 3. Average execution time",
		"Table 4. Average communication",
		"Table 5. Average number of epochs",
		"Table 6. Average predictive accuracy",
		"carcinogenesis",
		"nolimit",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q\n%s", want, out)
		}
	}
	// Table dispatch.
	for n := 1; n <= 6; n++ {
		var one bytes.Buffer
		if err := res.RenderTable(n, &one); err != nil {
			t.Errorf("RenderTable(%d): %v", n, err)
		}
		if one.Len() == 0 {
			t.Errorf("RenderTable(%d) produced nothing", n)
		}
	}
	if err := res.RenderTable(7, &buf); err == nil {
		t.Error("RenderTable(7) should fail")
	}
}

func TestShapeChecks(t *testing.T) {
	res := sharedRun(t)
	checks := res.ShapeChecks()
	if len(checks) == 0 {
		t.Fatal("no shape checks produced")
	}
	failures := 0
	for _, c := range checks {
		t.Log(c)
		if strings.HasPrefix(c, "FAIL") {
			failures++
		}
	}
	// At tiny scale some shape noise is tolerable, but the majority of the
	// paper's qualitative findings must hold.
	if failures*2 > len(checks) {
		t.Fatalf("%d/%d shape checks failed", failures, len(checks))
	}
}

func TestWidthAblation(t *testing.T) {
	ds := datasets.PyrimidinesSized(36, 30, 3)
	ds.Search.NodesLimit = 60
	ds.Search.MaxClauseLen = 2
	ab, err := RunWidthAblation(ds, 2, []int{1, WidthUnlimited}, 2, 3, DefaultCost(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ab.Render(&buf)
	if !strings.Contains(buf.String(), "Ablation A") {
		t.Fatalf("render: %s", buf.String())
	}
	if len(ab.Rows) != 2 || len(ab.Rows[0].P2) != 2 || len(ab.Rows[1].P2) != 2 {
		t.Fatalf("missing folds: %+v", ab.Rows)
	}
}

func TestParcovAblation(t *testing.T) {
	ds := datasets.PyrimidinesSized(40, 36, 3)
	ds.Search.NodesLimit = 60
	ds.Search.MaxClauseLen = 2
	ab, err := RunParcovAblation(ds, []int{2}, 2, 3, DefaultCost(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Ablation B") || !strings.Contains(out, "parcov") {
		t.Fatalf("render: %s", out)
	}
	// The defining contrast: parcov sends far more messages than p²-mdie.
	if pc, p2 := ab.Rows[0].Parcov[0].Msgs, ab.Rows[0].P2[0].Msgs; pc <= p2 {
		t.Fatalf("parcov messages (%v) should exceed p2 messages (%v)", pc, p2)
	}
}

func TestProgressOutput(t *testing.T) {
	cfg := tinyConfig()
	cfg.Folds = 2
	cfg.Procs = []int{2}
	cfg.Widths = []int{5}
	var buf bytes.Buffer
	if _, err := Run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sequential") {
		t.Fatalf("no progress lines: %q", buf.String())
	}
}
