package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestRenderSpeedupChart(t *testing.T) {
	res := sharedRun(t)
	var buf bytes.Buffer
	res.RenderSpeedupChart(&buf)
	out := buf.String()
	if !strings.Contains(out, "Speedup vs processors") {
		t.Fatalf("chart header missing:\n%s", out)
	}
	// One ideal-linear mark per processor column.
	if got := strings.Count(out, "+"); got < len(res.Cfg.Procs) {
		t.Fatalf("ideal marks: %d\n%s", got, out)
	}
	// Both width series plotted.
	if !strings.Contains(out, "o") || !strings.Contains(out, "*") {
		t.Fatalf("series marks missing:\n%s", out)
	}
	// Axis labels.
	for _, p := range res.Cfg.Procs {
		if !strings.Contains(out, "p="+itoa(p)) {
			t.Fatalf("missing x label p=%d:\n%s", p, out)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestNoiseAblation(t *testing.T) {
	ab, err := RunNoiseAblation(36, 30, 2, 2, []float64{0, 0.25}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Ablation D") {
		t.Fatalf("render: %s", out)
	}
	// Noise-free accuracy should dominate noisy accuracy for both learners.
	clean, noisy := ab.Rows[0], ab.Rows[1]
	if mean(clean.Seq, accOf) < mean(noisy.Seq, accOf) {
		t.Fatalf("sequential: noise-free (%v) worse than noisy (%v)", col(clean.Seq, accOf), col(noisy.Seq, accOf))
	}
	if len(clean.P2) != 2 || len(noisy.P2) != 2 {
		t.Fatalf("missing folds: %+v", ab.Rows)
	}
}

func TestRepartitionAblationHarness(t *testing.T) {
	res := sharedRun(t) // ensure datasets exist; reuse one
	_ = res
	ds := res.Cfg.Datasets[0]
	ab, err := RunRepartitionAblation(ds, 2, 2, 3, DefaultCost(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ab.Render(&buf)
	if !strings.Contains(buf.String(), "Ablation C") {
		t.Fatalf("render: %s", buf.String())
	}
	if len(ab.Rows) != 2 || len(ab.Rows[0].P2) != 2 || len(ab.Rows[1].P2) != 2 {
		t.Fatalf("folds missing: %+v", ab.Rows)
	}
}
