package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
)

// The rendering golden feeds every table fixed synthetic measurements —
// no learning, so neither the learners nor the simulator's schedule can
// move it. Each input is a function of (dataset, width, procs, fold).

const synthFolds = 3

func synSeqTime(d, f int) float64 { return 100 + 10*float64(d) + 3*float64(f) }
func synSeqAcc(d, f int) float64  { return 0.78 + 0.05*float64(d) + 0.02*float64(f) }

func synParTime(d, wi, p, f int) float64 {
	return synSeqTime(d, f) / (float64(p) * (0.55 + 0.1*float64(wi))) * (1 + 0.01*float64(f))
}
func synComm(d, wi, p, f int) float64 {
	return 0.25*float64(p)*(2-float64(wi)) + 0.1*float64(d) + 0.01*float64(f)
}
func synEpochs(d, wi, p, f int) float64 { return float64(24/p + f + 3*wi + d) }

// parAccOf is significantly above the sequential accuracy on dataset 0,
// and indistinguishable from it on dataset 1.
func synParAcc(d, wi, p, f int) float64 {
	if d == 0 {
		return synSeqAcc(d, f) + 0.03 + 0.001*float64(f+p)
	}
	return synSeqAcc(d, f) + 0.01*float64(f-1)*float64(wi+1)
}

func synTraffic(p int) cluster.Traffic {
	tr := cluster.NewTraffic(p + 1)
	for i := 1; i <= p; i++ {
		tr.Add(0, i, int64(1000*i), int64(10+i))
		tr.Add(i, 0, int64(400*i), int64(5+i))
		tr.Add(i, i%p+1, int64(70*i), int64(2*i))
	}
	return tr
}

// synthResults sweeps two datasets over p ∈ {2, 4, 8} and the widths.
func synthResults(widths ...int) *Results {
	cfg := Config{
		Datasets: []*datasets.Dataset{{Name: "alpha"}, {Name: "beta"}},
		Procs:    []int{2, 4, 8},
		Widths:   widths,
		Folds:    synthFolds,
		Seed:     1,
	}
	r := &Results{Cfg: cfg, Seq: map[string][]Record{}, Par: map[Key][]Record{}}
	for d, ds := range cfg.Datasets {
		for f := 0; f < synthFolds; f++ {
			r.Seq[ds.Name] = append(r.Seq[ds.Name], Record{Time: synSeqTime(d, f), Acc: synSeqAcc(d, f)})
			for wi, w := range cfg.Widths {
				for _, p := range cfg.Procs {
					k := Key{ds.Name, w, p}
					run := Record{
						Time:   synParTime(d, wi, p, f),
						MB:     synComm(d, wi, p, f),
						Epochs: synEpochs(d, wi, p, f),
						Acc:    synParAcc(d, wi, p, f),
					}
					if f == 0 {
						run.Links = synTraffic(p)
					}
					r.Par[k] = append(r.Par[k], run)
				}
			}
		}
	}
	return r
}

// foldRuns returns one run a fold, each filled in by fn.
func foldRuns(fn func(f int, r *Record)) []Record {
	out := make([]Record, synthFolds)
	for f := range out {
		fn(f, &out[f])
	}
	return out
}

func TestRenderGolden(t *testing.T) {
	var buf bytes.Buffer
	r := synthResults(WidthUnlimited, 10)
	r.RenderAll(&buf)
	fmt.Fprintln(&buf)
	r.RenderSpeedupChart(&buf)
	for _, c := range r.ShapeChecks() {
		fmt.Fprintln(&buf, c)
	}
	fmt.Fprintln(&buf)

	seq := foldRuns(func(f int, r *Record) { r.Time = synSeqTime(0, f) })
	widths := []int{1, 5, 10, 50, WidthUnlimited}
	a := widthAblation("alpha", 8, widths)
	for wi := range widths {
		a.Rows[wi].Seq = seq
		a.Rows[wi].P2 = foldRuns(func(f int, r *Record) {
			r.Time, r.MB = synParTime(0, wi, 8, f), synComm(0, 0, 8, f)/float64(wi+1)
		})
	}
	b := parcovAblation("alpha", []int{2, 4, 8})
	for i, p := range []int{2, 4, 8} {
		b.Rows[i].Seq = seq
		b.Rows[i].P2 = foldRuns(func(f int, r *Record) {
			r.Time, r.Msgs = synParTime(0, 1, p, f), 10*synEpochs(0, 1, p, f)
		})
		b.Rows[i].Parcov = foldRuns(func(f int, r *Record) {
			r.Time, r.Msgs = 2*synParTime(0, 0, p, f), 700*synEpochs(0, 0, p, f)
		})
	}
	policyRuns := func(i int) []Record {
		return foldRuns(func(f int, r *Record) {
			r.Time, r.MB, r.Epochs = synParTime(1, i, 8, f), synComm(1, i, 8, f)*float64(1+i), synEpochs(1, i, 8, f)
			r.Rebal = float64(i * (f + 1))
		})
	}
	c := repartitionAblation("beta", 8)
	e := balanceAblation(48, 0.25, 4)
	for _, ab := range []*Ablation{c, e} {
		for i := range ab.Rows {
			ab.Rows[i].P2 = policyRuns(i)
		}
	}
	noises := []float64{0, 0.1, 0.2, 0.3}
	d := noiseAblation(4, noises)
	for i, n := range noises {
		d.Rows[i].Seq = foldRuns(func(f int, r *Record) { r.Acc = synSeqAcc(i%2, f) - n })
		d.Rows[i].P2 = foldRuns(func(f int, r *Record) { r.Acc = synParAcc(i%2, 0, 4, f) - n })
	}
	for _, ab := range []*Ablation{a, b, c, d, e} {
		ab.Render(&buf)
		fmt.Fprintln(&buf)
	}

	golden := filepath.Join("testdata", "render.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got := buf.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("render drifted from %s at line %d:\n got %q\nwant %q", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("render drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// TestShapeChecksFindUnlimitedByValue pins the width check to the nolimit
// cell wherever the sweep lists it, once per limited width, and skips it
// when the sweep has no nolimit run to compare against.
func TestShapeChecksFindUnlimitedByValue(t *testing.T) {
	widthChecks := func(r *Results) []string {
		var out []string
		for _, c := range r.ShapeChecks() {
			if strings.Contains(c, "width-limited") {
				out = append(out, c)
			}
		}
		return out
	}
	// Listed second, nolimit is still the unlimited side; synComm makes
	// the first-listed width the costlier one here.
	got := widthChecks(synthResults(10, WidthUnlimited))
	want := "FAIL: alpha: width-limited communication (4.01 MB) ≤ unlimited (2.01 MB) at p=8"
	if len(got) != 2 || got[0] != want {
		t.Fatalf("widths 10,nolimit: %q, want %q first of 2", got, want)
	}
	if got := widthChecks(synthResults(5, 10)); len(got) != 0 {
		t.Fatalf("widths 5,10 have no unlimited run, yet: %q", got)
	}
	if got := widthChecks(synthResults(WidthUnlimited, 5, 10)); len(got) != 4 {
		t.Fatalf("widths nolimit,5,10: %d checks, want 2 a dataset: %q", len(got), got)
	}
}
