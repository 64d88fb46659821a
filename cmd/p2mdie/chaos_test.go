package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	ilp "repro"
	"repro/internal/datasets"
)

// The chaos e2e: a real multi-process TCP deployment loses one of its
// three worker processes to kill -9 mid-epoch, and the -recover master
// must finish on the survivors with a theory that still covers (or
// adopted) every positive example — the acceptance bar of the
// fault-tolerant epoch engine.

// chaosWorker is a -serve process whose output is captured with
// synchronised access (the shared syncBuffer), for the failure messages.
type chaosWorker struct {
	cmd  *exec.Cmd
	addr string
	out  syncBuffer
}

func (w *chaosWorker) output() string { return w.out.String() }

// startChaosWorker launches a verbose worker on an ephemeral port and
// scrapes its actual address.
func startChaosWorker(t *testing.T, ctx context.Context, bin string, datasetArgs []string) *chaosWorker {
	t.Helper()
	args := append(append([]string{}, datasetArgs...), "-serve", "127.0.0.1:0")
	cmd := exec.CommandContext(ctx, bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout // interleave; we only grep for markers
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w := &chaosWorker{cmd: cmd}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		t.Fatal("worker produced no output")
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		cmd.Process.Kill()
		t.Fatalf("worker first line %q has no address", line)
	}
	w.addr = strings.TrimSpace(line[i+len(marker):])
	go func() {
		for sc.Scan() {
			w.out.WriteString(sc.Text() + "\n")
		}
	}()
	return w
}

// waitForFile polls until a file matching the glob pattern exists.
func waitForFile(t *testing.T, pattern string, timeout time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if m, _ := filepath.Glob(pattern); len(m) > 0 {
			return
		}
	}
	t.Fatalf("no file matching %s after %v", pattern, timeout)
}

var recoveriesRe = regexp.MustCompile(`recoveries=(\d+) lost=(\d+)`)

// TestChaosKillWorkerMidEpoch kills one of three TCP worker processes with
// SIGKILL mid-run. The -recover master must complete, report ≥ 1 recovery
// and exactly one lost worker, and produce a theory under which every
// positive of the full dataset is covered or adopted.
func TestChaosKillWorkerMidEpoch(t *testing.T) {
	bin := binary(t)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	dsArgs := []string{"-dataset", "pyrimidines", "-scale", "0.3", "-seed", "1"}

	w1 := startChaosWorker(t, ctx, bin, dsArgs)
	w2 := startChaosWorker(t, ctx, bin, dsArgs)
	w3 := startChaosWorker(t, ctx, bin, dsArgs)

	// -publish makes the master's epoch boundaries observable from here: it
	// writes a snapshot at each one, before it starts the next epoch.
	pub := t.TempDir()
	masterArgs := append(append([]string{}, dsArgs...),
		"-master", "-workers", w1.addr+","+w2.addr+","+w3.addr,
		"-width", "10", "-recover", "-publish", pub, "-v", "-q")
	master := exec.CommandContext(ctx, bin, masterArgs...)
	out, err := master.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	master.Stderr = master.Stdout
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill at the first epoch boundary: the victim has served a whole epoch,
	// and the run has some twenty more to go — however fast the box learns.
	waitForFile(t, filepath.Join(pub, "snap-*.isnap"), 60*time.Second)
	if err := w2.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	w2.cmd.Wait() // SIGKILL: error expected, reap it

	var buf strings.Builder
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		buf.WriteString(sc.Text() + "\n")
	}
	if err := master.Wait(); err != nil {
		t.Fatalf("master failed despite -recover: %v\n%s", err, buf.String())
	}
	stdout := buf.String()

	m := recoveriesRe.FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("master reported no recoveries:\n%s", stdout)
	}
	recoveries, _ := strconv.Atoi(m[1])
	lost, _ := strconv.Atoi(m[2])
	if recoveries < 1 {
		t.Fatalf("recoveries = %d, want ≥ 1\n%s", recoveries, stdout)
	}
	if lost != 1 {
		t.Fatalf("lost = %d, want 1\n%s", lost, stdout)
	}

	// Valid theory: every positive of the full dataset covered or adopted
	// (adopted facts are part of the printed theory). Re-load the same
	// dataset in-process and check coverage of the positives only.
	theory, err := ilp.ParseTheory(theorySection(t, stdout))
	if err != nil {
		t.Fatalf("parsing learned theory: %v", err)
	}
	ds, err := datasets.ByNameScaled("pyrimidines", 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cov := ilp.Accuracy(ds, theory, ds.Pos, nil); cov != 1.0 {
		t.Fatalf("positive coverage after recovery = %.4f, want 1.0\n%s", cov, stdout)
	}

	// The survivors must exit cleanly once the master closes.
	if err := w1.cmd.Wait(); err != nil {
		t.Fatalf("survivor 1: %v\n%s", err, w1.output())
	}
	if err := w3.cmd.Wait(); err != nil {
		t.Fatalf("survivor 3: %v\n%s", err, w3.output())
	}
}

// TestTrafficJSONGolden pins the -traffic json output shape byte-for-byte
// on a deterministic simulated run. Regenerate with UPDATE_GOLDEN=1 after
// intentional wire or accounting changes.
func TestTrafficJSONGolden(t *testing.T) {
	bin := binary(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out := run(t, ctx, bin, "-dataset", "trains", "-seed", "1",
		"-workers", "2", "-width", "5", "-traffic", "json", "-q")
	i := strings.Index(out, "{")
	j := strings.LastIndex(out, "}")
	if i < 0 || j < i {
		t.Fatalf("no JSON object in output:\n%s", out)
	}
	got := out[i:j+1] + "\n"

	// The shape must parse back into the documented dump struct with every
	// field populated, independent of the golden bytes.
	var d trafficDump
	if err := json.Unmarshal([]byte(got), &d); err != nil {
		t.Fatalf("traffic JSON does not parse: %v", err)
	}
	if d.Transport != "sim" || d.Nodes != 3 || d.TotalMsgs <= 0 || d.TotalBytes <= 0 || len(d.Links) == 0 {
		t.Fatalf("traffic JSON shape wrong: %+v", d)
	}

	golden := filepath.Join("testdata", "traffic_sim_trains.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("-traffic json drifted from golden %s.\nGot:\n%s\nWant:\n%s\nIf intentional, regenerate with UPDATE_GOLDEN=1.", golden, got, want)
	}
}
