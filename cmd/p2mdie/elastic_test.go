package main

import (
	"bufio"
	"context"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	ilp "repro"
	"repro/internal/datasets"
)

// The elastic e2e: a real multi-process TCP deployment grows mid-run. The
// master starts with two workers and a join listener; a third worker
// process attaches itself with -join, must be welcomed into the ring,
// receive a non-empty share at the rebalance barrier, and the run's theory
// must pass the same validity bar as the kill -9 chaos e2e.

var (
	joinAddrRe   = regexp.MustCompile(`accepting joins on (\S+)`)
	joinedRe     = regexp.MustCompile(`rebalances=(\d+) joined=(\d+)`)
	joinSharesRe = regexp.MustCompile(`join shares=\[([0-9 ]+)\]`)
)

func TestElasticJoinMidRun(t *testing.T) {
	bin := binary(t)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	dsArgs := []string{"-dataset", "pyrimidines", "-scale", "0.15", "-seed", "1"}

	w1 := startChaosWorker(t, ctx, bin, dsArgs)
	w2 := startChaosWorker(t, ctx, bin, dsArgs)

	masterArgs := append(append([]string{}, dsArgs...),
		"-master", "-workers", w1.addr+","+w2.addr,
		"-listen", "127.0.0.1:0", "-balance", "-width", "10", "-v", "-q")
	master := exec.CommandContext(ctx, bin, masterArgs...)
	out, err := master.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	master.Stderr = master.Stdout
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}

	// Scrape the master's actual join address, then attach the third
	// worker while the run is warming up (13 epochs of runway at this
	// scale, so the between-epoch admission point is comfortably ahead).
	sc := bufio.NewScanner(out)
	joinAddr := ""
	var masterOut strings.Builder
	for sc.Scan() {
		line := sc.Text()
		masterOut.WriteString(line + "\n")
		if m := joinAddrRe.FindStringSubmatch(line); m != nil {
			joinAddr = m[1]
			break
		}
	}
	if joinAddr == "" {
		t.Fatalf("master never printed its join address:\n%s", masterOut.String())
	}

	joinerArgs := append(append([]string{}, dsArgs...), "-join", joinAddr, "-q")
	joinerOut, err := exec.CommandContext(ctx, bin, joinerArgs...).CombinedOutput()
	if err != nil {
		t.Fatalf("joiner failed: %v\n%s", err, joinerOut)
	}
	if !strings.Contains(string(joinerOut), "joined running cluster as node 3 of 4") {
		t.Fatalf("joiner did not report joining as node 3:\n%s", joinerOut)
	}
	if !strings.Contains(string(joinerOut), "worker 3 done") {
		t.Fatalf("joiner did not serve the run to completion:\n%s", joinerOut)
	}

	for sc.Scan() {
		masterOut.WriteString(sc.Text() + "\n")
	}
	if err := master.Wait(); err != nil {
		t.Fatalf("master failed: %v\n%s", err, masterOut.String())
	}
	stdout := masterOut.String()

	m := joinedRe.FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("master reported no join/rebalance counters:\n%s", stdout)
	}
	rebalances, _ := strconv.Atoi(m[1])
	joined, _ := strconv.Atoi(m[2])
	if joined != 1 {
		t.Fatalf("joined = %d, want 1\n%s", joined, stdout)
	}
	if rebalances < 1 {
		t.Fatalf("rebalances = %d, want ≥ 1\n%s", rebalances, stdout)
	}
	sm := joinSharesRe.FindStringSubmatch(stdout)
	if sm == nil {
		t.Fatalf("master reported no join shares:\n%s", stdout)
	}
	share, _ := strconv.Atoi(strings.Fields(sm[1])[0])
	if share <= 0 {
		t.Fatalf("joiner's share is empty (%q)\n%s", sm[1], stdout)
	}

	// Theory validity: the same bar as the chaos e2e — every positive of
	// the full dataset covered (or adopted) under the learned theory.
	theory, err := ilp.ParseTheory(theorySection(t, stdout))
	if err != nil {
		t.Fatalf("parsing learned theory: %v\n%s", err, stdout)
	}
	ds, err := datasets.ByNameScaled("pyrimidines", 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cov := ilp.Accuracy(ds, theory, ds.Pos, nil); cov != 1.0 {
		t.Fatalf("positive coverage after elastic run = %.4f, want 1.0\n%s", cov, stdout)
	}

	// The original workers exit cleanly once the master closes.
	if err := w1.cmd.Wait(); err != nil {
		t.Fatalf("worker 1: %v\n%s", err, w1.output())
	}
	if err := w2.cmd.Wait(); err != nil {
		t.Fatalf("worker 2: %v\n%s", err, w2.output())
	}
}
