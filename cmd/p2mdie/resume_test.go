package main

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The crash-resume e2e: a real TCP master running with -checkpoint is
// killed by the -crashat faultline schedule (exit 137, the kill -9 status),
// its worker processes go into the orphan regime (which -checkpoint alone
// switches on) and redial, and a fresh `p2mdie -resume` process re-binds the checkpointed
// address, rolls the cluster back and finishes the run — with a theory
// byte-identical to a failure-free run's. This is the acceptance bar for
// master fault tolerance over the real transport.

// TestCrashResumeByteIdentity crashes the master at three different
// protocol ops (one inside the first epoch, two several epochs in) and
// requires the resumed run's theory to match the failure-free simulated
// run's exactly.
func TestCrashResumeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-resume e2e skipped in -short")
	}
	bin := binary(t)
	dsArgs := []string{"-dataset", "pyrimidines", "-scale", "0.05", "-seed", "1"}

	// Failure-free baseline (the simulated run learns the same theory as a
	// TCP run by TestLoopbackMatchesSimulated, so it anchors both).
	baseCtx, baseCancel := context.WithTimeout(context.Background(), 120*time.Second)
	want := theorySection(t, run(t, baseCtx, bin, append(append([]string{}, dsArgs...),
		"-workers", "2", "-width", "10", "-v", "-q")...))
	baseCancel()

	// The master sees ~80 protocol ops on this dataset at p=2: op 8 is
	// inside the first epoch (right after load), ops 40 and 60 several
	// epochs deep; all are well before the final stop broadcast (a crash
	// there is unresumable — the workers have already exited).
	for _, crashAt := range []int64{8, 40, 60} {
		crashAt := crashAt
		t.Run(fmt.Sprintf("crashat=%d", crashAt), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
			defer cancel()
			ckdir := t.TempDir()

			w1 := startWorker(t, ctx, bin, dsArgs)
			w2 := startWorker(t, ctx, bin, dsArgs)

			// The doomed master: durable (so its workers turn orphans
			// rather than die), scheduled crash. It must die with the kill -9 exit status, not fail(1).
			crashArgs := append(append([]string{}, dsArgs...),
				"-master", "-workers", w1.addr+","+w2.addr, "-width", "10",
				"-listen", "127.0.0.1:0", "-checkpoint", ckdir,
				"-crashat", strconv.FormatInt(crashAt, 10), "-q")
			out, err := exec.CommandContext(ctx, bin, crashArgs...).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != crashExitCode {
				t.Fatalf("crash master: want exit %d, got err=%v\n%s", crashExitCode, err, out)
			}

			// The second process takes over from the checkpoint; the orphaned
			// workers redial the checkpointed -listen address and the run
			// completes end to end.
			resumeOut := run(t, ctx, bin, append(append([]string{}, dsArgs...),
				"-resume", "-checkpoint", ckdir, "-v", "-q")...)
			if err := w1.cmd.Wait(); err != nil {
				t.Fatalf("worker 1 after resume: %v\n%s", err, w1.out.String())
			}
			if err := w2.cmd.Wait(); err != nil {
				t.Fatalf("worker 2 after resume: %v\n%s", err, w2.out.String())
			}

			if got := theorySection(t, resumeOut); got != want {
				t.Fatalf("resumed theory differs from failure-free run:\n--- failure-free ---\n%s--- resumed ---\n%s", want, got)
			}
			if !strings.Contains(resumeOut, "restarts=1") {
				t.Fatalf("resumed metrics line does not report restarts=1:\n%s", resumeOut)
			}
		})
	}
}

var linkFlapsRe = regexp.MustCompile(`linkflaps=(\d+)`)

// TestLinkFlapE2E severs every live TCP link of a real master mid-run
// (-flapat 40, the master's 40th protocol op) with the link-session layer
// on in every process (-linkgrace is per node: a worker without it refuses
// the master's resume handshake). The grace window redials and replays the
// gap, so the run must report at least one link flap, no recovery, and the
// theory of a failure-free run.
func TestLinkFlapE2E(t *testing.T) {
	bin := binary(t)
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	dsArgs := []string{"-dataset", "pyrimidines", "-scale", "0.05", "-seed", "1"}

	want := theorySection(t, run(t, ctx, bin, append(append([]string{}, dsArgs...),
		"-workers", "2", "-width", "10", "-v", "-q")...))

	grace := append(append([]string{}, dsArgs...), "-linkgrace", "10s")
	w1 := startWorker(t, ctx, bin, grace)
	w2 := startWorker(t, ctx, bin, grace)
	out := run(t, ctx, bin, append(append([]string{}, grace...),
		"-master", "-workers", w1.addr+","+w2.addr, "-width", "10", "-flapat", "40", "-v")...)
	if err := w1.cmd.Wait(); err != nil {
		t.Fatalf("worker 1: %v\n%s", err, w1.out.String())
	}
	if err := w2.cmd.Wait(); err != nil {
		t.Fatalf("worker 2: %v\n%s", err, w2.out.String())
	}

	if m := linkFlapsRe.FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Fatalf("master reported no link flap:\n%s", out)
	}
	if m := recoveriesRe.FindStringSubmatch(out); m != nil && m[1] != "0" {
		t.Fatalf("a link flap inside the grace window cost a recovery:\n%s", out)
	}
	if got := theorySection(t, out); got != want {
		t.Fatalf("flapped theory differs from failure-free run:\n--- failure-free ---\n%s--- flapped ---\n%s", want, got)
	}
}
