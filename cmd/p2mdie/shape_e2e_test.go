package main

import (
	"context"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestShapedLinkMatchesLoopback runs master + 2 workers through the
// userspace link shaper (every process wrapped, symmetric links) and
// requires the same theory as raw loopback: shaping stretches time, not
// semantics.
func TestShapedLinkMatchesLoopback(t *testing.T) {
	bin := binary(t)
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	dsArgs := []string{"-dataset", "trains", "-seed", "1"}
	shapeArg := []string{"-shape", "lat=1ms,bw=200mbit"}

	w1 := startWorker(t, ctx, bin, dsArgs)
	w2 := startWorker(t, ctx, bin, dsArgs)
	plainOut := run(t, ctx, bin, append(append([]string{}, dsArgs...),
		"-master", "-workers", w1.addr+","+w2.addr, "-width", "5", "-v", "-q")...)
	w1.cmd.Wait()
	w2.cmd.Wait()

	s1 := startWorker(t, ctx, bin, append(append([]string{}, dsArgs...), shapeArg...))
	s2 := startWorker(t, ctx, bin, append(append([]string{}, dsArgs...), shapeArg...))
	shapedOut := run(t, ctx, bin, append(append(append([]string{}, dsArgs...), shapeArg...),
		"-master", "-workers", s1.addr+","+s2.addr, "-width", "5", "-v", "-q")...)
	if err := s1.cmd.Wait(); err != nil {
		t.Fatalf("shaped worker 1: %v\n%s", err, s1.out.String())
	}
	if err := s2.cmd.Wait(); err != nil {
		t.Fatalf("shaped worker 2: %v\n%s", err, s2.out.String())
	}

	if a, b := theorySection(t, plainOut), theorySection(t, shapedOut); a != b {
		t.Fatalf("shaped link changed the theory:\n--- loopback ---\n%s--- shaped ---\n%s", a, b)
	}
	if a, b := shapeRe.FindString(plainOut), shapeRe.FindString(shapedOut); a == "" || a != b {
		t.Fatalf("run shapes differ: loopback %q vs shaped %q", a, b)
	}
}

// runErr runs the binary expecting a non-zero exit, returning combined
// output and the exec error.
func runErr(ctx context.Context, bin string, args ...string) (string, error) {
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	return string(out), err
}

// TestShapeFlagRejectsJunk pins the CLI contract: junk in -shape, and any
// flag set for a mode that never reads it, is an error naming what is wrong
// — never a run that silently ignores it.
func TestShapeFlagRejectsJunk(t *testing.T) {
	bin := binary(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range []struct {
		args []string
		want []string // in the error
	}{
		{[]string{"-shape", "lat=fast"}, []string{"shape"}},
		{[]string{"-workers", "2", "-shape", "bw=100Mbit"}, []string{`unknown unit "Mbit"`, "gbit, mbit, kbit, bit"}},
		{[]string{"-workers", "2", "-crashat", "3"}, []string{"-crashat", "sim mode"}},
		{[]string{"-workers", "0", "-linkgrace", "5s", "-flapat", "2", "-heartbeat", "1ms"}, []string{"-flapat", "-heartbeat", "-linkgrace", "sequential mode"}},
		{[]string{"-width", "4"}, []string{"-width", "sequential mode"}},
		{[]string{"-workers", "a,b", "-width", "4"}, []string{"-workers", "need a worker count"}},
		{[]string{"-workers", "2", "-listen", "127.0.0.1:0", "-orphantimeout", "1s"}, []string{"-listen", "-orphantimeout", "sim mode"}},
		{[]string{"-serve", "127.0.0.1:0", "-width", "4", "-recover", "-v"}, []string{"-recover", "-v", "-width", "-serve/-join mode"}},
		{[]string{"-resume", "-checkpoint", t.TempDir(), "-master", "-balance"}, []string{"-balance", "-master", "-resume mode"}},
		{[]string{"-scale", "0"}, []string{"scale 0 "}},
		{[]string{"-workers", "2", "-scale", "-1"}, []string{"scale -1 "}},
		{[]string{"-scale", "NaN"}, []string{"scale NaN "}},
		{[]string{"-scale", "+Inf"}, []string{"scale +Inf "}},
		{[]string{"-workers", "2", "-width", "-3"}, []string{"-width -3"}},
	} {
		out, err := runErr(ctx, bin, append([]string{"-dataset", "trains", "-q"}, c.args...)...)
		for _, w := range c.want {
			if err == nil || !strings.Contains(out, w) {
				t.Errorf("%v accepted or refused without naming %q: err=%v out=%s", c.args, w, err, out)
			}
		}
	}
}
