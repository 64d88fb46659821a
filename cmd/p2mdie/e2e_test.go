package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// The e2e tests exercise the built binary: a real master process and real
// worker processes talking over loopback TCP, asserting the learned
// theory is byte-identical to the simulated-cluster run — the acceptance
// bar for the multi-process deployment.

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "p2mdie-e2e")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "p2mdie")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// syncBuffer is a bytes.Buffer safe for the two writers a workerProc has:
// the exec stderr copier and the stdout scanner goroutine (the suite runs
// under -race in CI).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) WriteString(x string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.WriteString(x)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// workerProc is one spawned -serve process.
type workerProc struct {
	cmd  *exec.Cmd
	addr string
	out  *syncBuffer
}

// startWorker launches a worker on an ephemeral port and scrapes its
// actual address from the "listening on" line.
func startWorker(t *testing.T, ctx context.Context, bin string, datasetArgs []string) *workerProc {
	t.Helper()
	args := append(append([]string{}, datasetArgs...), "-serve", "127.0.0.1:0", "-q")
	cmd := exec.CommandContext(ctx, bin, args...)
	buf := &syncBuffer{}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		t.Fatalf("worker produced no output; stderr: %s", buf.String())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		cmd.Process.Kill()
		t.Fatalf("worker first line %q has no address", line)
	}
	w := &workerProc{cmd: cmd, addr: strings.TrimSpace(line[i+len(marker):]), out: buf}
	go func() {
		for sc.Scan() {
			buf.WriteString(sc.Text() + "\n")
		}
		io.Copy(io.Discard, stdout)
	}()
	return w
}

func run(t *testing.T, ctx context.Context, bin string, args ...string) string {
	t.Helper()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("p2mdie %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// theorySection extracts the printed theory (the lines after "theory:").
func theorySection(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "theory:\n")
	if i < 0 {
		t.Fatalf("no theory section in output:\n%s", out)
	}
	return out[i+len("theory:\n"):]
}

var shapeRe = regexp.MustCompile(`(\d+) rules \((\d+) adopted facts\), (\d+) epochs`)

// TestLoopbackMatchesSimulated spawns 1 master + 2 workers as separate
// processes over loopback TCP on each paper dataset and requires the
// learned theory to be byte-identical to the simulated-cluster run's.
func TestLoopbackMatchesSimulated(t *testing.T) {
	bin := binary(t)
	for _, dataset := range []string{"pyrimidines", "mesh", "carcinogenesis"} {
		dataset := dataset
		t.Run(dataset, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			dsArgs := []string{"-dataset", dataset, "-scale", "0.05", "-seed", "1"}

			simOut := run(t, ctx, bin, append(append([]string{}, dsArgs...),
				"-workers", "2", "-width", "10", "-v", "-q")...)

			w1 := startWorker(t, ctx, bin, dsArgs)
			w2 := startWorker(t, ctx, bin, dsArgs)
			tcpOut := run(t, ctx, bin, append(append([]string{}, dsArgs...),
				"-master", "-workers", w1.addr+","+w2.addr, "-width", "10", "-v", "-q")...)
			if err := w1.cmd.Wait(); err != nil {
				t.Fatalf("worker 1: %v\n%s", err, w1.out.String())
			}
			if err := w2.cmd.Wait(); err != nil {
				t.Fatalf("worker 2: %v\n%s", err, w2.out.String())
			}

			simTheory := theorySection(t, simOut)
			tcpTheory := theorySection(t, tcpOut)
			if simTheory != tcpTheory {
				t.Fatalf("theories differ on %s:\n--- simulated ---\n%s--- tcp ---\n%s", dataset, simTheory, tcpTheory)
			}
			simShape := shapeRe.FindString(simOut)
			tcpShape := shapeRe.FindString(tcpOut)
			if simShape == "" || simShape != tcpShape {
				t.Fatalf("run shapes differ: sim %q vs tcp %q", simShape, tcpShape)
			}
		})
	}
}

// TestTrafficJSON checks the -traffic json dump on both transports: valid
// JSON, correct node count, and the same per-link accounting shape.
func TestTrafficJSON(t *testing.T) {
	bin := binary(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	dsArgs := []string{"-dataset", "trains", "-seed", "1"}

	extract := func(out string) trafficDump {
		i := strings.Index(out, "{")
		j := strings.LastIndex(out, "}")
		if i < 0 || j < i {
			t.Fatalf("no JSON object in output:\n%s", out)
		}
		var d trafficDump
		if err := json.Unmarshal([]byte(out[i:j+1]), &d); err != nil {
			t.Fatalf("traffic JSON: %v\n%s", err, out[i:j+1])
		}
		return d
	}

	simOut := run(t, ctx, bin, append(append([]string{}, dsArgs...),
		"-workers", "2", "-width", "5", "-traffic", "json", "-q")...)
	sim := extract(simOut)
	if sim.Transport != "sim" || sim.Nodes != 3 || sim.TotalMsgs <= 0 || len(sim.Links) == 0 {
		t.Fatalf("bad sim traffic dump: %+v", sim)
	}

	w1 := startWorker(t, ctx, bin, dsArgs)
	w2 := startWorker(t, ctx, bin, dsArgs)
	tcpOut := run(t, ctx, bin, append(append([]string{}, dsArgs...),
		"-master", "-workers", w1.addr+","+w2.addr, "-width", "5", "-traffic", "json", "-q")...)
	w1.cmd.Wait()
	w2.cmd.Wait()
	tcp := extract(tcpOut)
	if tcp.Transport != "tcp" || tcp.Nodes != 3 || tcp.TotalMsgs != sim.TotalMsgs {
		t.Fatalf("bad tcp traffic dump (sim msgs %d): %+v", sim.TotalMsgs, tcp)
	}
	// Worker-originated links are byte-identical across transports; the
	// master's rows differ only by the partition shipping in kindLoad.
	simBytes := map[string]int64{}
	for _, l := range sim.Links {
		simBytes[fmt.Sprintf("%d>%d", l.From, l.To)] = l.Bytes
	}
	for _, l := range tcp.Links {
		want, ok := simBytes[fmt.Sprintf("%d>%d", l.From, l.To)]
		if !ok {
			t.Errorf("tcp has link %d->%d the simulation lacks", l.From, l.To)
			continue
		}
		if l.From != 0 && l.Bytes != want {
			t.Errorf("link %d->%d bytes: tcp %d vs sim %d", l.From, l.To, l.Bytes, want)
		}
		if l.From == 0 && l.Bytes <= want {
			t.Errorf("link %d->%d bytes: tcp %d should exceed sim %d (partition shipping)", l.From, l.To, l.Bytes, want)
		}
	}
}

// TestFingerprintMismatchFailsFast starts a worker on a different dataset
// and requires the master to reject the join with a useful error.
func TestFingerprintMismatchFailsFast(t *testing.T) {
	bin := binary(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := startWorker(t, ctx, bin, []string{"-dataset", "mesh", "-scale", "0.05", "-seed", "1"})
	out, err := exec.CommandContext(ctx, bin,
		"-dataset", "trains", "-seed", "1",
		"-master", "-workers", w.addr, "-q").CombinedOutput()
	if err == nil {
		t.Fatalf("master accepted a worker loaded with a different dataset:\n%s", out)
	}
	if !strings.Contains(string(out), "fingerprint") {
		t.Fatalf("error does not mention the fingerprint:\n%s", out)
	}
	w.cmd.Wait() // worker exits (join rejected)
}

// TestFingerprintMismatchAmongWorkersFailsFast is its sibling with the
// mismatched worker first and a good one beside it: the workers are
// admitted concurrently, so the refusal must fail the master, naming the
// fingerprint, and leave neither worker process behind — the mismatched
// one refuses the welcome, the good one sees its master link die. (Were
// the admissions made one after another, the refusal would end the join
// before the good worker was dialed, and it would wait out its 60 s
// JoinTimeout.)
func TestFingerprintMismatchAmongWorkersFailsFast(t *testing.T) {
	bin := binary(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bad := startWorker(t, ctx, bin, []string{"-dataset", "mesh", "-scale", "0.05", "-seed", "1"})
	good := startWorker(t, ctx, bin, []string{"-dataset", "trains", "-seed", "1"})
	out, err := exec.CommandContext(ctx, bin,
		"-dataset", "trains", "-seed", "1",
		"-master", "-workers", bad.addr+","+good.addr, "-q").CombinedOutput()
	if err == nil {
		t.Fatalf("master accepted a worker loaded with a different dataset:\n%s", out)
	}
	if !strings.Contains(string(out), "fingerprint") {
		t.Fatalf("error does not mention the fingerprint:\n%s", out)
	}
	for name, w := range map[string]*workerProc{"mismatched": bad, "good": good} {
		if werr := w.cmd.Wait(); ctx.Err() != nil {
			t.Fatalf("the %s worker was still running when the test timed out (%v); stderr:\n%s", name, werr, w.out.String())
		}
	}
}
