package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The e2e test exercises the full learn-then-serve pipeline as separate
// processes: a real p2mdie run publishes snapshots, a real ilpserve process
// watches the directory, serves classifications with proof traces over
// HTTP, and hot-swaps when a second run publishes a newer snapshot.

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// binaries builds p2mdie and ilpserve once, returning their paths.
func binaries(t *testing.T) (p2mdie, ilpserve string) {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ilpserve-e2e")
		if err != nil {
			buildErr = err
			return
		}
		buildDir = dir
		for pkg, bin := range map[string]string{".": "ilpserve", "../p2mdie": "p2mdie"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(dir, bin), pkg).CombinedOutput()
			if err != nil {
				buildErr = fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(buildDir, "p2mdie"), filepath.Join(buildDir, "ilpserve")
}

// learn runs one p2mdie learning process to completion, publishing into dir.
func learn(t *testing.T, ctx context.Context, bin, dir string, extra ...string) {
	t.Helper()
	args := append([]string{"-dataset", "trains", "-publish", dir, "-q"}, extra...)
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("p2mdie %v: %v\n%s", args, err, out)
	}
}

// startServer launches ilpserve and scrapes its address from the first
// "listening on" stdout line.
func startServer(t *testing.T, ctx context.Context, bin string, args ...string) (baseURL string) {
	t.Helper()
	cmd := exec.CommandContext(ctx, bin, args...)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("ilpserve produced no output; stderr: %s", errBuf.String())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("ilpserve first line %q has no address", line)
	}
	go io.Copy(io.Discard, stdout)
	return "http://" + strings.TrimSpace(line[i+len(marker):])
}

// classifyResult mirrors the wire shape the test cares about.
type classifyResult struct {
	Snapshot string `json:"snapshot"`
	Dataset  string `json:"dataset"`
	Results  []struct {
		Example string `json:"example"`
		Covered bool   `json:"covered"`
		Rules   []struct {
			Rule    string `json:"rule"`
			Covered bool   `json:"covered"`
		} `json:"rules"`
		Proof json.RawMessage `json:"proof"`
	} `json:"results"`
}

func classify(t *testing.T, baseURL, example string) (*classifyResult, int) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"example": example})
	resp, err := http.Post(baseURL+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var cr classifyResult
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	return &cr, resp.StatusCode
}

// waitForSnapshot polls /classify until the active snapshot is id (the
// watcher needs a poll cycle to pick a publish up).
func waitForSnapshot(t *testing.T, baseURL, example, id string) *classifyResult {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		cr, code := classify(t, baseURL, example)
		if code == http.StatusOK && cr.Snapshot == id {
			return cr
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never served snapshot %s (last: %+v, status %d)", id, cr, code)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestLearnThenServeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	p2mdie, ilpserve := binaries(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	pub := t.TempDir()

	// Learn on the simulated cluster, publishing every epoch boundary.
	learn(t, ctx, p2mdie, pub, "-workers", "2", "-width", "4")

	// Serve the publish directory.
	baseURL := startServer(t, ctx, ilpserve, "-watch", pub, "-addr", "127.0.0.1:0", "-poll", "20ms")
	cr := waitForSnapshot(t, baseURL, "eastbound(east1)", "v1")
	if cr.Dataset != "trains" {
		t.Fatalf("served dataset %q, want trains", cr.Dataset)
	}
	res := cr.Results[0]
	if !res.Covered || len(res.Rules) == 0 {
		t.Fatalf("positive example not covered: %+v", res)
	}
	var root struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(res.Proof, &root); err != nil || root.Kind != "rule" {
		t.Fatalf("the proof trace's root is not a rule step (%v): %s", err, res.Proof)
	}
	if resp, err := http.Get(baseURL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	if cr, _ := classify(t, baseURL, "eastbound(west8)"); cr.Results[0].Covered {
		t.Fatalf("negative example covered: %+v", cr.Results[0])
	}

	// A second learning run publishes v2 into the same directory; the
	// watcher must hot-swap to it without a restart.
	learn(t, ctx, p2mdie, pub)
	waitForSnapshot(t, baseURL, "eastbound(east1)", "v2")

	// The registry still lists both versions, and a manual /activate pins
	// the old one.
	resp, err := http.Get(baseURL + "/snapshots")
	if err != nil {
		t.Fatal(err)
	}
	var snaps struct {
		Active    string `json:"active"`
		Snapshots []struct {
			ID string `json:"id"`
		} `json:"snapshots"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snaps)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snaps.Active != "v2" || len(snaps.Snapshots) != 2 {
		t.Fatalf("snapshots: active=%s n=%d, want v2/2", snaps.Active, len(snaps.Snapshots))
	}
	body, _ := json.Marshal(map[string]string{"snapshot": "v1"})
	aresp, err := http.Post(baseURL+"/activate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, aresp.Body)
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("activate v1: status %d", aresp.StatusCode)
	}
	if cr, _ := classify(t, baseURL, "eastbound(east1)"); cr.Snapshot != "v1" {
		t.Fatalf("after activate, served %s, want v1", cr.Snapshot)
	}
}
