package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildDaemon compiles nevermindd into dir.
func buildDaemon(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "nevermindd")
	cmd := exec.Command("go", "build", "-o", bin, "nevermind/cmd/nevermindd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build nevermindd: %v\n%s", err, out)
	}
	return bin
}

// running lists live processes whose command line starts with bin.
func running(t *testing.T, bin string) []string {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		cl, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil || !bytes.HasPrefix(cl, []byte(bin+"\x00")) {
			continue
		}
		st, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err == nil && bytes.Contains(st, []byte(") Z ")) {
			continue // exited, awaiting its parent's wait
		}
		out = append(out, e.Name())
	}
	return out
}

func testEnv(t *testing.T, dir string) *env {
	t.Helper()
	e := &env{
		work:    dir,
		daemon:  buildDaemon(t, dir),
		seed:    5,
		seconds: 1,
		procs:   &procSet{},
		hc:      &http.Client{Timeout: time.Minute},
	}
	// A gateway binary that rejects its flags: the shards come up, the
	// gateway never listens, and set-up fails part-way.
	e.gateway = e.daemon
	md := filepath.Join(dir, "models")
	if err := os.Mkdir(md, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := trainModels(md, e.seed, testLines, testRounds); err != nil {
		t.Fatal(err)
	}
	e.models = modelPaths{pred: filepath.Join(md, "predictor.gob.gz"), loc: filepath.Join(md, "locator.gob.gz")}
	return e
}

// TestFailedRunLeavesNoServers fails a desk set-up after both shards are
// running and requires that no nevermindd survives it.
func TestFailedRunLeavesNoServers(t *testing.T) {
	e := testEnv(t, t.TempDir())
	defer e.procs.killAll()
	_, err := e.bringUpDesk(context.Background(), &stream{})
	if err == nil {
		t.Fatal("set-up with a broken gateway succeeded")
	}
	if !strings.Contains(err.Error(), "gateway") {
		t.Fatalf("set-up failed for the wrong reason: %v", err)
	}
	if left := running(t, e.daemon); len(left) > 0 {
		t.Fatalf("failed set-up left server processes running: pids %v", left)
	}
}

// TestInterruptKillsServers runs a benchmark process that has started two
// shards, interrupts it with SIGINT, and requires that it exits and that
// no nevermindd survives it.
func TestInterruptKillsServers(t *testing.T) {
	if os.Getenv("PERFBENCH_HELPER_DIR") != "" {
		t.Skip("helper process")
	}
	dir := t.TempDir()
	e := testEnv(t, dir)
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperHoldsShards$", "-test.v")
	cmd.Env = append(os.Environ(), "PERFBENCH_HELPER_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	sc := bufio.NewScanner(out)
	ready := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "shards up") {
			ready = true
			break
		}
	}
	if !ready {
		t.Fatal("helper never reported its shards up")
	}
	if n := len(running(t, e.daemon)); n != 2 {
		t.Fatalf("%d shards running before the interrupt, want 2", n)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	go func() {
		for sc.Scan() {
		}
	}()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("benchmark process ignored SIGINT")
	}
	if left := running(t, e.daemon); len(left) > 0 {
		t.Fatalf("interrupted run left server processes running: pids %v", left)
	}
}

// TestHelperHoldsShards is TestInterruptKillsServers's benchmark process:
// it installs the same signal handling as main, starts two shards and
// waits to be interrupted.
func TestHelperHoldsShards(t *testing.T) {
	dir := os.Getenv("PERFBENCH_HELPER_DIR")
	if dir == "" {
		t.Skip("run by TestInterruptKillsServers")
	}
	e := &env{work: dir, daemon: filepath.Join(dir, "nevermindd"), seed: 5, procs: &procSet{},
		models: modelPaths{pred: filepath.Join(dir, "models", "predictor.gob.gz"), loc: filepath.Join(dir, "models", "locator.gob.gz")}}
	ctx, stop := interruptible(e.procs)
	defer stop()
	if _, err := e.startShards(deskLines); err != nil {
		t.Fatal(err)
	}
	fmt.Println("shards up")
	<-ctx.Done()
	e.procs.killAll()
	os.Exit(130)
}
