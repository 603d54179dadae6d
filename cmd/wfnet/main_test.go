package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestMain lets this test binary stand in for the wfnet executable:
// when the coordinator forks workers it execs os.Executable() — which
// under `go test` is the test binary — with the serve environment
// marker set, and we divert straight into run() instead of the suite.
func TestMain(m *testing.M) {
	if os.Getenv(serveEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestLocalMultiProcess is the multi-process smoke test: the travel
// workflow spread over two genuine OS worker processes plus the
// coordinator, every inter-site message crossing real sockets and
// process boundaries.
func TestLocalMultiProcess(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-local", "2", "../../testdata/travel.wf"},
		strings.NewReader(""), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "satisfied: true") {
		t.Errorf("run not satisfied:\n%s", got)
	}
	if strings.Contains(got, "UNRESOLVED") {
		t.Errorf("run left events unresolved:\n%s", got)
	}
	if !strings.Contains(got, "worker 2:") {
		t.Errorf("expected two workers in report:\n%s", got)
	}
}

// TestLocalSingleWorker: the degenerate partition (all sites on one
// worker) must behave identically.
func TestLocalSingleWorker(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-local", "1", "../../testdata/mutex.wf"},
		strings.NewReader(""), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "satisfied: true") {
		t.Errorf("run not satisfied:\n%s", out.String())
	}
}

// TestUsageErrors: flag misuse exits 2 without touching the network.
func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"../../testdata/travel.wf"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("no mode: exit %d, want 2", code)
	}
	if code := run([]string{"-serve", "../../testdata/travel.wf"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("-serve without -sites: exit %d, want 2", code)
	}
}

// TestWorkerSignalDrain: a SIGTERM'd worker drains instead of dying
// mid-write — it checkpoints its WAL, exits 0 (not the signal default
// 143), and leaves a log a restart can open and recover.
func TestWorkerSignalDrain(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	cmd := exec.Command(exe,
		"-serve", "-index", "1", "-sites", "buy,book",
		"-peers", "ctl=127.0.0.1:1",
		"-wal", walDir, "../../testdata/travel.wf")
	cmd.Env = append(os.Environ(), serveEnv+"=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	// Hold the control stream open: on stdin EOF the worker returns on
	// its own and unregisters the drain, and a SIGTERM landing after
	// that kills it with the default action.
	in, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "ADDR ") {
		cmd.Process.Kill()
		t.Fatalf("no ADDR handshake, got %q", sc.Text())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("signalled worker exited dirty: %v", err)
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("worker did not exit after SIGTERM")
	}

	// The drain checkpointed: the worker's log is non-empty and a
	// restart can open (i.e. recover) it without error.
	dir := filepath.Join(walDir, "proc1")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no WAL left behind: %v (%d entries)", err, len(entries))
	}
	var logBytes int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			logBytes += fi.Size()
		}
	}
	if logBytes == 0 {
		t.Fatal("WAL files are empty; drain wrote no checkpoint")
	}
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("drained WAL not recoverable: %v", err)
	}
	if l.Recovery() == nil {
		t.Fatal("no recovery state from drained WAL")
	}
	l.Close()
}
