package main

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/netwire"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// TestMain lets this test binary stand in for the wfnet executable:
// when the coordinator forks workers it execs os.Executable() — which
// under `go test` is the test binary — with the serve environment
// marker set, and we divert straight into run() instead of the suite.
// The suite itself fails if it leaves goroutines or descriptors
// behind: the coordinator's report readers and an in-process worker's
// report pusher must all end on Close and on stdin EOF.
func TestMain(m *testing.M) {
	if os.Getenv(serveEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
	}
	leakcheck.Main(m)
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

// TestWorkerReportsIdle runs a worker in this process: after PEERS it
// answers READY and pushes an IDLE report of an untouched node, then
// returns on stdin EOF.
func TestWorkerReportsIdle(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-serve", "-index", "1", "-sites", "buy,book", "../../testdata/travel.wf"},
		strings.NewReader("PEERS ctl=127.0.0.1:1\n"), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "ADDR ") || lines[1] != "READY" {
		t.Fatalf("worker wrote %q, want ADDR, READY, IDLE", lines)
	}
	addr := strings.TrimPrefix(lines[0], "ADDR ")
	if want := `IDLE {"ID":"proc1","Addr":"` + addr + `","Sent":{},"Delivered":{}}`; lines[2] != want {
		t.Fatalf("idle report %q, want %q", lines[2], want)
	}
}

// TestReportStreamFailure: a worker whose stdout breaks the protocol
// fails the cluster, and the idle wait then answers false at once
// instead of waiting out its timeout.  The stream is still read to its
// end, so a worker cannot block writing to it.
func TestReportStreamFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail []string // lines after one idle report; then the stream ends
		want string   // in the recorded failure
	}{
		{name: "malformed line", tail: []string{"IDLE {oops\n", "READY\n", "IDLE {}\n"}, want: "bad report"},
		{name: "early end", want: "exited"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := netwire.NewNode(netwire.Config{ID: "ctl"})
			defer node.Close()
			pr, pw := io.Pipe()
			w := &worker{out: bufio.NewReader(pr), sites: []simnet.SiteID{"buy"}}
			c := &cluster{Node: node, workers: []*worker{w}, stop: make(chan struct{})}
			c.wg.Add(1)
			go c.readReports(w)
			io.WriteString(pw, `IDLE {"ID":"proc1","Addr":"127.0.0.1:1","Sent":{},"Delivered":{}}`+"\n")
			if !c.WaitIdle(10 * time.Second) {
				t.Fatalf("cluster not idle after an idle report: %v", c.err())
			}
			drained := make(chan struct{})
			go func() {
				for _, line := range tc.tail {
					io.WriteString(pw, line) // returns only once read
				}
				pw.Close()
				c.wg.Wait()
				close(drained)
			}()
			select {
			case <-drained:
			case <-time.After(10 * time.Second):
				pr.Close()
				t.Fatal("the report stream was not read to its end")
			}
			start := time.Now()
			if c.WaitIdle(10 * time.Second) {
				t.Fatal("a failed cluster read idle")
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("failed cluster's idle wait took %v", d)
			}
			if err := c.err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("failure %v, want one naming %q", err, tc.want)
			}
		})
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
