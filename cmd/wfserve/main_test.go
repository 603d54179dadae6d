package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestMain lets this test binary stand in for the wfserve executable:
// children forked with the serve marker divert straight into run().
func TestMain(m *testing.M) {
	if os.Getenv(serveEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// daemon is one forked wfserve process under test.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), serveEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		cmd.Process.Kill()
		t.Fatal("daemon exited before LISTEN handshake")
	}
	line := sc.Text()
	if !strings.HasPrefix(line, "LISTEN ") {
		cmd.Process.Kill()
		t.Fatalf("unexpected handshake %q", line)
	}
	d := &daemon{cmd: cmd, addr: strings.TrimPrefix(line, "LISTEN ")}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	// Drain remaining stdout so the child never blocks on a full pipe.
	go io.Copy(io.Discard, out)
	return d
}

func (d *daemon) post(t *testing.T, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+d.addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func (d *daemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// wait blocks until the daemon exits, failing the test on timeout,
// and returns the exit code.
func (d *daemon) wait(t *testing.T) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				return ee.ExitCode()
			}
			t.Fatalf("daemon wait: %v", err)
		}
		return 0
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("daemon did not exit")
		return -1
	}
}

// TestDaemonDrainAndRecover: a SIGTERM'd daemon settles its in-flight
// instances, exits 0, and a restart on the same WAL root recovers the
// registered specs and serves from them.
func TestDaemonDrainAndRecover(t *testing.T) {
	walDir := t.TempDir()
	d := startDaemon(t, "-listen", "127.0.0.1:0", "-shards", "2",
		"-wal", walDir, "-nosync", "../../testdata/travel.wf")

	// The preloaded spec serves immediately.
	code, body := d.post(t, "/v1/instances", `{"spec":"travel","count":20,"seed":3}`)
	if code != 202 {
		t.Fatalf("launch: %d %s", code, body)
	}
	// An external instance left open across the drain must settle.
	code, body = d.post(t, "/v1/instances", `{"spec":"travel","mode":"external","seed":9}`)
	if code != 202 {
		t.Fatalf("launch external: %d %s", code, body)
	}
	var launched struct {
		IDs []uint64 `json:"ids"`
	}
	json.Unmarshal(body, &launched)

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if ec := d.wait(t); ec != 0 {
		t.Fatalf("drained daemon exited %d, want 0", ec)
	}

	// Restart on the same WAL root: the spec registration recovered,
	// every admission got its verdict (no live instances), and the
	// daemon still serves.
	d2 := startDaemon(t, "-listen", "127.0.0.1:0", "-shards", "2",
		"-wal", walDir, "-nosync")
	code, body = d2.get(t, "/v1/specs")
	if code != 200 || !bytes.Contains(body, []byte(`"travel"`)) {
		t.Fatalf("spec not recovered: %d %s", code, body)
	}
	code, body = d2.get(t, "/healthz")
	if code != 200 {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var st struct {
		Instances int `json:"instances"`
	}
	json.Unmarshal(body, &st)
	if st.Instances != 0 {
		t.Errorf("restart found %d unsettled instances, want 0", st.Instances)
	}
	code, body = d2.post(t, "/v1/instances", `{"spec":"travel","seed":3}`)
	if code != 202 {
		t.Fatalf("launch on recovered daemon: %d %s", code, body)
	}
}

// TestDaemonCrashRecovery: a SIGKILL'd daemon loses nothing durable —
// the restart re-opens the incomplete external instance with its
// journaled announcements replayed.
func TestDaemonCrashRecovery(t *testing.T) {
	walDir := t.TempDir()
	d := startDaemon(t, "-listen", "127.0.0.1:0", "-shards", "2",
		"-wal", walDir, "../../testdata/travel.wf")

	code, body := d.post(t, "/v1/instances", `{"spec":"travel","mode":"external","seed":4}`)
	if code != 202 {
		t.Fatalf("launch: %d %s", code, body)
	}
	var launched struct {
		IDs []uint64 `json:"ids"`
	}
	json.Unmarshal(body, &launched)
	id := launched.IDs[0]

	code, body = d.post(t, fmt.Sprintf("/v1/instances/%d/announce", id), `{"event":"s_buy"}`)
	if code != 200 {
		t.Fatalf("announce: %d %s", code, body)
	}

	d.cmd.Process.Kill()
	d.cmd.Wait()

	d2 := startDaemon(t, "-listen", "127.0.0.1:0", "-shards", "2", "-wal", walDir)
	code, body = d2.get(t, fmt.Sprintf("/v1/instances/%d", id))
	if code != 200 {
		t.Fatalf("instance not recovered: %d %s", code, body)
	}
	var inst struct {
		Mode string `json:"mode"`
		Done bool   `json:"done"`
	}
	json.Unmarshal(body, &inst)
	if inst.Mode != "external" || inst.Done {
		t.Fatalf("recovered instance state %s", body)
	}
	// Close it: the replayed s_buy is part of the outcome.
	code, body = d2.post(t, fmt.Sprintf("/v1/instances/%d/close", id), "")
	if code != 200 {
		t.Fatalf("close: %d %s", code, body)
	}
	var v struct {
		Satisfied   bool   `json:"satisfied"`
		Fingerprint string `json:"fingerprint"`
	}
	json.Unmarshal(body, &v)
	if !v.Satisfied {
		t.Errorf("recovered instance unsatisfied: %s", body)
	}
	if !strings.Contains(v.Fingerprint, "s_buy") || strings.Contains(v.Fingerprint, "~s_buy") {
		t.Errorf("replayed s_buy missing from fingerprint %q", v.Fingerprint)
	}
}

// TestDaemonKillCommitWindow aims SIGKILL inside the group-commit
// window: a daemon running the pipelined durability path (one shared
// committer per shard) is killed while concurrent launches stream in,
// and every launch that was acknowledged with 202
// must have its KAdmit on disk — the reply-after-durable contract.
// In-flight (unacknowledged) launches may be lost; acknowledged ones
// may not.
func TestDaemonKillCommitWindow(t *testing.T) {
	walDir := t.TempDir()
	d := startDaemon(t, "-listen", "127.0.0.1:0", "-shards", "2",
		"-wal", walDir, "../../testdata/travel.wf")

	var mu sync.Mutex
	acked := map[uint64]bool{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"spec":"travel","seed":%d}`, g*10000+i)
				resp, err := http.Post("http://"+d.addr+"/v1/instances",
					"application/json", strings.NewReader(body))
				if err != nil {
					return // daemon killed mid-request: this launch is unacknowledged
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 202 {
					continue
				}
				var launched struct {
					IDs []uint64 `json:"ids"`
				}
				if json.Unmarshal(data, &launched) == nil {
					mu.Lock()
					for _, id := range launched.IDs {
						acked[id] = true
					}
					mu.Unlock()
				}
			}
		}(g)
	}
	time.Sleep(250 * time.Millisecond)
	d.cmd.Process.Kill() // SIGKILL: no drain, no final commit
	close(stop)
	wg.Wait()
	d.cmd.Wait()
	mu.Lock()
	n := len(acked)
	mu.Unlock()
	if n == 0 {
		t.Fatal("no launches were acknowledged before the kill")
	}

	// Scan the dead daemon's logs directly, before any restart could
	// rewrite them: every acknowledged admission must already be a
	// durable KAdmit in its shard log.
	durable := map[uint64]bool{}
	for _, shard := range []string{"shard-0", "shard-1"} {
		dir := wal.TenantDir(walDir, "default", shard)
		if _, err := os.Stat(dir); err != nil {
			continue
		}
		l, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("open %s after kill: %v", dir, err)
		}
		for _, r := range l.Recovery().Serve {
			if r.Kind == wal.KAdmit {
				durable[r.Seq] = true
			}
		}
		l.Close()
	}
	missing := 0
	for id := range acked {
		if !durable[id] {
			missing++
			t.Errorf("acknowledged launch %d has no durable KAdmit", id)
		}
	}
	t.Logf("kill window: %d acked, %d durable admits, %d missing", n, len(durable), missing)

	// The survivor restarts healthy on the same root.
	d2 := startDaemon(t, "-listen", "127.0.0.1:0", "-shards", "2",
		"-wal", walDir)
	if code, body := d2.get(t, "/healthz"); code != 200 {
		t.Fatalf("healthz after kill-window restart: %d %s", code, body)
	}
}

// TestUsage: flag misuse exits 2; a bad spec path exits 1.
func TestUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"-listen", "127.0.0.1:0", "/nonexistent.wf"}, &out, &errb); code != 1 {
		t.Errorf("bad spec path: exit %d, want 1", code)
	}
	if code := run([]string{"-listen", "127.0.0.1:0", "main.go"}, &out, &errb); code != 1 {
		t.Errorf("non-spec file: exit %d, want 1", code)
	}
}

// serveEnv marks a re-exec'd test child so the test binary diverts
// into run() instead of the suite.
const serveEnv = "WFSERVE_MAIN"
