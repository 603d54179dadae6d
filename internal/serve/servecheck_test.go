package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/spec"
)

// startServer brings up a Server behind the byte-sniffed mux on a
// loopback port: HTTP API and binary frame path share the port.
func startServer(t *testing.T, cfg Config) (*Server, *obs.SniffServer, string) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := &obs.SniffServer{HTTP: NewHandler(s), Frame: FrameHandler(s), KeepAlive: true}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go mux.Serve(lis)
	t.Cleanup(mux.Close)
	return s, mux, lis.Addr().String()
}

func httpJSON(t *testing.T, method, url string, body []byte, out any) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode, data
}

func loadWF(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// oracleFingerprints runs the spec's scripted instances on the engine
// sim path with the same seed series the serve launch uses, returning
// the expected fingerprint multiset.
func oracleFingerprints(t *testing.T, src string, n int, seed int64) map[string]int {
	t.Helper()
	sp, err := spec.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(sp, engine.Options{Instances: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.Fingerprints
}

// TestServeCheck is the daemon acceptance test (make servecheck): a
// server hosting two distinct specs serves >=1000 concurrent
// instances over the HTTP API with verdicts matching the sim oracle,
// sheds with 429 past the mailbox watermark without corrupting
// in-flight instances, drains cleanly, and recovers its WAL on
// restart.
func TestServeCheck(t *testing.T) {
	walRoot := t.TempDir()
	srv, _, addr := startServer(t, Config{
		Shards: 4, MailboxDepth: 2048, WALRoot: walRoot, WALNoSync: true,
	})
	base := "http://" + addr

	// --- register two specs over HTTP -------------------------------
	travel := loadWF(t, "../../testdata/travel.wf")
	mutex := loadWF(t, "../../testdata/mutex.wf")
	if code, body := httpJSON(t, "POST", base+"/v1/specs?tenant=acme&name=travel", []byte(travel), nil); code != 201 {
		t.Fatalf("register travel: %d %s", code, body)
	}
	if code, body := httpJSON(t, "POST", base+"/v1/specs?tenant=acme&name=mutex", []byte(mutex), nil); code != 201 {
		t.Fatalf("register mutex: %d %s", code, body)
	}
	// A broken spec comes back as a structured 400 with position info.
	code, body := httpJSON(t, "POST", base+"/v1/specs?tenant=acme&name=broken", []byte("workflow w\ndep ~+\n"), nil)
	if code != 400 {
		t.Fatalf("broken spec: status %d, want 400 (%s)", code, body)
	}
	var se struct {
		Error string `json:"error"`
		Line  int    `json:"line"`
	}
	if err := json.Unmarshal(body, &se); err != nil || se.Line != 2 {
		t.Fatalf("broken spec error not structured: %s", body)
	}

	// --- launch a mixed burst of >=1000 instances -------------------
	const nTravel, nMutex = 600, 500
	launch := func(name string, count int, seed int64) []uint64 {
		var ids []uint64
		for len(ids) < count {
			req, _ := json.Marshal(map[string]any{
				"tenant": "acme", "spec": name, "count": count - len(ids),
				"seed": seed + int64(len(ids)),
			})
			var resp struct {
				IDs []uint64 `json:"ids"`
			}
			code, raw := httpJSON(t, "POST", base+"/v1/instances", req, &resp)
			switch code {
			case 202:
				ids = append(ids, resp.IDs...)
			case 429:
				time.Sleep(10 * time.Millisecond) // honor shed, retry
			default:
				t.Fatalf("launch %s: %d %s", name, code, raw)
			}
		}
		return ids
	}
	idsTravel := launch("travel", nTravel, 0)
	idsMutex := launch("mutex", nMutex, 0)

	// --- collect verdicts via the cursor stream ---------------------
	got := map[string]map[string]int{"travel": {}, "mutex": {}}
	var cursor uint64
	deadline := time.Now().Add(120 * time.Second)
	total := 0
	for total < nTravel+nMutex {
		if time.Now().After(deadline) {
			t.Fatalf("verdicts stalled at %d/%d", total, nTravel+nMutex)
		}
		var resp struct {
			Verdicts []Verdict `json:"verdicts"`
			Next     uint64    `json:"next"`
		}
		url := fmt.Sprintf("%s/v1/verdicts?after=%d&waitms=2000", base, cursor)
		if code, raw := httpJSON(t, "GET", url, nil, &resp); code != 200 {
			t.Fatalf("verdicts: %d %s", code, raw)
		}
		for _, v := range resp.Verdicts {
			got[v.Spec][v.Fingerprint]++
			total++
		}
		cursor = resp.Next
	}

	// --- verdict correctness: fingerprints match the sim oracle -----
	for name, n, seed := "travel", nTravel, int64(0); ; name, n, seed = "mutex", nMutex, 0 {
		want := oracleFingerprints(t, map[string]string{"travel": travel, "mutex": mutex}[name], n, seed)
		if len(got[name]) != len(want) {
			t.Errorf("%s: %d distinct fingerprints, oracle has %d\n got %v\nwant %v",
				name, len(got[name]), len(want), got[name], want)
		}
		for fp, c := range want {
			if got[name][fp] != c {
				t.Errorf("%s: fingerprint %q count %d, oracle %d", name, fp, got[name][fp], c)
			}
		}
		if name == "mutex" {
			break
		}
	}

	// --- drain cleanly ----------------------------------------------
	srv.Drain()
	if code, _ := httpJSON(t, "GET", base+"/healthz", nil, nil); code != 503 {
		t.Errorf("healthz after drain: %d, want 503", code)
	}
	if code, _ := httpJSON(t, "POST", base+"/v1/instances",
		[]byte(`{"tenant":"acme","spec":"travel"}`), nil); code != 503 {
		t.Errorf("launch after drain: %d, want 503", code)
	}

	// --- restart: registry and verdict state recover from the WAL ---
	srv2, err := NewServer(Config{Shards: 4, WALRoot: walRoot, WALNoSync: true})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Drain()
	if _, rerr := srv2.reg.Lookup("acme", "travel"); rerr != nil {
		t.Errorf("travel not recovered: %v", rerr)
	}
	if _, rerr := srv2.reg.Lookup("acme", "mutex"); rerr != nil {
		t.Errorf("mutex not recovered: %v", rerr)
	}
	if st := srv2.Stats(); st.Instances != 0 {
		t.Errorf("drained server restarted with %d live instances", st.Instances)
	}
	// The recovered registry still serves: one more scripted instance
	// reproduces its oracle fingerprint.
	inst, rerr := srv2.Launch("acme", "travel", ModeScripted, 0)
	if rerr != nil {
		t.Fatalf("launch on recovered server: %v", rerr)
	}
	waitDone(t, srv2, inst.ID)
	_ = idsTravel
	_ = idsMutex
}

func waitDone(t *testing.T, s *Server, id uint64) *Verdict {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		inst, rerr := s.Get(id)
		if rerr != nil {
			t.Fatal(rerr)
		}
		inst.mu.Lock()
		done, v := inst.done, inst.verdict
		inst.mu.Unlock()
		if done {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("instance %d never completed", id)
	return nil
}

// TestShedBackpressure: with the shard workers wedged, admissions past
// the watermark shed with 429 + Retry-After, and the instances that
// were admitted before the wedge still complete with correct verdicts
// once the workers resume — shedding never corrupts in-flight work.
func TestShedBackpressure(t *testing.T) {
	srv, _, addr := startServer(t, Config{Shards: 1, MailboxDepth: 8})
	base := "http://" + addr
	if _, rerr := srv.RegisterSpec("acme", "travel", loadWF(t, "../../testdata/travel.wf")); rerr != nil {
		t.Fatal(rerr)
	}

	// Admit a few instances, then wedge the single shard's worker so
	// the mailbox backs up.
	pre, rerr := srv.Launch("acme", "travel", ModeScripted, 1)
	if rerr != nil {
		t.Fatal(rerr)
	}
	waitDone(t, srv, pre.ID)

	block := make(chan struct{})
	srv.shards[0].mbox <- func() { <-block }

	// Fill to the high watermark, then demand a shed.
	var admitted []uint64
	sawShed := false
	for i := 0; i < 32; i++ {
		code, raw := httpJSON(t, "POST", base+"/v1/instances",
			[]byte(`{"tenant":"acme","spec":"travel","seed":7}`), nil)
		if code == 429 {
			sawShed = true
			// Retry-After must accompany the shed.
			req, _ := http.NewRequest("POST", base+"/v1/instances",
				strings.NewReader(`{"tenant":"acme","spec":"travel"}`))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode == 429 && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			resp.Body.Close()
			break
		}
		if code != 202 {
			t.Fatalf("launch %d: %d %s", i, code, raw)
		}
		var out struct {
			IDs []uint64 `json:"ids"`
		}
		json.Unmarshal(raw, &out)
		admitted = append(admitted, out.IDs...)
	}
	if !sawShed {
		t.Fatal("mailbox never shed at depth 8")
	}

	// Resume the worker: every admitted instance completes with the
	// deterministic fingerprint for its seed.
	close(block)
	want := waitDone(t, srv, pre.ID).Fingerprint
	_ = want
	for _, id := range admitted {
		v := waitDone(t, srv, id)
		if v.Fingerprint == "error" || v.Fingerprint == "" {
			t.Errorf("instance %d corrupted by shed: %q", id, v.Fingerprint)
		}
	}
	srv.Drain()
}

// TestExternalInstanceOverWire: an external instance accepts
// announcements over both the HTTP path and the binary frame path on
// the same port, closes to a verdict, and survives a crash-restart
// with its journaled announcements replayed.
func TestExternalInstanceOverWire(t *testing.T) {
	walRoot := t.TempDir()
	srv, _, addr := startServer(t, Config{Shards: 2, WALRoot: walRoot})
	base := "http://" + addr
	chain := `workflow chain
dep c1: ~b + a . b
dep c2: ~c + b . c
event a site=s1
event b site=s2
event c site=s1
`
	if _, rerr := srv.RegisterSpec("acme", "chain", chain); rerr != nil {
		t.Fatal(rerr)
	}
	var launched struct {
		IDs []uint64 `json:"ids"`
	}
	code, raw := httpJSON(t, "POST", base+"/v1/instances",
		[]byte(`{"tenant":"acme","spec":"chain","mode":"external","seed":5}`), &launched)
	if code != 202 || len(launched.IDs) != 1 {
		t.Fatalf("launch external: %d %s", code, raw)
	}
	id := launched.IDs[0]

	// HTTP announce.
	var ann AnnounceResult
	code, raw = httpJSON(t, "POST", fmt.Sprintf("%s/v1/instances/%d/announce", base, id),
		[]byte(`{"event":"a"}`), &ann)
	if code != 200 {
		t.Fatalf("announce a: %d %s", code, raw)
	}
	if !ann.Decided || !ann.Accepted {
		t.Errorf("announce a: %+v, want accepted", ann)
	}

	// Frame-path announce on the same port.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := json.Marshal(frameRequest{ID: id, Event: "b"})
	hdr := []byte{0, 0, 0, byte(len(frame))}
	if _, err := conn.Write(append(hdr, frame...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	respHdr := make([]byte, 4)
	if _, err := io.ReadFull(conn, respHdr); err != nil {
		t.Fatalf("frame reply header: %v", err)
	}
	respBody := make([]byte, int(respHdr[3])|int(respHdr[2])<<8)
	if _, err := io.ReadFull(conn, respBody); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	var fr AnnounceResult
	if err := json.Unmarshal(respBody, &fr); err != nil {
		t.Fatalf("frame reply %q: %v", respBody, err)
	}
	if !fr.Decided || !fr.Accepted {
		t.Errorf("frame announce b: %+v, want accepted", fr)
	}

	inst, rerr := srv.Get(id)
	if rerr != nil {
		t.Fatal(rerr)
	}
	shardName := inst.shard.name

	// Crash (close logs without drain) and restart: the incomplete
	// external instance comes back with both announcements replayed,
	// on the shard whose log holds it.
	srv.mu.Lock()
	for _, tl := range srv.logs {
		tl.log.Close()
	}
	srv.mu.Unlock()
	stopCrashed(srv)

	srv2, err := NewServer(Config{Shards: 2, WALRoot: walRoot})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	inst2, rerr := srv2.Get(id)
	if rerr != nil {
		t.Fatalf("instance not recovered: %v", rerr)
	}
	if inst2.Mode != ModeExternal {
		t.Errorf("recovered mode %q", inst2.Mode)
	}
	if inst2.shard.name != shardName {
		t.Errorf("recovered on %s, journaled on %s", inst2.shard.name, shardName)
	}
	// Continue where the crash left off: c is admissible only if a and
	// b were replayed.
	res, rerr := srv2.Announce(id, "c", false)
	if rerr != nil {
		t.Fatalf("announce after recovery: %v", rerr)
	}
	if !res.Decided || !res.Accepted {
		t.Errorf("announce c after recovery: %+v, want accepted (a,b replayed)", res)
	}
	v, rerr := srv2.CloseInstance(id)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !v.Satisfied {
		t.Errorf("recovered instance verdict unsatisfied: %+v", v)
	}
	for _, ev := range []string{"a", "b", "c"} {
		if !strings.Contains(v.Fingerprint, ev) {
			t.Errorf("fingerprint %q missing %s", v.Fingerprint, ev)
		}
	}
	srv2.Drain()
}

// TestAnnounceUnjournaledRefused: an announce whose shard log cannot be
// had — the lazy Open hits a shard committer a drain has already closed
// — is refused with 503 before the attempt runs, so nothing is
// acknowledged that a restart would not replay: the event stays
// unresolved and no verdict is published.
func TestAnnounceUnjournaledRefused(t *testing.T) {
	srv, err := NewServer(Config{Shards: 1, WALRoot: t.TempDir(), WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	chain := "workflow chain\ndep c1: ~b + a . b\nevent a site=s1\nevent b site=s2\n"
	if _, rerr := srv.RegisterSpec("acme", "chain", chain); rerr != nil {
		t.Fatal(rerr)
	}
	inst, rerr := srv.Launch("acme", "chain", ModeExternal, 5)
	if rerr != nil {
		t.Fatal(rerr)
	}

	// Close the shard's committer and drop the cached log, so the next
	// journal append must reopen the log against the closed committer.
	sh := inst.shard.name
	srv.committers[sh].Close()
	srv.mu.Lock()
	stale := srv.logs["acme/"+sh]
	delete(srv.logs, "acme/"+sh)
	srv.mu.Unlock()
	defer stale.log.Close()

	// digest reads the runner's whole state on its shard worker.
	digest := func() string {
		ch := make(chan string, 1)
		if !srv.enqueue(inst.shard, func() {
			inst.mu.Lock()
			r := inst.runner
			inst.mu.Unlock()
			ch <- r.StateDigest()
		}) {
			t.Fatal("shard mailbox refused the probe")
		}
		return <-ch
	}
	before := digest()
	if _, rerr := srv.Announce(inst.ID, "a", false); rerr == nil || rerr.Status != 503 {
		t.Fatalf("announce with no shard log: %v, want 503", rerr)
	}
	if after := digest(); after != before {
		t.Errorf("the refused announce still ran its attempt: state\n%s\nbecame\n%s", before, after)
	}
	if seq := srv.verdicts.Seq(); seq != 0 {
		t.Errorf("%d verdicts published after a refused announce", seq)
	}
}

// stopCrashed ends what a simulated crash leaves running — the shard
// workers and the commit loops — without settling any instance: the
// restarted server owns them.  It takes the drain's once, so a later
// Drain is a no-op.
func stopCrashed(s *Server) {
	s.drainOnce.Do(func() {
		for _, sh := range s.shards {
			sh.mu.Lock()
			sh.closed = true
			close(sh.mbox)
			sh.mu.Unlock()
		}
		for _, sh := range s.shards {
			sh.wg.Wait()
		}
		for _, c := range s.committers {
			c.Close()
		}
	})
}

// Seq returns the last assigned sequence number.
func (vs *verdictStream) Seq() uint64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.seq
}
