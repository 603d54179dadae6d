package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

var tenants = []string{"acme", "globex", "initech", "umbrella"}

// maxGeneratorLagMS is how late the open-loop sender may wake (p99)
// before the run's latencies count as the generator's, not the
// server's.
const maxGeneratorLagMS = 5.0

// served is an in-process wfserve: the same serve.NewServer,
// serve.NewHandler and byte-sniffed mux cmd/wfserve assembles, with the
// configuration `wfserve -wal <dir>` gives (fsync on, commit interval 0,
// default shards and mailboxes), on a loopback port of its own.
type served struct {
	srv  *serve.Server
	mux  *obs.SniffServer
	base string
	done chan error
}

func startServed(walDir string) (*served, error) {
	srv, err := serve.NewServer(serve.Config{WALRoot: walDir})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	s := &served{
		srv:  srv,
		mux:  &obs.SniffServer{HTTP: serve.NewHandler(srv), Frame: serve.FrameHandler(srv), KeepAlive: true},
		base: "http://" + lis.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.mux.Serve(lis) }()
	return s, nil
}

// stop drains the server and returns once the accept loop has exited.
func (s *served) stop() {
	s.srv.Drain()
	s.mux.Close()
	<-s.done
}

// client is one keep-alive connection to the served API.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call makes one request and decodes a 2xx JSON reply into out.  It
// returns the status; transport failures and timeouts return 0.
func (c *client) call(method, path, body string, out any) int {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return 0
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return 0
		}
	}
	return resp.StatusCode
}

type launchReply struct {
	IDs []uint64 `json:"ids"`
}

type verdictsReply struct {
	Verdicts []serve.Verdict `json:"verdicts"`
	Next     uint64          `json:"next"`
}

// launch admits one instance and returns its id (0 on any failure).
func (c *client) launch(tenant, spec, mode string, seed int64) uint64 {
	body := fmt.Sprintf(`{"tenant":%q,"spec":%q,"mode":%q,"seed":%d,"count":1}`, tenant, spec, mode, seed)
	var rep launchReply
	if c.call("POST", "/v1/instances", body, &rep) != 202 || len(rep.IDs) != 1 {
		return 0
	}
	return rep.IDs[0]
}

// setupServed is the serve workloads' set-up: start the server on a
// WAL under dir, register every spec for every tenant over POST
// /v1/specs, and push warm scripted instances through it from two
// closed-loop connections until their verdicts are all out.  It returns
// the verdict cursor the measured run starts from.
func setupServed(dir string, specs []*benchSpec, warm int) (*served, uint64, error) {
	s, err := startServed(dir)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(s.base)
	defer c.close()
	for _, tenant := range tenants {
		for _, bs := range specs {
			path := "/v1/specs?tenant=" + url.QueryEscape(tenant) + "&name=" + url.QueryEscape(bs.name)
			if status := c.call("POST", path, bs.src, nil); status != 201 {
				s.stop()
				return nil, 0, fmt.Errorf("register %s/%s: status %d", tenant, bs.name, status)
			}
		}
	}
	var wg sync.WaitGroup
	var admitted atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := newClient(s.base)
			defer wc.close()
			for i := g; i < warm; i += 2 {
				if wc.launch(tenants[i%len(tenants)], specs[i%len(specs)].name, serve.ModeScripted, int64(i)) != 0 {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if int(admitted.Load()) != warm {
		s.stop()
		return nil, 0, fmt.Errorf("warm-up: %d of %d launches admitted", admitted.Load(), warm)
	}
	var cursor uint64
	deadline := time.Now().Add(30 * time.Second)
	for cursor < uint64(warm) {
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("warm-up: %d of %d verdicts after 30s", cursor, warm)
		}
		var rep verdictsReply
		if c.call("GET", fmt.Sprintf("/v1/verdicts?after=%d&waitms=200", cursor), "", &rep) == 200 {
			cursor = rep.Next
		}
	}
	return s, cursor, nil
}

// load is what a measured serve window observed.  The window leaves
// the verdicts unchecked in launches/seen and closed: checking replays
// the oracle, which must neither compete with the server for the two
// cores inside the window nor count in the program's own counters.
type load struct {
	attempted, failed int
	instances         int // completed and output-checked
	start             time.Time
	elapsed           time.Duration
	// Latency samples in milliseconds, and the launch round trips
	// (send to reply, not from due time) in microseconds.
	admitMS, verdictMS, announceMS, lagMS []float64
	launchRTTUS                           []float64

	launches []launchRec
	seen     map[uint64]seenVerdict
	closed   []closedRec
}

type closedRec struct {
	bs      *benchSpec
	seed    int64
	verdict serve.Verdict
}

type launchRec struct {
	due, sent, acked time.Time
	id               uint64
	bs               *benchSpec
	seed             int64
}

type seenVerdict struct {
	at          time.Time
	fingerprint string
}

// launchOpen is workload serve-launch-open: Poisson arrivals at rate/s
// on one keep-alive connection, each a scripted launch of count 1
// alternating spec and rotating tenant, while a second connection
// long-polls /v1/verdicts.  Every latency is taken from the arrival's
// due time, so a stalled server charges the requests queued behind it.
func launchOpen(s *served, cursor uint64, specs []*benchSpec, seed int64, rate float64,
	window time.Duration) *load {
	lc, pc := newClient(s.base), newClient(s.base)
	defer lc.close()
	defer pc.close()

	var recs []launchRec
	var lagMS []float64
	var launched atomic.Int64 // admitted count, valid once launcherDone is set
	var launcherDone atomic.Bool
	seen := map[uint64]seenVerdict{}
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		var doneAt time.Time
		for {
			var rep verdictsReply
			status := pc.call("GET", fmt.Sprintf("/v1/verdicts?after=%d&waitms=200", cursor), "", &rep)
			now := time.Now()
			if status == 200 {
				for _, v := range rep.Verdicts {
					seen[v.ID] = seenVerdict{at: now, fingerprint: v.Fingerprint}
				}
				cursor = rep.Next
			}
			if launcherDone.Load() {
				if doneAt.IsZero() {
					doneAt = now
				}
				// A verdict that has not come 10s after the last launch is a
				// failed operation, not a reason to wait longer.
				if len(seen) >= int(launched.Load()) || now.Sub(doneAt) > 10*time.Second {
					return
				}
			}
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	due := start
	for i := 0; ; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) > window {
			break
		}
		lag := time.Duration(0)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			lag = time.Since(due)
		}
		lagMS = append(lagMS, float64(lag.Nanoseconds())/1e6)
		rec := launchRec{due: due, bs: specs[i%len(specs)], seed: seed + int64(i)}
		rec.sent = time.Now()
		rec.id = lc.launch(tenants[i%len(tenants)], rec.bs.name, serve.ModeScripted, rec.seed)
		rec.acked = time.Now()
		if rec.id != 0 {
			launched.Add(1)
		}
		recs = append(recs, rec)
	}
	launcherDone.Store(true)
	<-pollerDone

	return &load{attempted: len(recs), start: start, elapsed: window, lagMS: lagMS, launches: recs, seen: seen}
}

// check verifies every verdict the window collected against the oracle
// and fills in the latency samples of the instances that pass.
func (ld *load) check(oracle oracleFn, t *tracer) error {
	var last time.Duration
	for _, rec := range ld.launches {
		v, ok := ld.seen[rec.id]
		if rec.id == 0 || !ok {
			ld.failed++
			continue
		}
		want, err := oracle(rec.bs, rec.seed, false)
		if err != nil {
			return err
		}
		if v.fingerprint != want {
			ld.failed++
			continue
		}
		ld.instances++
		last = max(last, v.at.Sub(ld.start))
		ld.admitMS = append(ld.admitMS, ms(rec.acked.Sub(rec.due)))
		ld.verdictMS = append(ld.verdictMS, ms(v.at.Sub(rec.due)))
		ld.launchRTTUS = append(ld.launchRTTUS, ms(rec.acked.Sub(rec.sent))*1e3)
		if t != nil {
			t.add("serve.launch", rec.id, rec.sent, rec.acked)
			t.add("serve.verdict", rec.id, rec.due, v.at)
		}
	}
	if last > 0 {
		// The open loop's rate is taken over the time to the last verdict,
		// not the nominal window: a server that falls behind finishes late.
		ld.elapsed = last
	}
	for _, cr := range ld.closed {
		want, err := oracle(cr.bs, cr.seed, true)
		if err != nil {
			return err
		}
		if !cr.verdict.Satisfied || cr.verdict.Fingerprint != want {
			ld.failed++
			continue
		}
		ld.instances++
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// externalClosed is workload serve-external-closed: two closed-loop
// clients, each launching an external instance, announcing its events
// one at a time and closing it before starting the next.
func externalClosed(s *served, specs []*benchSpec, seed int64, window time.Duration, t *tracer) *load {
	const clients = 2
	parts := make([]*load, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(s.base)
			defer c.close()
			ld := &load{}
			parts[g] = ld
			for k := 0; time.Since(start) < window; k++ {
				bs := specs[(g+k)%len(specs)]
				instSeed := seed + int64(g)<<32 + int64(k)
				externalInstance(c, bs, tenants[k%len(tenants)], instSeed, ld, t)
			}
		}()
	}
	wg.Wait()
	total := &load{elapsed: time.Since(start)}
	for _, ld := range parts {
		total.attempted += ld.attempted
		total.failed += ld.failed
		total.announceMS = append(total.announceMS, ld.announceMS...)
		total.launchRTTUS = append(total.launchRTTUS, ld.launchRTTUS...)
		total.closed = append(total.closed, ld.closed...)
	}
	return total
}

// externalInstance drives one external instance through launch,
// announces and close, leaving the verdict in ld.closed.  The first
// failed operation abandons the instance.
func externalInstance(c *client, bs *benchSpec, tenant string, seed int64, ld *load, t *tracer) {
	ld.attempted++
	sent := time.Now()
	id := c.launch(tenant, bs.name, serve.ModeExternal, seed)
	acked := time.Now()
	if id == 0 {
		ld.failed++
		return
	}
	ld.launchRTTUS = append(ld.launchRTTUS, ms(acked.Sub(sent))*1e3)
	if t != nil {
		t.add("serve.launch", id, sent, acked)
	}
	for _, ev := range bs.events {
		ld.attempted++
		var res serve.AnnounceResult
		sent := time.Now()
		status := c.call("POST", fmt.Sprintf("/v1/instances/%d/announce", id), fmt.Sprintf(`{"event":%q}`, ev.Key()), &res)
		acked := time.Now()
		if status != 200 {
			ld.failed++
			return
		}
		ld.announceMS = append(ld.announceMS, ms(acked.Sub(sent)))
		if t != nil {
			t.add("serve.announce", id, sent, acked)
		}
	}
	ld.attempted++
	var v serve.Verdict
	if c.call("POST", fmt.Sprintf("/v1/instances/%d/close", id), "", &v) != 200 {
		ld.failed++
		return
	}
	ld.closed = append(ld.closed, closedRec{bs: bs, seed: seed, verdict: v})
}
