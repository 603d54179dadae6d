// Command wfnet executes a .wf workflow specification over the real
// TCP transport (internal/netwire) with the sites spread across OS
// processes.
//
// Usage:
//
//	wfnet -local n [-timeout d] [-wal dir] [-v] file.wf
//	    Coordinator mode: forks n worker processes of this same binary,
//	    partitions the spec's sites over them round-robin, and drives
//	    the workflow from this process (the driver site "ctl").  Worker
//	    addresses are exchanged over the workers' stdin/stdout, so no
//	    ports need to be chosen up front.  The drive is pipelined: an
//	    attempt completes as soon as its own decision reaches the
//	    driver; cluster-wide quiescence (the IDLE reports below) is only
//	    consulted for attempts that park without a decision, and once
//	    at shutdown.
//
//	wfnet -serve -index i -sites s1,s2 [-id name] [-listen addr]
//	      [-peers site=addr,...] [-wal dir] [-v] file.wf
//	    Worker mode: hosts the named sites' actors and serves them over
//	    TCP.  Normally spawned by -local, speaking a line protocol on
//	    stdin/stdout (ADDR/PEERS/READY/IDLE, see below); with -peers the
//	    routing table is static instead and the worker starts
//	    immediately, for hand-built deployments.
//
// The worker line protocol (one line each, space-separated):
//
//	worker → coordinator:  ADDR <listen-addr>
//	coordinator → worker:  PEERS <site>=<addr> ...
//	worker → coordinator:  READY
//	worker → coordinator:  IDLE <netwire.IdleReport as JSON>
//
// Every node (coordinator and workers) also answers plain HTTP on its
// data port — the transport sniffs the first inbound byte to tell the
// two protocols apart — serving /debug/metrics (the obs registry
// snapshot as JSON) and the standard /debug/pprof/ endpoints.
//
// EOF on the worker's stdin shuts it down.  After READY a worker writes
// an IDLE line at once and at every zero-transition of its node's
// pending count: its per-link sent and delivered counts, read at an
// idle instant.  The coordinator calls the cluster idle when its own
// node is idle and every link balances over the workers' latest reports
// (netwire.Quiescent): a counted fact, with no polling.  A worker whose
// stdout breaks this protocol or ends early fails the cluster, which
// then never reads idle.  A -peers worker sends no READY and no IDLE.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/arun"
	"repro/internal/drain"
	"repro/internal/netwire"
	"repro/internal/obs"
	"repro/internal/quiesce"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// serveEnv marks a forked process as a worker so a test binary can
// divert to run() instead of running the test suite.
const serveEnv = "WFNET_SERVE"

// debugMux builds the HTTP handler every wfnet node shares its data
// port with (netwire sniffs the first inbound byte to tell HTTP from
// frames): the obs metrics snapshot plus the standard pprof surface.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/metrics", obs.MetricsHandler(obs.Default))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfnet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	local := fs.Int("local", 0, "coordinator mode: number of worker processes to fork")
	serve := fs.Bool("serve", false, "worker mode: host -sites and serve them over TCP")
	index := fs.Int("index", 0, "worker mode: unique node index (coordinator is 0)")
	id := fs.String("id", "", "worker mode: node id (default proc<index>)")
	sitesFlag := fs.String("sites", "", "worker mode: comma-separated sites to host")
	listen := fs.String("listen", "127.0.0.1:0", "worker mode: TCP listen address")
	peersFlag := fs.String("peers", "", "worker mode: static site=addr,... routing table (skips the PEERS handshake)")
	walDir := fs.String("wal", "", "write-ahead-log root directory; every process logs under <dir>/<node-id>, and reusing a dir recovers a crashed run")
	timeout := fs.Duration("timeout", 30*time.Second, "per-attempt quiescence timeout")
	verbose := fs.Bool("v", false, "transport diagnostics on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "wfnet: exactly one .wf file required")
		fs.Usage()
		return 2
	}
	specPath := fs.Arg(0)
	f, err := os.Open(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "wfnet:", err)
		return 1
	}
	sp, err := spec.Parse(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "wfnet:", err)
		return 1
	}

	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	}

	switch {
	case *serve:
		return runServe(sp, serveConfig{
			index: *index, id: *id, sites: *sitesFlag,
			listen: *listen, peers: *peersFlag, wal: *walDir, logf: logf,
		}, stdin, stdout, stderr)
	case *local > 0:
		return runLocal(sp, specPath, *local, *timeout, *walDir, *verbose, logf, stdout, stderr)
	default:
		fmt.Fprintln(stderr, "wfnet: need -local n (coordinator) or -serve (worker)")
		fs.Usage()
		return 2
	}
}

// ---- worker mode -----------------------------------------------------

type serveConfig struct {
	index  int
	id     string
	sites  string
	listen string
	peers  string
	wal    string
	logf   func(string, ...any)
}

func runServe(sp *spec.Spec, cfg serveConfig, stdin io.Reader, stdout, stderr io.Writer) int {
	if cfg.id == "" {
		cfg.id = fmt.Sprintf("proc%d", cfg.index)
	}
	hosted := map[simnet.SiteID]bool{}
	for _, s := range strings.Split(cfg.sites, ",") {
		if s = strings.TrimSpace(s); s != "" {
			hosted[simnet.SiteID(s)] = true
		}
	}
	if len(hosted) == 0 {
		fmt.Fprintln(stderr, "wfnet: -serve requires -sites")
		return 2
	}
	var w *wal.Log
	if cfg.wal != "" {
		var err error
		w, err = wal.Open(filepath.Join(cfg.wal, cfg.id), wal.Options{})
		if err != nil {
			fmt.Fprintln(stderr, "wfnet:", err)
			return 1
		}
	}
	node := netwire.NewNode(netwire.Config{
		ID: cfg.id, ListenAddr: cfg.listen, NodeIndex: cfg.index, Logf: cfg.logf,
		WAL:   w,
		Debug: debugMux(),
	})
	defer node.Close()
	addr, err := node.Listen()
	if err != nil {
		fmt.Fprintln(stderr, "wfnet:", err)
		return 1
	}
	// Install this worker's actors before announcing the address, so no
	// frame can arrive ahead of its handler.  A non-empty WAL means this
	// worker is being restarted after a crash: replay it through the
	// freshly built actors before the node starts talking to peers.
	if _, err := newRunner(node, sp, arun.RunnerOptions{Hosted: func(s simnet.SiteID) bool { return hosted[s] }}); err != nil {
		fmt.Fprintln(stderr, "wfnet:", err)
		return 1
	}
	// SIGTERM/SIGINT is a graceful drain, not a mid-write kill: settle
	// in-flight frames, checkpoint the WAL watermarks, close the node,
	// exit 0.  A second signal while draining force-exits (130).
	// Installed before the ADDR handshake so a supervisor can signal
	// the worker the moment it knows the address.
	dh := drain.Notify(func(sig os.Signal) {
		if cfg.logf != nil {
			cfg.logf("wfnet: %v: draining", sig)
		}
		node.WaitIdle(2 * time.Second)
		if err := node.Checkpoint(); err != nil && cfg.logf != nil {
			cfg.logf("wfnet: checkpoint: %v", err)
		}
		node.Close()
		os.Exit(0)
	})
	defer dh.Stop()
	fmt.Fprintf(stdout, "ADDR %s\n", addr)

	if cfg.peers != "" {
		peers, err := parsePeers(strings.Split(cfg.peers, ","))
		if err != nil {
			fmt.Fprintln(stderr, "wfnet:", err)
			return 1
		}
		node.Start(peers)
	}

	// After READY the worker's stdout carries only its IDLE reports,
	// pushed until the worker returns.
	var pushing sync.WaitGroup
	stop := make(chan struct{})
	defer pushing.Wait()
	defer close(stop)
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "PEERS":
			peers, err := parsePeers(fields[1:])
			if err != nil {
				fmt.Fprintln(stderr, "wfnet:", err)
				return 1
			}
			node.Start(peers)
			fmt.Fprintln(stdout, "READY")
			pushing.Add(1)
			go func() {
				defer pushing.Done()
				onIdle(node, stop, func() {
					if r, ok := node.IdleReport(); ok {
						line, _ := json.Marshal(r) // strings and counts: cannot fail
						fmt.Fprintf(stdout, "IDLE %s\n", line)
					}
				})
			}()
		default:
			fmt.Fprintf(stderr, "wfnet: unknown control line %q\n", fields[0])
			return 1
		}
	}
	// EOF: the coordinator is done with us.
	return 0
}

// onIdle calls fn now and after every zero-transition of the node's
// pending count, until stop closes.  The wait for the next transition
// is registered before fn runs, so none is missed while it runs.
func onIdle(node *netwire.Node, stop <-chan struct{}, fn func()) {
	for {
		idle, cancel := node.IdleWait()
		fn()
		select {
		case <-idle:
			cancel()
		case <-stop:
			cancel()
			return
		}
	}
}

// newRunner builds the hosted actors on a transport, replaying the
// node's WAL through them first when it holds a crashed run's state.
// Both paths register every handler before the transport starts.
func newRunner(tr arun.Transport, sp *spec.Spec, opt arun.RunnerOptions) (*arun.Runner, error) {
	plan, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true})
	if err != nil {
		return nil, err
	}
	if rec, ok := tr.(netwire.Recoverer); ok && rec.NeedsRecovery() {
		return plan.Resume(tr, opt)
	}
	// One runner = one execution = one instance tag, so repeated runs
	// into a shared capture stay separable per instance.
	opt.Instance = obs.Shared().NextInst()
	return plan.NewRunner(tr, opt)
}

func parsePeers(kvs []string) (map[simnet.SiteID]string, error) {
	peers := make(map[simnet.SiteID]string, len(kvs))
	for _, kv := range kvs {
		site, addr, ok := strings.Cut(kv, "=")
		if !ok || site == "" || addr == "" {
			return nil, fmt.Errorf("bad peer entry %q (want site=addr)", kv)
		}
		peers[simnet.SiteID(site)] = addr
	}
	return peers, nil
}

// ---- coordinator mode ------------------------------------------------

// worker is one forked -serve process with its control pipes.
type worker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	out    *bufio.Reader
	sites  []simnet.SiteID
	addr   string
	report *netwire.IdleReport // latest IDLE report, nil before the first; guarded by cluster.mu
}

// expect reads the next control line and checks its keyword.
func (w *worker) expect(keyword string) ([]string, error) {
	line, err := w.out.ReadString('\n')
	if err == io.EOF {
		return nil, fmt.Errorf("worker exited before %s", keyword)
	} else if err != nil {
		return nil, err
	}
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != keyword {
		return nil, fmt.Errorf("expected %s, got %q", keyword, strings.TrimSpace(line))
	}
	return fields[1:], nil
}

// cluster is the coordinator's arun.Transport: its own netwire node
// (the driver site: sends, clocks, recovery), the workers' control
// channels, and their latest idle reports, which make its idle signal.
type cluster struct {
	*netwire.Node
	workers []*worker

	mu sync.Mutex // guards the workers' reports and failure
	// failure is why the cluster can no longer be known idle: a worker
	// wrote a line that is not a report, or its stdout ended before
	// Close.  From then on the idle signal reads false at once.
	failure error
	// idle pulses when a worker's report arrives and at every
	// zero-transition of the coordinator's own node: each is a moment
	// IdleNow's answer may change.
	idle quiesce.Gate
	stop chan struct{} // closed by Close: stops the own-node watcher, expects EOFs
	wg   sync.WaitGroup
}

var _ netwire.Recoverer = (*cluster)(nil) // newRunner recovers the own node's WAL through it

// readReports keeps a worker's latest IDLE report.  It reads the
// worker's stdout to its end, whatever the lines hold, so the worker
// never blocks writing a report.  A worker that is gone keeps its last
// report: it acknowledges nothing more, so once a frame is sent to it
// the sender stays busy; its stdout ending before Close fails the
// cluster as well.
func (c *cluster) readReports(w *worker) {
	defer c.wg.Done()
	for {
		line, err := w.out.ReadString('\n')
		if err != nil {
			select {
			case <-c.stop:
			default:
				c.fail(fmt.Errorf("worker hosting %v exited: %v", w.sites, err))
			}
			return
		}
		var r netwire.IdleReport
		body, ok := strings.CutPrefix(line, "IDLE ")
		if !ok || json.Unmarshal([]byte(body), &r) != nil {
			c.fail(fmt.Errorf("worker hosting %v: bad report %q", w.sites, strings.TrimSpace(line)))
			continue
		}
		c.mu.Lock()
		w.report = &r
		c.mu.Unlock()
		c.idle.Pulse()
	}
}

// fail records the cluster's first failure and wakes its idle waiters.
func (c *cluster) fail(err error) {
	c.mu.Lock()
	if c.failure == nil {
		c.failure = err
	}
	c.mu.Unlock()
	c.idle.Pulse()
}

// err returns the cluster's failure, if any.
func (c *cluster) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

// IdleNow reports whether the cluster is quiescent: the coordinator's
// own node is idle, every worker has reported idle, and every link
// balances over those reports (netwire.Quiescent).  The own report is
// read now, the workers' are their latest.
func (c *cluster) IdleNow() bool {
	own, ok := c.Node.IdleReport()
	reports := []netwire.IdleReport{own}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return false
	}
	for _, w := range c.workers {
		if w.report == nil {
			return false
		}
		reports = append(reports, *w.report)
	}
	return ok && netwire.Quiescent(reports)
}

// IdleWait returns the channel the next change that may turn IdleNow
// true closes; its watchers run for the cluster's life.
func (c *cluster) IdleWait() (<-chan struct{}, func()) { return c.idle.Chan(), func() {} }

// WaitIdle blocks until IdleNow reads true, the cluster fails or the
// timeout elapses, and reports whether the cluster is quiescent.
func (c *cluster) WaitIdle(timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		ch := c.idle.Chan()
		if c.IdleNow() {
			return true
		}
		if c.err() != nil {
			return false
		}
		select {
		case <-ch:
		case <-timer.C:
			return c.IdleNow()
		}
	}
}

// Close ends the workers (stdin EOF), waits for their report streams
// to drain and for them to exit, then closes the own node.
func (c *cluster) Close() {
	close(c.stop)
	for _, w := range c.workers {
		w.stdin.Close()
	}
	c.wg.Wait()
	for _, w := range c.workers {
		w.cmd.Wait()
	}
	c.Node.Close()
}

func runLocal(sp *spec.Spec, specPath string, n int, timeout time.Duration,
	walDir string, verbose bool, logf func(string, ...any), stdout, stderr io.Writer) int {
	sites := arun.Sites(sp)
	if len(sites) == 0 {
		fmt.Fprintln(stderr, "wfnet: spec has no sites")
		return 1
	}
	if n > len(sites) {
		n = len(sites)
	}
	var w *wal.Log
	if walDir != "" {
		var err error
		w, err = wal.Open(filepath.Join(walDir, string(arun.DefaultDriver)), wal.Options{})
		if err != nil {
			fmt.Fprintln(stderr, "wfnet:", err)
			return 1
		}
	}
	node := netwire.NewNode(netwire.Config{
		ID: string(arun.DefaultDriver), ListenAddr: "127.0.0.1:0", NodeIndex: 0, Logf: logf,
		WAL:   w,
		Debug: debugMux(),
	})
	addr0, err := node.Listen()
	if err != nil {
		fmt.Fprintln(stderr, "wfnet:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "wfnet:", err)
		return 1
	}

	cl := &cluster{Node: node, stop: make(chan struct{})}
	defer cl.Close()
	peers := map[simnet.SiteID]string{arun.DefaultDriver: addr0}
	for j := 0; j < n; j++ {
		var assigned []simnet.SiteID
		for i, s := range sites {
			if i%n == j {
				assigned = append(assigned, s)
			}
		}
		names := make([]string, len(assigned))
		for i, s := range assigned {
			names[i] = string(s)
		}
		args := []string{"-serve",
			"-index", strconv.Itoa(j + 1),
			"-sites", strings.Join(names, ","),
			specPath}
		if walDir != "" {
			args = append([]string{"-wal", walDir}, args...)
		}
		if verbose {
			args = append([]string{"-v"}, args...)
		}
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), serveEnv+"=1")
		if w, ok := stderr.(*os.File); ok {
			cmd.Stderr = w
		} else {
			cmd.Stderr = os.Stderr
		}
		in, err := cmd.StdinPipe()
		if err != nil {
			fmt.Fprintln(stderr, "wfnet:", err)
			return 1
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(stderr, "wfnet:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(stderr, "wfnet:", err)
			return 1
		}
		w := &worker{cmd: cmd, stdin: in, out: bufio.NewReader(out), sites: assigned}
		cl.workers = append(cl.workers, w)
		fields, err := w.expect("ADDR")
		if err != nil || len(fields) != 1 {
			fmt.Fprintf(stderr, "wfnet: worker %d handshake: %v %v\n", j+1, fields, err)
			return 1
		}
		w.addr = fields[0]
		for _, s := range assigned {
			peers[s] = w.addr
		}
	}

	// Install the driver's observer before any worker can send.  The
	// drive is pipelined: each attempt completes on its own decision
	// arriving at the driver, and the cluster's idle reports are
	// consulted only for parked attempts and the final settle.  With a
	// non-empty coordinator WAL this is a restart: the driver's own log
	// replays through the fresh observer before the node goes live.
	r, err := newRunner(cl, sp, arun.RunnerOptions{
		Hosted:      func(s simnet.SiteID) bool { return s == arun.DefaultDriver },
		IdleTimeout: timeout,
		Pipelined:   true,
	})
	if err != nil {
		fmt.Fprintln(stderr, "wfnet:", err)
		return 1
	}

	// Broadcast the routing table; workers start once they have it.
	var kvs []string
	for site, addr := range peers {
		kvs = append(kvs, string(site)+"="+addr)
	}
	sort.Strings(kvs)
	line := "PEERS " + strings.Join(kvs, " ") + "\n"
	for j, w := range cl.workers {
		if _, err := io.WriteString(w.stdin, line); err != nil {
			fmt.Fprintf(stderr, "wfnet: worker %d: %v\n", j+1, err)
			return 1
		}
		if _, err := w.expect("READY"); err != nil {
			fmt.Fprintf(stderr, "wfnet: worker %d: %v\n", j+1, err)
			return 1
		}
	}
	node.Start(peers)
	// The idle signal: one reader per worker's report stream, and the
	// own node's zero-transition watcher.
	cl.wg.Add(len(cl.workers) + 1)
	for _, w := range cl.workers {
		go cl.readReports(w)
	}
	go func() {
		defer cl.wg.Done()
		onIdle(node, cl.stop, cl.idle.Pulse)
	}()

	out, err := r.Run()
	if err := cl.err(); err != nil {
		fmt.Fprintln(stderr, "wfnet:", err)
	}
	if err != nil {
		fmt.Fprintln(stderr, "wfnet:", err)
		return 1
	}

	fmt.Fprintf(stdout, "== netwire (%d worker processes) ==\n", n)
	for j, w := range cl.workers {
		names := make([]string, len(w.sites))
		for i, s := range w.sites {
			names[i] = string(s)
		}
		fmt.Fprintf(stdout, "worker %d: %s  hosting %s\n", j+1, w.addr, strings.Join(names, ","))
	}
	fmt.Fprintf(stdout, "trace:     %v\n", out.Trace)
	fmt.Fprintf(stdout, "satisfied: %v\n", out.Satisfied)
	if len(out.Unresolved) > 0 {
		fmt.Fprintf(stdout, "UNRESOLVED: %v\n", out.Unresolved)
	}
	delivered, deduped := cl.Stats()
	fmt.Fprintf(stdout, "driver observed: %d announcements, %d decisions; driver frames: %d delivered, %d deduped\n",
		out.Announcements, out.Decisions, delivered, deduped)
	if !out.Satisfied || len(out.Unresolved) > 0 {
		return 1
	}
	return 0
}
