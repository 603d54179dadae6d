// Command wfnet executes a .wf workflow specification over the real
// TCP transport (internal/netwire) with the sites spread across OS
// processes.
//
// Usage:
//
//	wfnet -local n [-timeout d] [-poll d] [-wal dir] [-v] file.wf
//	    Coordinator mode: forks n worker processes of this same binary,
//	    partitions the spec's sites over them round-robin, and drives
//	    the workflow from this process (the driver site "ctl").  Worker
//	    addresses are exchanged over the workers' stdin/stdout, so no
//	    ports need to be chosen up front.  The drive is pipelined: an
//	    attempt completes as soon as its own decision reaches the
//	    driver; cluster-wide quiescence (the PING/STAT protocol below)
//	    is only consulted for attempts that park without a decision,
//	    and once at shutdown.  -poll spaces those PING/STAT rounds.
//
//	wfnet -serve -index i -sites s1,s2 [-id name] [-listen addr]
//	      [-peers site=addr,...] [-wal dir] [-v] file.wf
//	    Worker mode: hosts the named sites' actors and serves them over
//	    TCP.  Normally spawned by -local, speaking a line protocol on
//	    stdin/stdout (ADDR/PEERS/READY/PING/STAT, see below); with
//	    -peers the routing table is static instead and the worker starts
//	    immediately, for hand-built deployments.
//
// The worker line protocol (one line each, space-separated):
//
//	worker → coordinator:  ADDR <listen-addr>
//	coordinator → worker:  PEERS <site>=<addr> ...
//	worker → coordinator:  READY
//	coordinator → worker:  PING
//	worker → coordinator:  STAT <pending> <delivered>
//
// Every node (coordinator and workers) also answers plain HTTP on its
// data port — the transport sniffs the first inbound byte to tell the
// two protocols apart — serving /debug/metrics (the obs registry
// snapshot as JSON) and the standard /debug/pprof/ endpoints.
//
// EOF on the worker's stdin shuts it down.  The PING/STAT exchange is
// how the coordinator establishes cluster-wide quiescence between
// attempts: a round is quiescent when every process reports zero
// pending work and no process's delivery counter moved since the
// previous round, twice in a row.
package main

import (
	"bufio"
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
	"time"

	"repro/internal/actor"
	"repro/internal/arun"
	"repro/internal/drain"
	"repro/internal/netwire"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/symtab"
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
	poll := fs.Duration("poll", 5*time.Millisecond, "quiescence polling interval: the spacing of the cluster's PING/STAT rounds")
	verbose := fs.Bool("v", false, "transport diagnostics on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *poll <= 0 {
		fmt.Fprintln(stderr, "wfnet: -poll must be positive")
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
		return runLocal(sp, specPath, *local, *timeout, *poll, *walDir, *verbose, logf, stdout, stderr)
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
		case "PING":
			// Reply with instantaneous counters: the coordinator's
			// two-stable-rounds rule provides the stability, and a prompt
			// STAT keeps its quiescence probes cheap.
			delivered, _ := node.Stats()
			fmt.Fprintf(stdout, "STAT %d %d\n", node.Pending(), delivered)
		default:
			fmt.Fprintf(stderr, "wfnet: unknown control line %q\n", fields[0])
			return 1
		}
	}
	// EOF: the coordinator is done with us.
	return 0
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
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
	sites []simnet.SiteID
	addr  string
}

// expect reads the next control line and checks its keyword.
func (w *worker) expect(keyword string) ([]string, error) {
	if !w.out.Scan() {
		if err := w.out.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("worker exited before %s", keyword)
	}
	fields := strings.Fields(w.out.Text())
	if len(fields) == 0 || fields[0] != keyword {
		return nil, fmt.Errorf("expected %s, got %q", keyword, w.out.Text())
	}
	return fields[1:], nil
}

// stat runs one PING/STAT exchange.
func (w *worker) stat() (pending, delivered int64, err error) {
	if _, err = io.WriteString(w.stdin, "PING\n"); err != nil {
		return 0, 0, err
	}
	fields, err := w.expect("STAT")
	if err != nil {
		return 0, 0, err
	}
	if len(fields) != 2 {
		return 0, 0, fmt.Errorf("malformed STAT %v", fields)
	}
	if pending, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
		return 0, 0, err
	}
	if delivered, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return 0, 0, err
	}
	return pending, delivered, nil
}

// cluster is the coordinator's arun.Transport: its own netwire node
// (hosting the driver site) plus the worker control channels.
type cluster struct {
	node    *netwire.Node
	workers []*worker
	// poll spaces the PING/STAT rounds of a quiescence wait, so parked
	// pipelined attempts probe the cluster at a bounded rate instead of
	// saturating the control pipes.  It is also the interval of the
	// cluster's idle signal (IdleWait).
	poll time.Duration
}

func (c *cluster) Send(from, to simnet.SiteID, payload any) { c.node.Send(from, to, payload) }
func (c *cluster) Now() simnet.Time                         { return c.node.Now() }
func (c *cluster) NextOccurrence() int64                    { return c.node.NextOccurrence() }
func (c *cluster) Clock() int64                             { return c.node.Clock() }
func (c *cluster) Register(site simnet.SiteID, h func(n actor.Net, payload any)) {
	c.node.Register(site, h)
}
func (c *cluster) UseSymbols(tab *symtab.Table) { c.node.UseSymbols(tab) }

// Recovery and snapshots delegate to the coordinator's own node; the
// workers recover their own WALs independently in runServe.
func (c *cluster) NeedsRecovery() bool                     { return c.node.NeedsRecovery() }
func (c *cluster) Recover(host netwire.RecoveryHost) error { return c.node.Recover(host) }
func (c *cluster) SetSnapshotProvider(fn func(simnet.SiteID) ([]byte, error)) {
	c.node.SetSnapshotProvider(fn)
}

var (
	_ arun.Transport    = (*cluster)(nil)
	_ netwire.Recoverer = (*cluster)(nil)
)

// WaitIdle establishes cluster-wide quiescence: every process reports
// zero pending work and an unmoved delivery counter for two consecutive
// polling rounds.  A single process being idle is not enough — a frame
// can be in flight between two workers without touching the
// coordinator — but pending counts cover each frame from send to
// acknowledgement, so a stable all-zero round-pair is genuine global
// quiescence.  Rounds read instantaneous counters (the coordinator's
// own tracker included); the round-pair rule supplies the stability,
// so an already-idle cluster confirms in three pipe round-trips — fast
// enough for the short probes parked pipelined attempts issue.
func (c *cluster) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	stable := 0
	var last []int64
	for {
		cur := make([]int64, 0, len(c.workers)+1)
		delivered, _ := c.node.Stats()
		cur = append(cur, delivered)
		allIdle := c.node.Pending() == 0
		for _, w := range c.workers {
			p, d, err := w.stat()
			if err != nil {
				return false
			}
			if p > 0 {
				allIdle = false
			}
			cur = append(cur, d)
		}
		if allIdle && slicesEqual(cur, last) {
			if stable++; stable >= 2 {
				return true
			}
		} else {
			stable = 0
		}
		last = cur
		if !time.Now().Before(deadline) {
			return false
		}
		// A genuinely busy round waits out the polling interval, or
		// gives up if that would pass the deadline; an idle-looking one
		// (first round, or counters still settling) re-polls as fast as
		// the pipes allow.
		if !allIdle && c.poll > 0 {
			if time.Until(deadline) < c.poll {
				return false
			}
			time.Sleep(c.poll)
		}
	}
}

// IdleNow is one quiescence probe bounded by the polling interval.
// The cluster's peers are other processes, so it cannot see idleness
// as an event and polls itself: a busy first round answers at once,
// and an idle cluster confirms in three pipe round trips.  (WaitIdle(0)
// could never confirm: the round-pair rule needs several rounds.)
func (c *cluster) IdleNow() bool { return c.WaitIdle(c.poll) }

// IdleWait closes after one polling interval, which sends a pipelined
// attempt still waiting for its decision back to IdleNow for the next
// probe.
func (c *cluster) IdleWait() (<-chan struct{}, func()) {
	ch := make(chan struct{})
	t := time.AfterFunc(c.poll, func() { close(ch) })
	return ch, func() { t.Stop() }
}

func (c *cluster) Close() {
	for _, w := range c.workers {
		w.stdin.Close()
	}
	for _, w := range c.workers {
		w.cmd.Wait()
	}
	c.node.Close()
}

func slicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runLocal(sp *spec.Spec, specPath string, n int, timeout, poll time.Duration,
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

	cl := &cluster{node: node, poll: poll}
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
		w := &worker{cmd: cmd, stdin: in, out: bufio.NewScanner(out), sites: assigned}
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
	// arriving at the driver, and the PING/STAT quiescence protocol is
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

	out, err := r.Run()
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
	delivered, deduped := cl.node.Stats()
	fmt.Fprintf(stdout, "driver observed: %d announcements, %d decisions; driver frames: %d delivered, %d deduped\n",
		out.Announcements, out.Decisions, delivered, deduped)
	if !out.Satisfied || len(out.Unresolved) > 0 {
		return 1
	}
	return 0
}
