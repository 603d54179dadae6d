// Command wfserve is the long-lived workflow service daemon: it hosts
// a registry of compiled plans (many named .wf specs per tenant),
// launches scripted or externally-driven instances across sharded
// workers (instance id modulo shard count), and answers on one port for
// both the HTTP control API and the length-prefixed binary announce
// fast path (the byte-sniffed mux from internal/obs — a frame's
// length prefix always leads with a zero byte, an HTTP method never
// does).
//
// Usage:
//
//	wfserve [-listen addr] [-shards n] [-mailbox n] [-highwater n]
//	        [-wal dir] [-nosync] [-lagmax n] [-plans n] [-idle d]
//	        [-v] [spec.wf ...]
//
// Any .wf files on the command line are pre-registered under the
// "default" tenant, named by basename.  With -wal the daemon journals
// registrations, admissions, and external announcements per tenant;
// restarting on the same directory re-registers every spec and
// finishes (scripted) or re-opens (external) every incomplete
// instance.
//
// The HTTP surface (see internal/serve):
//
//	POST /v1/specs?name=&tenant=     register a .wf spec (body)
//	GET  /v1/specs?tenant=           list specs with per-plan stats
//	POST /v1/instances               launch {tenant,spec,mode,seed,count}
//	GET  /v1/instances/{id}          instance state / verdict
//	POST /v1/instances/{id}/announce external event {event,forced}
//	POST /v1/instances/{id}/close    settle an external instance
//	GET  /v1/verdicts?after=&waitms= cursor-streamed verdicts
//	GET  /healthz                    503 while draining
//	GET  /debug/metrics              obs registry snapshot
//
// Admission sheds with 429 + Retry-After when the placed shard's
// mailbox passes the high watermark or the tenant's WAL fsync lag
// grows past -lagmax.  SIGTERM/SIGINT drains: admission stops (503),
// in-flight instances settle, open external instances close to their
// maximal-trace outcomes, logs sync, and the process exits 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/drain"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:8844", "listen address (HTTP and frame protocol share it)")
	shards := fs.Int("shards", 0, "execution shards (default GOMAXPROCS); keep stable across restarts of the same -wal dir")
	mailbox := fs.Int("mailbox", 0, "per-shard mailbox depth (default 256)")
	highwater := fs.Int("highwater", 0, "queue depth that sheds admissions (default 3/4 of -mailbox)")
	walRoot := fs.String("wal", "", "per-tenant WAL root; empty disables durability")
	nosync := fs.Bool("nosync", false, "skip fsync on the WAL (group commit still orders writes)")
	lagmax := fs.Int64("lagmax", 0, "shed admissions when WAL fsync lag exceeds this many records (default 4096, negative disables)")
	plans := fs.Int("plans", 0, "compiled-plan cache capacity (default 64; sources are never evicted)")
	idle := fs.Duration("idle", 0, "per-instance transport idle timeout (default 15s)")
	verbose := fs.Bool("v", false, "progress diagnostics on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	}

	s, err := serve.NewServer(serve.Config{
		Shards: *shards, MailboxDepth: *mailbox, HighWater: *highwater,
		WALRoot: *walRoot, WALNoSync: *nosync, FsyncLagMax: *lagmax,
		RegistryCap: *plans, IdleTimeout: *idle, Logf: logf,
	})
	if err != nil {
		fmt.Fprintln(stderr, "wfserve:", err)
		return 1
	}

	// Pre-register any specs named on the command line under the
	// default tenant.
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "wfserve:", err)
			return 1
		}
		name := strings.TrimSuffix(filepath.Base(path), ".wf")
		if _, rerr := s.RegisterSpec("default", name, string(src)); rerr != nil {
			fmt.Fprintf(stderr, "wfserve: %s: %s\n", path, rerr.Msg)
			return 1
		}
		logf("wfserve: registered default/%s", name)
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "wfserve:", err)
		return 1
	}
	mux := &obs.SniffServer{HTTP: serve.NewHandler(s), Frame: serve.FrameHandler(s), KeepAlive: true}

	// Graceful drain on SIGTERM/SIGINT: stop admitting, settle every
	// in-flight instance, checkpoint the logs, then exit 0 by letting
	// Serve return off the closed listener.
	dh := drain.Notify(func(sig os.Signal) {
		logf("wfserve: %v: draining", sig)
		s.Drain()
		mux.Close()
	})
	defer dh.Stop()

	fmt.Fprintf(stdout, "LISTEN %s\n", lis.Addr())
	logf("wfserve: serving on %s (%d shards)", lis.Addr(), s.Stats().Shards)

	err = mux.Serve(lis)
	if s.Draining() {
		logf("wfserve: drained, exiting")
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "wfserve:", err)
		return 1
	}
	return 0
}
