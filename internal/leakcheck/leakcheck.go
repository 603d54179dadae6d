// Package leakcheck fails a test binary whose tests leave goroutines
// or open file descriptors behind.  A package calls Main from its
// TestMain; after every test has passed, Main waits a short settle for
// closing goroutines to exit, then compares the goroutine count and,
// where /proc/self/fd exists, the open descriptor count with the ones
// taken before the first test ran.  Stdlib only.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle bounds the wait for goroutines and descriptors that are
// already on their way out (a closed listener's accept loop, a
// connection's reader draining its last read).
const settle = 5 * time.Second

// Main runs the package's tests and exits, failing the binary when
// they passed but left goroutines or descriptors behind.
func Main(m *testing.M) {
	g0, fd0 := goroutines(), openFDs()
	code := m.Run()
	if code == 0 {
		if err := check(g0, fd0); err != nil {
			fmt.Fprintln(os.Stderr, "leakcheck:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// check waits up to settle for the counts to fall back to the
// baseline and reports what is left if they do not.
func check(g0, fd0 int) error {
	deadline := time.Now().Add(settle)
	for {
		g, fd := goroutines(), openFDs()
		if g <= g0 && fd <= fd0 {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("tests left %d goroutines (baseline %d) and %d open descriptors (baseline %d); goroutines:\n%s",
				g, g0, fd, fd0, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// goroutines counts the live goroutines, except the signal loop that
// os/signal starts on first use and keeps for the life of the process
// (the fuzzing coordinator installs one).
func goroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.TrimSpace(g) != "" && !strings.Contains(g, "os/signal.signal_recv") {
			count++
		}
	}
	return count
}

// openFDs counts the process's open descriptors, or returns 0 where
// /proc/self/fd does not exist, which disables the descriptor check.
// Two kinds are not counted: the runtime's network poller opens its
// epoll and event descriptors on first use and keeps them for the life
// of the process, and the testing package leaves its -test.cpuprofile
// and -test.trace outputs open until exit.
func openFDs() int {
	const dir = "/proc/self/fd"
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	outputs := map[string]bool{}
	for _, name := range []string{"test.cpuprofile", "test.trace"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" {
			outputs[filepath.Base(f.Value.String())] = true
		}
	}
	n := 0
	for _, e := range entries {
		target, err := os.Readlink(dir + "/" + e.Name())
		if err == nil && (target == "anon_inode:[eventpoll]" || target == "anon_inode:[eventfd]" ||
			outputs[filepath.Base(target)]) {
			continue
		}
		n++
	}
	return n
}
