package drain

import (
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestSignalDrain: a SIGTERM to the process runs the drain function
// exactly once, even if more Triggers follow.
func TestSignalDrain(t *testing.T) {
	var runs atomic.Int32
	got := make(chan os.Signal, 1)
	h := Notify(func(sig os.Signal) {
		runs.Add(1)
		got <- sig
	})
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case sig := <-got:
		if sig != syscall.SIGTERM {
			t.Errorf("drain saw %v, want SIGTERM", sig)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never ran after SIGTERM")
	}
	h.run(nil) // must be a no-op now
	if n := runs.Load(); n != 1 {
		t.Errorf("drain ran %d times, want 1", n)
	}
}

// TestTriggerOnce: programmatic drain runs once; concurrent Triggers
// serialize on the single execution.
func TestTriggerOnce(t *testing.T) {
	var runs atomic.Int32
	h := Notify(func(os.Signal) { runs.Add(1) })
	defer h.Stop()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() { h.run(nil); done <- struct{}{} }()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("drain ran %d times, want 1", n)
	}
}

// TestStopWithoutSignal: Stop unregisters cleanly when nothing fired.
func TestStopWithoutSignal(t *testing.T) {
	var runs atomic.Int32
	h := Notify(func(os.Signal) { runs.Add(1) })
	h.Stop()
	if n := runs.Load(); n != 0 {
		t.Errorf("drain ran %d times without a signal", n)
	}
}
