package simnet

import (
	"strings"
	"testing"
)

type recorder struct {
	got []Message
}

func (r *recorder) Handle(n *Network, m Message) { r.got = append(r.got, m) }

func TestDeliveryOrderDeterministic(t *testing.T) {
	runOnce := func() []string {
		n := New(DefaultLatency(), 42)
		var order []string
		mk := func(id SiteID) {
			n.AddSite(id, HandlerFunc(func(_ *Network, m Message) {
				order = append(order, string(id)+":"+m.Payload.(string))
			}))
		}
		mk("a")
		mk("b")
		mk("c")
		n.Send("a", "b", "m1")
		n.Send("a", "c", "m2")
		n.Send("b", "b", "local")
		n.Run(0)
		return order
	}
	first := runOnce()
	second := runOnce()
	if len(first) != 3 {
		t.Fatalf("expected 3 deliveries, got %v", first)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("non-deterministic delivery: %v vs %v", first, second)
		}
	}
	// The local message has the smallest latency and arrives first.
	if first[0] != "b:local" {
		t.Errorf("local message must arrive first, got %v", first)
	}
}

func TestLatencyModel(t *testing.T) {
	n := New(LatencyModel{Local: 1, Remote: 100, Jitter: 0}, 1)
	var times []Time
	n.AddSite("x", HandlerFunc(func(net *Network, m Message) { times = append(times, net.Now()) }))
	n.AddSite("y", HandlerFunc(func(net *Network, m Message) { times = append(times, net.Now()) }))
	n.Send("x", "x", "local")
	n.Send("x", "y", "remote")
	n.Run(0)
	if len(times) != 2 || times[0] != 1 || times[1] != 100 {
		t.Fatalf("latencies wrong: %v", times)
	}
}

func TestTimersAndClock(t *testing.T) {
	n := New(DefaultLatency(), 7)
	var fired []Time
	n.AddSite("s", HandlerFunc(func(net *Network, m Message) { fired = append(fired, net.Now()) }))
	n.After("s", 50, "t1")
	n.After("s", 10, "t2")
	n.Run(0)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 50 {
		t.Fatalf("timer order wrong: %v", fired)
	}
	if n.Now() != 50 {
		t.Fatalf("clock: got %d want 50", n.Now())
	}
}

func TestStats(t *testing.T) {
	n := New(LatencyModel{Local: 1, Remote: 10}, 3)
	r := &recorder{}
	n.AddSite("a", r)
	n.AddSite("b", r)
	n.Send("a", "a", 1)
	n.Send("a", "b", 2)
	n.Send("b", "a", 3)
	n.Run(0)
	st := n.Stats()
	if st.Messages != 3 || st.Remote != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.PerSite["a"] != 2 || st.PerSite["b"] != 1 {
		t.Fatalf("per-site: %+v", st.PerSite)
	}
	if st.PeakQueue < 2 {
		t.Fatalf("peak queue: %+v", st)
	}
}

func TestCascadedSends(t *testing.T) {
	n := New(LatencyModel{Local: 1, Remote: 5}, 9)
	hops := 0
	n.AddSite("relay", HandlerFunc(func(net *Network, m Message) {
		hops++
		if k := m.Payload.(int); k > 0 {
			net.Send("relay", "relay", k-1)
		}
	}))
	n.Send("relay", "relay", 4)
	steps := n.Run(0)
	if hops != 5 || steps != 5 {
		t.Fatalf("cascade: hops=%d steps=%d", hops, steps)
	}
	if !n.Idle() {
		t.Fatal("network must be idle after Run")
	}
}

func TestOccurrenceIndicesMonotone(t *testing.T) {
	n := New(DefaultLatency(), 1)
	a := n.NextOccurrence()
	b := n.NextOccurrence()
	if b <= a {
		t.Fatalf("occurrence indices must increase: %d then %d", a, b)
	}
}

func TestRunMaxSteps(t *testing.T) {
	n := New(LatencyModel{Local: 1}, 1)
	n.AddSite("loop", HandlerFunc(func(net *Network, m Message) {
		net.Send("loop", "loop", nil)
	}))
	n.Send("loop", "loop", nil)
	if steps := n.Run(10); steps != 10 {
		t.Fatalf("maxSteps: got %d", steps)
	}
}

func TestDuplicateSitePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate site")
		}
	}()
	n := New(DefaultLatency(), 1)
	n.AddSite("a", &recorder{})
	n.AddSite("a", &recorder{})
}

// TestUnknownSitePanics: a send or timer to a site nobody registered
// panics where it is made, naming the site, and queues nothing — it
// does not wait for a delivery that Run(maxSteps) might never reach.
// An unregistered sender is fine: drivers inject from outside.
func TestUnknownSitePanics(t *testing.T) {
	n := New(DefaultLatency(), 1)
	n.AddSite("a", &recorder{})
	for name, call := range map[string]func(){
		"Send":  func() { n.Send("a", "nowhere", nil) },
		"After": func() { n.After("nowhere", 10, nil) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `"nowhere"`) {
					t.Fatalf("%s to an unknown site: panic %q, want one naming \"nowhere\"", name, msg)
				}
			}()
			call()
		}()
	}
	if !n.Idle() {
		t.Fatal("a send to an unknown site must queue nothing")
	}
	n.Send("driver", "a", "hello")
	if n.Run(0) != 1 {
		t.Fatal("a send from an unregistered sender must be delivered")
	}
}

// TestSendStepZeroAlloc: once warm, a remote send under the jittered
// default latency and its delivery allocate nothing — the slab slot,
// the queue entry and the rng are all reused.
func TestSendStepZeroAlloc(t *testing.T) {
	n := New(DefaultLatency(), 1)
	n.AddSite("a", HandlerFunc(func(*Network, Message) {}))
	n.AddSite("b", HandlerFunc(func(*Network, Message) {}))
	var payload any = 42
	step := func() {
		n.Send("a", "b", payload)
		n.Send("b", "b", payload)
		n.Step()
		n.Step()
	}
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady-state Send+Step allocates %.1f times, want 0", allocs)
	}
}
