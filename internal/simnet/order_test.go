package simnet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// orderGolden pins the simulator's delivery order: one line per
// delivery (delivery time, send time, sender, receiver, payload) and
// the final statistics, for a reliable script and the same script
// under a fault plan.  The file was captured from the map-keyed
// simulator; a change to the simulator's internals must keep it byte
// for byte, because every protocol golden above it depends on the same
// order, rng draws and statistics.
var orderGolden = filepath.Join("testdata", "order.golden")

// hop is a script message: it travels hops more times round the ring
// of sites before it stops.
type hop struct {
	tag  string
	hops int
}

// orderScript registers the script's sites on n, runs the scripted
// traffic and logs every delivery.  Each site forwards a hop to the next site of the
// ring, every third hop also sends itself a local copy, and every
// fourth arms a timer; an unregistered driver injects the first
// messages, as arun's driver does on a transport that does not observe
// through a driver site.
func orderScript(b *bytes.Buffer, n *Network) {
	ring := []SiteID{"a", "b", "c", "d"}
	for i, id := range ring {
		next := ring[(i+1)%len(ring)]
		n.AddSite(id, HandlerFunc(func(n *Network, m Message) {
			fmt.Fprintf(b, "%d %d %s>%s %v\n", n.Now(), m.Sent, m.From, m.To, m.Payload)
			h, ok := m.Payload.(hop)
			if !ok || h.hops == 0 {
				return
			}
			n.Send(id, next, hop{h.tag, h.hops - 1})
			if h.hops%3 == 0 {
				n.Send(id, id, hop{h.tag + "'", h.hops / 3})
			}
			if h.hops%4 == 0 {
				n.After(id, Time(100*h.hops), "timer-"+h.tag)
			}
		}))
	}
	n.Send("driver", "a", hop{"x", 9})
	n.Send("driver", "c", hop{"y", 7})
	n.Send("b", "d", hop{"z", 12})
	n.Send("d", "d", hop{"w", 6})
	n.After("b", 2500, "alarm")
	n.Run(0)
	st := n.Stats()
	fmt.Fprintf(b, "stats %+v now %d idle %v\n", st, n.Now(), n.Idle())
}

// orderPlans are the golden's two scripts: reliable, then under drop,
// dup, delay and reorder faults and one partition between b and c.
var orderPlans = []struct {
	title string
	fault *FaultPlan
}{
	{"reliable, DefaultLatency, seed 42", nil},
	{"fault plan: drop, dup, delay, reorder, partition b-c", &FaultPlan{
		Seed: 7, Drop: 0.15, Dup: 0.15, Delay: 0.15, Reorder: 0.15,
		Partitions: []Partition{{A: "c", B: "b", From: 4000, Until: 9000}},
	}},
}

// orderLog is the golden's content, each script on a fresh network at
// seed 42.
func orderLog() []byte {
	var b bytes.Buffer
	for _, p := range orderPlans {
		fmt.Fprintf(&b, "# %s\n", p.title)
		n := New(DefaultLatency(), 42)
		n.SetFaultPlan(p.fault)
		orderScript(&b, n)
	}
	return b.Bytes()
}

// TestDeliveryOrderGolden replays both scripts and compares them with
// the checked-in delivery log byte for byte.
func TestDeliveryOrderGolden(t *testing.T) {
	want, err := os.ReadFile(orderGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := orderLog()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("delivery log differs from %s at line %d:\n got  %s\n want %s", orderGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("delivery log differs from %s: %d lines, want %d", orderGolden, len(gl), len(wl))
}

// TestResetMatchesFresh: a network reset for seed 42 after a run at
// another seed delivers each script exactly as a fresh one does — the
// queue, slab, sites, counters, link tables and rng all start over.
func TestResetMatchesFresh(t *testing.T) {
	for _, p := range orderPlans {
		var fresh, reused bytes.Buffer
		n := New(DefaultLatency(), 42)
		n.SetFaultPlan(p.fault)
		orderScript(&fresh, n)

		n = New(DefaultLatency(), 5)
		n.SetFaultPlan(p.fault)
		n.AddSite("extra", HandlerFunc(func(*Network, Message) {}))
		n.Send("extra", "extra", "pending") // still queued at the reset
		orderScript(&bytes.Buffer{}, n)
		n.Reset(42)
		orderScript(&reused, n)
		if !bytes.Equal(fresh.Bytes(), reused.Bytes()) {
			t.Fatalf("%s: reset network differs from a fresh one:\n%s\nwant\n%s", p.title, reused.Bytes(), fresh.Bytes())
		}
	}
}
