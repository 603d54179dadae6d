package netwire

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/simnet"
)

// Pending returns the number of in-flight items the node accounts for:
// queued or running local deliveries plus unacknowledged outbound
// frames (for a Mesh node, the whole mesh's).
func (n *Node) Pending() int64 { return n.pend.Pending() }

// WaitQuiescent waits until the nodes' reports, read fresh, balance
// under Quiescent, or the timeout elapses.  It sleeps on the nodes'
// IdleWait channels between tries, taken before the reports are read:
// a report that is busy, torn or unbalanced is followed by a
// zero-transition somewhere, which closes one of them.  Every node of
// the cluster must be passed, and the caller must not send meanwhile.
func WaitQuiescent(timeout time.Duration, nodes ...*Node) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	cases := make([]reflect.SelectCase, len(nodes)+1)
	cases[len(nodes)] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer.C)}
	cancels := make([]func(), len(nodes))
	for {
		for i, n := range nodes {
			ch, cancel := n.IdleWait()
			cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)}
			cancels[i] = cancel
		}
		reports := make([]IdleReport, 0, len(nodes))
		for _, n := range nodes {
			if r, ok := n.IdleReport(); ok {
				reports = append(reports, r)
			}
		}
		idle := len(reports) == len(nodes) && Quiescent(reports)
		chosen := 0
		if !idle {
			chosen, _, _ = reflect.Select(cases)
		}
		for _, cancel := range cancels {
			cancel()
		}
		if idle || chosen == len(nodes) {
			return idle
		}
	}
}

// waitReport returns the node's report once it is idle.
func waitReport(t *testing.T, n *Node) IdleReport {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		ch, cancel := n.IdleWait()
		r, ok := n.IdleReport()
		if ok {
			cancel()
			return r
		}
		select {
		case <-ch:
			cancel()
		case <-deadline:
			cancel()
			t.Fatalf("node %s never reported idle", n.cfg.ID)
		}
	}
}

// totals sums sent and delivered counts over reports: the per-node
// bookkeeping Quiescent must not be reduced to.
func totals(reports []IdleReport) (sent, delivered uint64) {
	for _, r := range reports {
		for _, c := range r.Sent {
			sent += c
		}
		for _, c := range r.Delivered {
			delivered += c
		}
	}
	return sent, delivered
}

// TestQuiescentRule holds the rule to exactness with real nodes.  A
// drives, so its report is read live, as cmd/wfnet's coordinator reads
// its own node; B's report is the one it gave before A sent.  With that
// stale report the rule must answer busy throughout — while A's frame
// is in flight and after the exchange is over — and idle once B
// reports again.
func TestQuiescentRule(t *testing.T) {
	tests := []struct {
		name  string
		fault *simnet.FaultPlan // on A's outbound frames
		reply bool              // B answers A's frame
		// balanced: once the exchange is over, per-node totals over A's
		// live report and B's stale one balance, so a rule that compares
		// totals would answer idle.
		balanced bool
	}{
		{
			name:     "counting counterexample",
			reply:    true,
			balanced: true,
		},
		{
			name:  "frame in flight",
			fault: &simnet.FaultPlan{Seed: 3, Delay: 1, DelayMax: 100_000},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if v := tc.fault.VerdictFor("sa", "sb", 1, 0); tc.fault != nil && v.Extra < 20_000 {
				t.Fatalf("plan delays the frame %dµs; the case needs a frame in flight for 20ms or more", v.Extra)
			}
			done := make(chan struct{})
			mk := func(id string, idx int, fp *simnet.FaultPlan) *Node {
				// No retransmission before the delayed copy lands.
				return NewNode(Config{
					ID: id, ListenAddr: "127.0.0.1:0", NodeIndex: idx, Fault: fp,
					RetryMin: time.Second, RetryMax: time.Second,
				})
			}
			a, b := mk("A", 0, tc.fault), mk("B", 1, nil)
			t.Cleanup(func() { a.Close(); b.Close() })
			addrA, err := a.Listen()
			if err != nil {
				t.Fatal(err)
			}
			addrB, err := b.Listen()
			if err != nil {
				t.Fatal(err)
			}
			a.Register("sa", func(actor.Net, any) { close(done) })
			b.Register("sb", func(net actor.Net, p any) {
				if tc.reply {
					net.Send("sb", "sa", p)
				} else {
					close(done)
				}
			})
			peers := map[simnet.SiteID]string{"sa": addrA, "sb": addrB}
			a.Start(peers)
			b.Start(peers)

			stale := waitReport(t, b)
			if len(stale.Sent)+len(stale.Delivered) != 0 {
				t.Fatalf("B reports counts %v before any traffic", stale)
			}
			rule := func() bool {
				live, ok := a.IdleReport()
				return ok && Quiescent([]IdleReport{live, stale})
			}
			a.Send("sa", "sb", actor.AnnounceMsg{Sym: algebra.Sym("e1"), At: 1})
			deadline := time.Now().Add(10 * time.Second)
			for finished := false; !finished; {
				select {
				case <-done:
					finished = a.IdleNow()
				default:
				}
				if rule() {
					t.Fatal("rule read idle while B's report was stale")
				}
				if time.Now().After(deadline) {
					t.Fatal("exchange did not finish")
				}
			}
			live := waitReport(t, a)
			reports := []IdleReport{live, stale}
			if Quiescent(reports) {
				t.Fatalf("rule read idle over %v", reports)
			}
			if sent, delivered := totals(reports); (sent == delivered) != tc.balanced {
				t.Fatalf("totals %d sent, %d delivered; want balanced=%v", sent, delivered, tc.balanced)
			}
			if fresh := waitReport(t, b); !Quiescent([]IdleReport{live, fresh}) {
				t.Fatalf("rule read busy over %v and %v", live, fresh)
			}
		})
	}
}
