package netwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/simnet"
	"repro/internal/symtab"
	"repro/internal/wal"
)

// countConn is a net.Conn that records every Write and accepts it in
// full; the methods the writer does not call are left to the nil
// embedded Conn.
type countConn struct {
	net.Conn
	writes int
	keep   bool // record the bytes, not only the call
	buf    bytes.Buffer
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes++
	if c.keep {
		c.buf.Write(p)
	}
	return len(p), nil
}

func (c *countConn) SetWriteDeadline(time.Time) error { return nil }

// events is the plan table the tests' announcements name: e0…e2047.
// Every node that sends or receives them uses it.
var events = func() *symtab.Table {
	tab := symtab.New()
	for i := 0; i < 2048; i++ {
		tab.Add(algebra.Sym(fmt.Sprintf("e%d", i)))
	}
	return tab
}()

// eventID is e<i>'s id in events.
func eventID(i int) symtab.ID { return events.MustLookup(algebra.Sym(fmt.Sprintf("e%d", i))) }

// Events and EventID give the external tests the same table.
var Events, EventID = events, eventID

// testFrames returns n queued records from sa to sb with distinct
// payloads of the actor wire encoding.
func testFrames(t testing.TB, n int) []*outFrame {
	t.Helper()
	frames := make([]*outFrame, n)
	for i := range frames {
		enc, err := actor.AppendPayload(events, nil, actor.AnnounceMsg{ID: eventID(i), At: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = &outFrame{seq: uint64(i + 1), from: "sa", to: "sb", payload: enc}
	}
	return frames
}

// framed prefixes a frame body (version and type included) with its
// length, the bytes one frame puts on the wire.
func framed(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestTransmitOneWrite: a transmission of 1 record and one of 64 each
// reach the connection as a single Write carrying exactly
// len ‖ appendBatch(…).
func TestTransmitOneWrite(t *testing.T) {
	n := NewNode(Config{ID: "n", ListenAddr: "127.0.0.1:0"})
	n.UseSymbols(events)
	l := newLink(n, "127.0.0.1:1")
	for _, k := range []int{1, maxBatchFrames} {
		conn := &countConn{keep: true}
		cw := newConnWriter(conn, time.Second)
		frames := testFrames(t, k)
		if err := l.transmit(cw, frames); err != nil {
			t.Fatal(err)
		}
		if conn.writes != 1 {
			t.Errorf("batch of %d: %d writes, want 1", k, conn.writes)
		}
		if want := framed(appendBatch(nil, n.clock.Load(), frames)); !bytes.Equal(conn.buf.Bytes(), want) {
			t.Errorf("batch of %d: wrote %d bytes, want len ‖ appendBatch (%d bytes)", k, conn.buf.Len(), len(want))
		}
	}
}

// TestTransmitZeroAlloc: once the writer's buffer has grown, a batch
// transmission plus an inline ack write allocate nothing.
func TestTransmitZeroAlloc(t *testing.T) {
	n := NewNode(Config{ID: "n", ListenAddr: "127.0.0.1:0"})
	n.UseSymbols(events)
	l := newLink(n, "127.0.0.1:1")
	cw := newConnWriter(&countConn{}, time.Second)
	frames := testFrames(t, 8)
	run := func() {
		if err := l.transmit(cw, frames); err != nil {
			t.Fatal(err)
		}
		if err := cw.writeAck(1 << 40); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grow the frame buffer
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("transmit + ack: %.1f allocs/op, want 0", allocs)
	}
}

// TestReceiveZeroAlloc: once the receiver's slices and routes have
// grown, an in-order batch through parse, admit, decode and routing to
// the site's inbox allocates only the decoded messages, one per record.
func TestReceiveZeroAlloc(t *testing.T) {
	const k = 8
	n := NewNode(Config{ID: "B", ListenAddr: "127.0.0.1:0", NodeIndex: 1})
	n.UseSymbols(events)
	defer n.Close()
	n.Register("sb", func(actor.Net, any) {})
	const runs = 102 // AllocsPerRun's warm-up, its 100 runs, and ours
	bodies := make([][]byte, runs)
	for r := range bodies {
		frames := testFrames(t, k)
		for i, f := range frames {
			f.seq = uint64(r*k + i + 1)
		}
		bodies[r] = appendBatch(nil, 0, frames)[2:] // strip version and type bytes
	}
	rc := receiver{node: n, peerID: "A", peer: n.recvPeer("A")}
	next := 0
	run := func() {
		ack, ok := rc.batch(bodies[next])
		next++
		if !ok || ack != uint64(next*k) {
			t.Fatalf("batch %d: ack %d, ok %v", next, ack, ok)
		}
	}
	run() // warm-up: grow the receiver's slices, learn the route to sb
	allocs := testing.AllocsPerRun(100, run)
	t.Logf("%.1f allocs per batch of %d", allocs, k)
	if allocs > k {
		t.Fatalf("receiving a batch of %d records: %.1f allocs/op, want ≤ %d (the decoded messages)", k, allocs, k)
	}
	if !n.WaitIdle(5 * time.Second) {
		t.Fatal("deliveries never drained")
	}
}

// TestDurableQueueZeroAlloc: on a WAL-backed node, queueing frames,
// pruning them on an ack (with its per-site KAck records), recycling
// them and waking the links after a durable advance allocate nothing
// once the queue and the free list have grown.
func TestDurableQueueZeroAlloc(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(Config{ID: "n", ListenAddr: "127.0.0.1:0", WAL: w})
	n.UseSymbols(events)
	defer n.Close()
	l := newLink(n, "127.0.0.1:1") // no session: the test plays its part
	n.links[l.addr] = l
	payload := []byte{1, 2, 3}
	to := [2]simnet.SiteID{"sb", "sc"}
	run := func() {
		for i := 0; i < 8; i++ {
			n.pend.Add(1)
			l.enqueue("sa", to[i%2], payload, nil)
		}
		l.ack(l.nextSeq)
		l.mu.Lock()
		l.recycle()
		l.mu.Unlock()
		n.wakeLinks()
	}
	run() // warm-up: grow the queue and the free list
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("enqueue + ack + recycle + wake: %.1f allocs/op, want 0", allocs)
	}
}

// rawPeer is a hand-driven sending connection into a volatile node
// hosting site sb, whose deliveries go to the handler given (nil:
// dropped).
type rawPeer struct {
	sock net.Conn
	br   *bufio.Reader
	buf  []byte
}

func newRawPeer(t *testing.T, h func(payload any)) *rawPeer {
	t.Helper()
	n := NewNode(Config{ID: "B", ListenAddr: "127.0.0.1:0", NodeIndex: 1})
	n.UseSymbols(events)
	addr, err := n.Listen()
	if err != nil {
		t.Fatal(err)
	}
	n.Register("sb", func(_ actor.Net, p any) {
		if h != nil {
			h(p)
		}
	})
	n.Start(map[simnet.SiteID]string{"sb": addr})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		n.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close(); n.Close() })
	return &rawPeer{sock: conn, br: bufio.NewReader(conn)}
}

// send writes a HELLO followed by one batch frame per record, all in a
// single Write, so they reach the receiver as one read burst.
func (p *rawPeer) send(t *testing.T, frames []*outFrame) {
	t.Helper()
	out := framed(appendHello(nil, "A", 0))
	for _, f := range frames {
		out = append(out, framed(appendBatch(nil, 0, []*outFrame{f}))...)
	}
	if _, err := p.sock.Write(out); err != nil {
		t.Fatal(err)
	}
}

// acks reads acknowledgements until none arrives within quiet.
func (p *rawPeer) acks(t *testing.T, quiet time.Duration) []uint64 {
	t.Helper()
	var got []uint64
	for {
		p.sock.SetReadDeadline(time.Now().Add(quiet))
		typ, body, err := readFrame(p.br, &p.buf)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return got
		}
		if err != nil {
			t.Fatalf("reading acks: %v", err)
		}
		if typ != frameAck {
			t.Fatalf("frame type %d on the ack channel", typ)
		}
		upTo, err := parseAck(body)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, upTo)
	}
}

// TestAckPerDrainedBurst: k batch frames that arrive in one read burst
// are answered by one cumulative ack for the last sequence number.
func TestAckPerDrainedBurst(t *testing.T) {
	const k = 16
	p := newRawPeer(t, nil)
	p.send(t, testFrames(t, k))
	if got := p.acks(t, 300*time.Millisecond); len(got) != 1 || got[0] != k {
		t.Fatalf("acks %v for a burst of %d frames, want [%d]", got, k, k)
	}
}

// TestLoneFrameAckedPromptly: a frame with nothing behind it is acked
// without further input — the ack never waits for more data.
func TestLoneFrameAckedPromptly(t *testing.T) {
	p := newRawPeer(t, nil)
	p.send(t, testFrames(t, 1))
	p.sock.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, body, err := readFrame(p.br, &p.buf)
	if err != nil {
		t.Fatalf("no ack for a lone frame: %v", err)
	}
	if upTo, err := parseAck(body); typ != frameAck || err != nil || upTo != 1 {
		t.Fatalf("frame type %d, ack %d (%v); want ack 1", typ, upTo, err)
	}
}

// TestReorderedRecordSurvivesBufferReuse: the receiver reads every
// frame into one reused buffer, so a record buffered out of order must
// own its payload.  Seq 2 arrives first and is buffered, seq 3's frame
// is read over the same bytes, then seq 1 fills the gap: the handler
// must see the three payloads byte-exact, in sequence order.
func TestReorderedRecordSurvivesBufferReuse(t *testing.T) {
	got := make(chan any, 3)
	p := newRawPeer(t, func(payload any) { got <- payload })
	frames := testFrames(t, 3)
	if len(frames[1].payload) != len(frames[2].payload) {
		t.Fatal("seq 2 and seq 3 payloads must be the same size to overlap in the buffer")
	}
	p.send(t, []*outFrame{frames[1], frames[2], frames[0]})
	for i, f := range frames {
		select {
		case msg := <-got:
			enc, err := actor.AppendPayload(events, nil, msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, f.payload) {
				t.Fatalf("delivery %d (seq %d) carried %v, want the payload sent as seq %d", i, f.seq, msg, f.seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d (seq %d) never arrived", i, f.seq)
		}
	}
}

// TestUnhostedSiteLogged: a record for a site the node does not host is
// dropped and logged by name, also when it was buffered out of order
// and the bytes it was read from have been reused since.
func TestUnhostedSiteLogged(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	n := NewNode(Config{ID: "B", ListenAddr: "127.0.0.1:0", NodeIndex: 1,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		}})
	n.UseSymbols(events)
	defer n.Close()
	n.Register("sb", func(actor.Net, any) {})
	frames := testFrames(t, 2)
	frames[1].to = "sz"
	rc := receiver{node: n, peerID: "A", peer: n.recvPeer("A")}
	body := appendBatch(nil, 0, frames[1:])[2:] // strip version and type bytes
	if _, ok := rc.batch(body); !ok {
		t.Fatal("seq 2 refused")
	}
	clear(body) // as the next read would
	if ack, ok := rc.batch(appendBatch(nil, 0, frames[:1])[2:]); !ok || ack != 2 {
		t.Fatalf("seq 1: ack %d, ok %v; want ack 2", ack, ok)
	}
	if !n.WaitIdle(5 * time.Second) {
		t.Fatal("deliveries never drained")
	}
	mu.Lock()
	defer mu.Unlock()
	want := `frame 2 from A for unhosted site "sz"`
	for _, l := range logs {
		if strings.Contains(l, want) {
			return
		}
	}
	t.Fatalf("logs %q, want one containing %s", logs, want)
}
