package netwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/simnet"
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

// testFrames returns n queued records from sa to sb with distinct
// payloads of the actor wire encoding.
func testFrames(t testing.TB, n int) []*outFrame {
	t.Helper()
	frames := make([]*outFrame, n)
	for i := range frames {
		enc, err := actor.AppendPayload(nil, actor.AnnounceMsg{Sym: algebra.Sym(fmt.Sprintf("e%d", i)), At: int64(i)})
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

// rawPeer is a hand-driven sending connection into a volatile node
// hosting site sb.
type rawPeer struct {
	sock net.Conn
	br   *bufio.Reader
}

func newRawPeer(t *testing.T) *rawPeer {
	t.Helper()
	n := NewNode(Config{ID: "B", ListenAddr: "127.0.0.1:0", NodeIndex: 1})
	addr, err := n.Listen()
	if err != nil {
		t.Fatal(err)
	}
	n.Register("sb", func(actor.Net, any) {})
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
		typ, body, err := readFrame(p.br)
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
	p := newRawPeer(t)
	p.send(t, testFrames(t, k))
	if got := p.acks(t, 300*time.Millisecond); len(got) != 1 || got[0] != k {
		t.Fatalf("acks %v for a burst of %d frames, want [%d]", got, k, k)
	}
}

// TestLoneFrameAckedPromptly: a frame with nothing behind it is acked
// without further input — the ack never waits for more data.
func TestLoneFrameAckedPromptly(t *testing.T) {
	p := newRawPeer(t)
	p.send(t, testFrames(t, 1))
	p.sock.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, body, err := readFrame(p.br)
	if err != nil {
		t.Fatalf("no ack for a lone frame: %v", err)
	}
	if upTo, err := parseAck(body); typ != frameAck || err != nil || upTo != 1 {
		t.Fatalf("frame type %d, ack %d (%v); want ack 1", typ, upTo, err)
	}
}
