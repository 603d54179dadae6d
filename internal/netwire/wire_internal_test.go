package netwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"repro/internal/simnet"
)

// TestParseAckStrict covers the ack framing fix: a well-formed ack
// parses, and any trailing bytes are a framing violation — not a
// watermark to silently adopt — so the reader tears the connection
// down and resynchronizes via retransmission.
func TestParseAckStrict(t *testing.T) {
	body := appendAck(nil, 41)[2:] // strip version and type bytes
	got, err := parseAck(body)
	if err != nil || got != 41 {
		t.Fatalf("parseAck(valid) = %d, %v", got, err)
	}
	if _, err := parseAck(append(body, 0x00)); err == nil {
		t.Fatal("parseAck accepted trailing bytes")
	}
	if _, err := parseAck(append(body, 0xde, 0xad)); err == nil {
		t.Fatal("parseAck accepted trailing garbage")
	}
	if _, err := parseAck(nil); err == nil {
		t.Fatal("parseAck accepted an empty body")
	}
}

// FuzzBatchFrame feeds arbitrary bytes to parseBatch, the one parser of
// inbound data frames: it must never panic, and whatever it accepts must
// be a batch of 1..maxBatchFrames records whose payloads fit the frame.
// The seeds pin the boundary verdicts: batches of 1 and 64 parse; count
// 0, count 65, trailing bytes, a truncated record and an oversized
// payload length are errors.
func FuzzBatchFrame(f *testing.F) {
	batch := func(n int) []byte {
		frames := make([]*outFrame, n)
		for i := range frames {
			frames[i] = &outFrame{seq: uint64(i + 1), from: "sa", to: "sb", payload: []byte{byte(i), 0xa5}}
		}
		return appendBatch(nil, 7, frames)[2:] // strip version and type bytes
	}
	one := batch(1)
	oversized := binary.AppendUvarint([]byte{1, 1, 0, 0, 2, 's', 'b'}, maxFrame+1)
	seeds := []struct {
		name string
		body []byte
		ok   bool
	}{
		{"batch of 1", one, true},
		{"batch of 64", batch(maxBatchFrames), true},
		{"count 0", []byte{0}, false},
		{"count 65", batch(maxBatchFrames + 1), false},
		{"trailing bytes", append(bytes.Clone(one), 0), false},
		{"truncated record", one[:len(one)-1], false},
		{"oversized payload length", oversized, false},
	}
	for _, s := range seeds {
		recs, err := parseBatch(nil, s.body)
		if (err == nil) != s.ok {
			f.Fatalf("%s: parseBatch err = %v, want ok=%v", s.name, err, s.ok)
		}
		if s.ok && (recs[0].seq != 1 || string(recs[0].to) != "sb" || !bytes.Equal(recs[0].payload, []byte{0, 0xa5})) {
			f.Fatalf("%s: first record %+v", s.name, recs[0])
		}
		f.Add(s.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, err := parseBatch(nil, body)
		if err != nil {
			return
		}
		if len(recs) == 0 || len(recs) > maxBatchFrames {
			t.Fatalf("accepted a batch of %d records", len(recs))
		}
		for _, r := range recs {
			if len(r.payload) > len(body) {
				t.Fatalf("payload of %d bytes from a %d-byte frame", len(r.payload), len(body))
			}
		}
	})
}

// chunkReader hands out its stream at most n bytes per Read, so the
// fuzzer controls where reads split frames.
type chunkReader struct {
	data  []byte
	n     int
	reads int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	c.reads++
	k := copy(p[:min(len(p), c.n)], c.data)
	c.data = c.data[k:]
	return k, nil
}

// FuzzReadFrame reads arbitrary byte streams, split into arbitrary
// chunks, through the receivers' buffered reader.  readFrame must never
// panic and must agree with a direct walk of the stream: a size below
// 2, a size above maxFrame, a bad version and a truncated frame are
// errors, anything else yields the frame's type and body.  Whenever
// frameBuffered reports a complete frame, the next readFrame must
// return it whole without reading the stream again — the inline ack is
// written only when that predicate is false, so a wrong "true" would
// hold an ack behind a read that can block.
func FuzzReadFrame(f *testing.F) {
	ack := framed(appendAck(nil, 300))
	hello := framed(appendHello(nil, "node", 9))
	f.Add(ack, uint8(2))                                            // split header
	f.Add(hello, uint8(6))                                          // split body
	f.Add(append(bytes.Clone(hello), ack...), uint8(64))            // two frames in one chunk
	f.Add([]byte{}, uint8(1))                                       // zero-length stream
	f.Add([]byte{0, 0, 0, 1, 1}, uint8(8))                          // size below 2
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1), uint8(8)) // size above maxFrame
	f.Add([]byte{0, 0, 0, 2, 2, frameAck}, uint8(8))                // bad version
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8) {
		src := &chunkReader{data: stream, n: int(chunk)%48 + 1}
		br := bufio.NewReaderSize(src, 32)
		var buf []byte
		rest := stream
		for {
			complete := frameBuffered(br)
			reads := src.reads
			typ, body, err := readFrame(br, &buf)
			if complete && src.reads != reads {
				t.Fatalf("frameBuffered reported a complete frame, but readFrame read the stream")
			}
			// The reference walk of the same stream.
			if len(rest) < 4 {
				if err == nil {
					t.Fatalf("read a frame from a %d-byte tail", len(rest))
				}
				return
			}
			size := binary.BigEndian.Uint32(rest)
			switch {
			case size < 2 || size > maxFrame:
				if err == nil {
					t.Fatalf("accepted frame size %d", size)
				}
				return
			case uint64(len(rest)-4) < uint64(size):
				if err == nil || complete {
					t.Fatalf("truncated frame: err %v, complete %v", err, complete)
				}
				return
			case rest[4] != frameVersion:
				if err == nil {
					t.Fatalf("accepted frame version %d", rest[4])
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected a valid frame: %v", err)
			}
			if typ != rest[5] || !bytes.Equal(body, rest[6:4+size]) {
				t.Fatalf("frame mismatch: type %d body %x, want type %d body %x", typ, body, rest[5], rest[6:4+size])
			}
			rest = rest[4+size:]
		}
	})
}

// TestJitterDeterminism covers the seeded-backoff fix: reconnect jitter
// draws from a per-link RNG derived from the fault-plan seed, the node
// index, and the remote address, so a seeded chaos run reproduces its
// backoff schedule exactly — and distinct links desynchronize.
func TestJitterDeterminism(t *testing.T) {
	mk := func(seed int64, index int, addr string) []time.Duration {
		n := NewNode(Config{
			ID: "n", ListenAddr: "127.0.0.1:0", NodeIndex: index,
			Fault: &simnet.FaultPlan{Seed: seed},
		})
		l := newLink(n, addr)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = l.jitter(10 * time.Millisecond)
		}
		return out
	}
	same := func(a, b []time.Duration) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	a := mk(7, 1, "127.0.0.1:9001")
	b := mk(7, 1, "127.0.0.1:9001")
	if !same(a, b) {
		t.Errorf("same (seed, index, addr) produced different jitter:\n%v\n%v", a, b)
	}
	for _, d := range a {
		if d < 5*time.Millisecond || d >= 15*time.Millisecond {
			t.Errorf("jitter %v outside [d/2, 3d/2)", d)
		}
	}
	if same(a, mk(8, 1, "127.0.0.1:9001")) {
		t.Error("different seeds produced identical jitter")
	}
	if same(a, mk(7, 2, "127.0.0.1:9001")) {
		t.Error("different node indices produced identical jitter")
	}
	if same(a, mk(7, 1, "127.0.0.1:9002")) {
		t.Error("different addresses produced identical jitter")
	}
}
