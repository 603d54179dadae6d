package netwire

import (
	"bytes"
	"encoding/binary"
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
		if s.ok && (recs[0].seq != 1 || recs[0].to != "sb" || !bytes.Equal(recs[0].payload, []byte{0, 0xa5})) {
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
