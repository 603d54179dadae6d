package actor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/algebra"
	"repro/internal/simnet"
	"repro/internal/symtab"
)

// Wire codec for the actor protocol: a compact, hand-rolled binary
// encoding used by internal/netwire to carry the messages of this
// package across OS processes.  No reflection or gob sits on the hot
// path — each message type has an explicit append/parse pair — and
// every payload starts with a version byte so incompatible nodes fail
// loudly instead of misparsing.
//
// Layout: [version][kind][fields...].  Strings are uvarint-length-
// prefixed bytes; signed integers are zigzag varints; symbols are a
// flags byte (bit0 = complement), the name, and a parameter list whose
// entries are a flags byte (bit0 = variable) plus the term text.  The
// decoder is total: arbitrary input yields a message or an error,
// never a panic or an oversized allocation (FuzzDecodePayload locks
// this in).
//
// Messages carry plan symbol ids; the wire carries names, because ids
// are plan-scoped.  The codec is the one edge where the two meet: both
// directions take the plan's table, the encoder writes each id's
// symbol, and the decoder resolves every symbol of every message kind
// back to its id.  A name the plan does not hold is a decode error,
// never a wrong id, and a parameterless name resolves without
// allocating.

// WireVersion identifies the codec revision; bump on any layout change.
const WireVersion = 1

// Message kind tags.
const (
	kindAttempt byte = iota + 1
	kindAnnounce
	kindInquire
	kindInquireReply
	kindNudge
	kindRelease
	kindDecision
	kindInstanced
)

// Decoder hardening bounds: real protocol messages are tiny, so any
// input exceeding these is malformed and must not allocate.
const (
	maxWireString = 1 << 16
	maxWireList   = 1 << 12
)

// AppendPayload appends the payload, encoded against the plan's
// table, to dst and returns the extended slice.  It errors without a
// table, on an id the table does not hold and on payload types outside
// the actor protocol.
func AppendPayload(tab *symtab.Table, dst []byte, payload any) ([]byte, error) {
	if tab == nil {
		return nil, errNoTable
	}
	w := wireWriter{buf: append(dst, WireVersion), tab: tab}
	switch m := payload.(type) {
	case AttemptMsg:
		w.buf = append(w.buf, kindAttempt)
		w.sym(m.ID)
		w.bool(m.Forced)
		w.string(string(m.ReplyTo))
	case AnnounceMsg:
		w.buf = append(w.buf, kindAnnounce)
		w.sym(m.ID)
		w.varint(m.At)
	case InquireMsg:
		w.buf = append(w.buf, kindInquire)
		w.sym(m.Target)
		w.sym(m.Requester)
		w.string(string(m.ReplyTo))
		w.varint(int64(m.Round))
		w.syms(m.Hyp)
	case InquireReplyMsg:
		w.buf = append(w.buf, kindInquireReply)
		w.sym(m.Target)
		w.sym(m.Requester)
		w.varint(int64(m.Round))
		w.bool(m.Occurred)
		w.varint(m.At)
		w.bool(m.Impossible)
		w.bool(m.Held)
		w.bool(m.Promised)
		w.syms(m.Conds)
		w.bool(m.AfterReq)
	case NudgeMsg:
		w.buf = append(w.buf, kindNudge)
		w.sym(m.ID)
	case ReleaseMsg:
		w.buf = append(w.buf, kindRelease)
		w.sym(m.Target)
		w.sym(m.Requester)
		w.varint(int64(m.Round))
		w.bool(m.Promise)
		w.bool(m.Fired)
	case DecisionMsg:
		w.buf = append(w.buf, kindDecision)
		w.sym(m.ID)
		w.bool(m.Accepted)
		w.varint(m.At)
		w.varint(int64(m.AttemptedAt))
		w.varint(int64(m.DecidedAt))
		w.string(m.Reason)
	case Instanced:
		if _, nested := m.Msg.(Instanced); nested {
			return nil, fmt.Errorf("actor: instanced envelopes do not nest")
		}
		w.buf = append(w.buf, kindInstanced)
		w.buf = binary.AppendUvarint(w.buf, uint64(m.Inst))
		return AppendPayload(tab, w.buf, m.Msg)
	default:
		return nil, fmt.Errorf("actor: cannot encode payload %T", payload)
	}
	return w.buf, w.err
}

var errNoTable = errors.New("actor: no plan symbol table")

// DecodePayloadOn parses one encoded payload, resolving every symbol
// it names against the plan's table.
func DecodePayloadOn(tab *symtab.Table, data []byte) (any, error) {
	if tab == nil {
		return nil, errNoTable
	}
	r := &wireReader{buf: data, tab: tab}
	version := r.byte()
	if r.err == nil && version != WireVersion {
		return nil, fmt.Errorf("actor: wire version %d, want %d", version, WireVersion)
	}
	kind := r.byte()
	var out any
	switch kind {
	case kindAttempt:
		out = AttemptMsg{ID: r.sym(), Forced: r.bool(), ReplyTo: simnet.SiteID(r.string())}
	case kindAnnounce:
		out = AnnounceMsg{ID: r.sym(), At: r.varint()}
	case kindInquire:
		out = InquireMsg{Target: r.sym(), Requester: r.sym(),
			ReplyTo: simnet.SiteID(r.string()), Round: int(r.varint()), Hyp: r.syms()}
	case kindInquireReply:
		out = InquireReplyMsg{Target: r.sym(), Requester: r.sym(), Round: int(r.varint()),
			Occurred: r.bool(), At: r.varint(), Impossible: r.bool(), Held: r.bool(),
			Promised: r.bool(), Conds: r.syms(), AfterReq: r.bool()}
	case kindNudge:
		out = NudgeMsg{ID: r.sym()}
	case kindRelease:
		out = ReleaseMsg{Target: r.sym(), Requester: r.sym(), Round: int(r.varint()),
			Promise: r.bool(), Fired: r.bool()}
	case kindDecision:
		out = DecisionMsg{ID: r.sym(), Accepted: r.bool(), At: r.varint(),
			AttemptedAt: simnet.Time(r.varint()), DecidedAt: simnet.Time(r.varint()),
			Reason: r.string()}
	case kindInstanced:
		inst := r.uvarint()
		if r.err == nil && inst > 1<<32-1 {
			r.fail("instance number %d exceeds limit", inst)
		}
		if r.err != nil {
			return nil, r.err
		}
		// The nested payload is a complete encoding (version byte
		// included).  The encoder refuses nested envelopes, so reject
		// them here too — recursion depth stays at exactly two.
		inner, err := DecodePayloadOn(tab, r.buf[r.pos:])
		if err != nil {
			return nil, err
		}
		if _, nested := inner.(Instanced); nested {
			return nil, fmt.Errorf("actor: instanced envelopes do not nest")
		}
		return Instanced{Inst: uint32(inst), Msg: inner}, nil
	default:
		if r.err == nil {
			r.err = fmt.Errorf("actor: unknown wire kind %d", kind)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != r.pos {
		return nil, fmt.Errorf("actor: %d trailing bytes after payload", len(r.buf)-r.pos)
	}
	return out, nil
}

// encodeBufPool recycles encode buffers across Send calls: protocol
// messages are tiny (tens of bytes), so a pooled 256-byte slice makes
// the steady-state encode path allocation-free — BenchmarkAppendPayload
// and TestEncodeZeroAlloc lock this in.
var encodeBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// GetEncodeBuf borrows an empty encode buffer from the pool.  Pass the
// pointer back to PutEncodeBuf when the encoded bytes are no longer
// referenced (for the wire transport: once the frame is acknowledged).
func GetEncodeBuf() *[]byte {
	return encodeBufPool.Get().(*[]byte)
}

// PutEncodeBuf returns a buffer to the pool.
func PutEncodeBuf(b *[]byte) {
	if b == nil || cap(*b) > 1<<16 {
		// Oversized buffers (a pathological payload) are dropped rather
		// than pinned in the pool.
		return
	}
	*b = (*b)[:0]
	encodeBufPool.Put(b)
}

// wireWriter appends fields to buf, with a sticky error for an id the
// table does not hold.
type wireWriter struct {
	buf []byte
	tab *symtab.Table
	err error
}

func (w *wireWriter) bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *wireWriter) varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

func (w *wireWriter) string(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// sym writes the symbol an id names: a flags byte (bit0 = complement),
// the name, and the parameters, each a flags byte (bit0 = variable)
// plus the term text.
func (w *wireWriter) sym(id symtab.ID) {
	if id < 2 || int(id) >= w.tab.Len() {
		if w.err == nil {
			w.err = fmt.Errorf("actor: symbol id %d is not in the plan", id)
		}
		return
	}
	s := w.tab.Sym(id)
	var flags byte
	if s.Bar {
		flags |= 1
	}
	w.buf = append(w.buf, flags)
	w.string(s.Name)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s.Params)))
	for _, t := range s.Params {
		var tf byte
		if t.IsVar {
			tf |= 1
		}
		w.buf = append(w.buf, tf)
		w.string(t.Value)
	}
}

func (w *wireWriter) syms(ids []symtab.ID) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(ids)))
	for _, id := range ids {
		w.sym(id)
	}
}

// wireReader is a bounds-checked cursor with sticky errors: after the
// first failure every read returns a zero value, so message parsers
// can read field sequences without per-field error plumbing.
type wireReader struct {
	buf []byte
	pos int
	err error
	tab *symtab.Table
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("actor: "+format, args...)
	}
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("truncated payload at byte %d", r.pos)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *wireReader) bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool at byte %d", r.pos-1)
		return false
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// bytes reads a length-prefixed string as a view of the buffer.
func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxWireString {
		r.fail("string length %d exceeds limit", n)
		return nil
	}
	if r.pos+int(n) > len(r.buf) {
		r.fail("truncated string at byte %d", r.pos)
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

func (r *wireReader) string() string { return string(r.bytes()) }

// sym reads a symbol and resolves it to its id in the plan's table.
// A parameterless name resolves from the buffer's bytes without
// allocating; a parameterized symbol must match the table's symbol
// exactly.
func (r *wireReader) sym() symtab.ID {
	flags := r.byte()
	if r.err == nil && flags > 1 {
		r.fail("invalid symbol flags %d", flags)
	}
	name := r.bytes()
	n := r.uvarint()
	if r.err != nil {
		return symtab.None
	}
	if n > maxWireList {
		r.fail("parameter count %d exceeds limit", n)
		return symtab.None
	}
	s := algebra.Symbol{Bar: flags&1 != 0}
	if n == 0 {
		if id, ok := r.tab.LookupName(name); ok {
			if s.Bar {
				id = id.Complement()
			}
			return id
		}
		r.fail("symbol %s is not in the plan", algebra.Symbol{Name: string(name), Bar: s.Bar})
		return symtab.None
	}
	s.Name = string(name)
	s.Params = make([]algebra.Term, 0, min(int(n), 64))
	for i := 0; i < int(n); i++ {
		tf := r.byte()
		if r.err == nil && tf > 1 {
			r.fail("invalid term flags %d", tf)
		}
		s.Params = append(s.Params, algebra.Term{Value: r.string(), IsVar: tf&1 != 0})
		if r.err != nil {
			return symtab.None
		}
	}
	id, ok := r.tab.Lookup(s)
	if got := r.tab.Sym(id); !ok || got.Name != s.Name || got.Bar != s.Bar || !slices.Equal(got.Params, s.Params) {
		r.fail("symbol %s is not in the plan", s)
		return symtab.None
	}
	return id
}

func (r *wireReader) syms() []symtab.ID {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxWireList {
		r.fail("symbol count %d exceeds limit", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]symtab.ID, 0, min(int(n), 64))
	for i := 0; i < int(n); i++ {
		out = append(out, r.sym())
		if r.err != nil {
			return nil
		}
	}
	return out
}
