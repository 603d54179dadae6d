package actor

import (
	"encoding/binary"
	"fmt"
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
// Symbols travel by name; ids are plan-scoped and never cross the
// wire.  DecodePayloadOn is the edge where names turn back into ids:
// it resolves the symbol of every attempt, announcement and decision
// against the receiving plan's table once per payload, and a name the
// plan does not hold is a decode error, never a wrong id.  Against a
// table, a parameterless symbol is the table's own Symbol, so decoding
// it allocates nothing.

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

// AppendPayload appends the encoded payload to dst and returns the
// extended slice.  It errors on payload types outside the actor
// protocol.
func AppendPayload(dst []byte, payload any) ([]byte, error) {
	dst = append(dst, WireVersion)
	switch m := payload.(type) {
	case AttemptMsg:
		dst = append(dst, kindAttempt)
		dst = appendSym(dst, m.Sym)
		dst = appendBool(dst, m.Forced)
		dst = appendString(dst, string(m.ReplyTo))
	case AnnounceMsg:
		dst = append(dst, kindAnnounce)
		dst = appendSym(dst, m.Sym)
		dst = binary.AppendVarint(dst, m.At)
	case InquireMsg:
		dst = append(dst, kindInquire)
		dst = appendSym(dst, m.Target)
		dst = appendSym(dst, m.Requester)
		dst = appendString(dst, string(m.ReplyTo))
		dst = binary.AppendVarint(dst, int64(m.Round))
		dst = appendSyms(dst, m.Hyp)
	case InquireReplyMsg:
		dst = append(dst, kindInquireReply)
		dst = appendSym(dst, m.Target)
		dst = appendSym(dst, m.Requester)
		dst = binary.AppendVarint(dst, int64(m.Round))
		dst = appendBool(dst, m.Occurred)
		dst = binary.AppendVarint(dst, m.At)
		dst = appendBool(dst, m.Impossible)
		dst = appendBool(dst, m.Held)
		dst = appendBool(dst, m.Promised)
		dst = appendSyms(dst, m.Conds)
		dst = appendBool(dst, m.AfterReq)
	case NudgeMsg:
		dst = append(dst, kindNudge)
		dst = appendSym(dst, m.Sym)
	case ReleaseMsg:
		dst = append(dst, kindRelease)
		dst = appendSym(dst, m.Target)
		dst = appendSym(dst, m.Requester)
		dst = binary.AppendVarint(dst, int64(m.Round))
		dst = appendBool(dst, m.Promise)
		dst = appendBool(dst, m.Fired)
	case DecisionMsg:
		dst = append(dst, kindDecision)
		dst = appendSym(dst, m.Sym)
		dst = appendBool(dst, m.Accepted)
		dst = binary.AppendVarint(dst, m.At)
		dst = binary.AppendVarint(dst, int64(m.AttemptedAt))
		dst = binary.AppendVarint(dst, int64(m.DecidedAt))
		dst = appendString(dst, m.Reason)
	case Instanced:
		if _, nested := m.Msg.(Instanced); nested {
			return nil, fmt.Errorf("actor: instanced envelopes do not nest")
		}
		dst = append(dst, kindInstanced)
		dst = binary.AppendUvarint(dst, uint64(m.Inst))
		return AppendPayload(dst, m.Msg)
	default:
		return nil, fmt.Errorf("actor: cannot encode payload %T", payload)
	}
	return dst, nil
}

// DecodePayloadOn parses one encoded payload and sets the symbol id of
// an attempt, announcement or decision from the plan's table; a nil
// table leaves ids unset.
func DecodePayloadOn(tab *symtab.Table, data []byte) (any, error) {
	r := &wireReader{buf: data, tab: tab}
	version := r.byte()
	if r.err == nil && version != WireVersion {
		return nil, fmt.Errorf("actor: wire version %d, want %d", version, WireVersion)
	}
	kind := r.byte()
	var out any
	switch kind {
	case kindAttempt:
		sym, id := r.symID()
		m := AttemptMsg{Sym: sym, Forced: r.bool(), ReplyTo: simnet.SiteID(r.string())}
		m.ID = r.id(sym, id)
		out = m
	case kindAnnounce:
		sym, id := r.symID()
		m := AnnounceMsg{Sym: sym, At: r.varint()}
		m.ID = r.id(sym, id)
		out = m
	case kindInquire:
		out = InquireMsg{Target: r.sym(), Requester: r.sym(),
			ReplyTo: simnet.SiteID(r.string()), Round: int(r.varint()), Hyp: r.syms()}
	case kindInquireReply:
		out = InquireReplyMsg{Target: r.sym(), Requester: r.sym(), Round: int(r.varint()),
			Occurred: r.bool(), At: r.varint(), Impossible: r.bool(), Held: r.bool(),
			Promised: r.bool(), Conds: r.syms(), AfterReq: r.bool()}
	case kindNudge:
		out = NudgeMsg{Sym: r.sym()}
	case kindRelease:
		out = ReleaseMsg{Target: r.sym(), Requester: r.sym(), Round: int(r.varint()),
			Promise: r.bool(), Fired: r.bool()}
	case kindDecision:
		sym, id := r.symID()
		m := DecisionMsg{Sym: sym, Accepted: r.bool(), At: r.varint(),
			AttemptedAt: simnet.Time(r.varint()), DecidedAt: simnet.Time(r.varint()),
			Reason: r.string()}
		m.ID = r.id(sym, id)
		out = m
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

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendSym(dst []byte, s algebra.Symbol) []byte {
	var flags byte
	if s.Bar {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = appendString(dst, s.Name)
	dst = binary.AppendUvarint(dst, uint64(len(s.Params)))
	for _, t := range s.Params {
		var tf byte
		if t.IsVar {
			tf |= 1
		}
		dst = append(dst, tf)
		dst = appendString(dst, t.Value)
	}
	return dst
}

func appendSyms(dst []byte, syms []algebra.Symbol) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(syms)))
	for _, s := range syms {
		dst = appendSym(dst, s)
	}
	return dst
}

// wireReader is a bounds-checked cursor with sticky errors: after the
// first failure every read returns a zero value, so message parsers
// can read field sequences without per-field error plumbing.
type wireReader struct {
	buf []byte
	pos int
	err error
	tab *symtab.Table // resolves ids; nil leaves them unset
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

// sym reads a symbol (see symID).
func (r *wireReader) sym() algebra.Symbol {
	s, _ := r.symID()
	return s
}

// symID reads a symbol.  Against a table, a parameterless symbol the
// plan holds comes back as the table's own Symbol, with its id, and
// costs no allocation; any other symbol is built from the wire, with
// id None.
func (r *wireReader) symID() (algebra.Symbol, symtab.ID) {
	flags := r.byte()
	if r.err == nil && flags > 1 {
		r.fail("invalid symbol flags %d", flags)
	}
	name := r.bytes()
	n := r.uvarint()
	if r.err != nil {
		return algebra.Symbol{}, symtab.None
	}
	if n == 0 && r.tab != nil {
		if id, ok := r.tab.LookupName(name); ok {
			if flags&1 != 0 {
				id = id.Complement()
			}
			return r.tab.Sym(id), id
		}
	}
	if n > maxWireList {
		r.fail("parameter count %d exceeds limit", n)
		return algebra.Symbol{}, symtab.None
	}
	s := algebra.Symbol{Name: string(name), Bar: flags&1 != 0}
	if n > 0 {
		s.Params = make([]algebra.Term, 0, min(int(n), 64))
		for i := 0; i < int(n); i++ {
			tf := r.byte()
			if r.err == nil && tf > 1 {
				r.fail("invalid term flags %d", tf)
			}
			s.Params = append(s.Params, algebra.Term{Value: r.string(), IsVar: tf&1 != 0})
			if r.err != nil {
				return algebra.Symbol{}, symtab.None
			}
		}
	}
	return s, symtab.None
}

// id resolves a decoded symbol against the reader's table, unless
// symID already did.
func (r *wireReader) id(s algebra.Symbol, id symtab.ID) symtab.ID {
	if r.err != nil || r.tab == nil {
		return symtab.None
	}
	if id != symtab.None {
		return id
	}
	id, ok := r.tab.Lookup(s)
	if !ok {
		r.fail("symbol %s is not in the plan", s)
	}
	return id
}

func (r *wireReader) syms() []algebra.Symbol {
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
	out := make([]algebra.Symbol, 0, min(int(n), 64))
	for i := 0; i < int(n); i++ {
		out = append(out, r.sym())
		if r.err != nil {
			return nil
		}
	}
	return out
}
