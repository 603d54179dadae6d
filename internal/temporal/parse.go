package temporal

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/algebra"
)

// ParseFormula reads a guard in the canonical text syntax produced by
// Formula.Key:
//
//	formula := product { '+' product }
//	product := literal { '|' literal }
//	literal := '[]' sym | '!' sym | '<>' '(' sym { '.' sym } ')'
//	         | 'T' | '0'
//
// where sym is the algebra's symbol syntax (~name, name[?x,c]).  The
// result is normalized by the simplifier, so Key∘ParseFormula is the
// identity on canonical forms.
func ParseFormula(src string) (Formula, error) {
	p := &fparser{src: src}
	p.skipSpace()
	f, err := p.formula()
	if err != nil {
		return Formula{}, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return Formula{}, fmt.Errorf("temporal: trailing input at offset %d: %q", p.pos, p.src[p.pos:])
	}
	return f, nil
}

type fparser struct {
	src string
	pos int
}

func (p *fparser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *fparser) eat(tok string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *fparser) formula() (Formula, error) {
	first, err := p.product()
	if err != nil {
		return Formula{}, err
	}
	parts := []Formula{first}
	for p.eat("+") {
		next, err := p.product()
		if err != nil {
			return Formula{}, err
		}
		parts = append(parts, next)
	}
	return Or(parts...), nil
}

func (p *fparser) product() (Formula, error) {
	first, err := p.literal()
	if err != nil {
		return Formula{}, err
	}
	parts := []Formula{first}
	for p.eat("|") {
		next, err := p.literal()
		if err != nil {
			return Formula{}, err
		}
		parts = append(parts, next)
	}
	return And(parts...), nil
}

func (p *fparser) literal() (Formula, error) {
	p.skipSpace()
	switch {
	case p.eat("[]"):
		s, err := p.symbol()
		if err != nil {
			return Formula{}, err
		}
		return Lit(Occurred(s)), nil
	case p.eat("!"):
		s, err := p.symbol()
		if err != nil {
			return Formula{}, err
		}
		return Lit(NotYet(s)), nil
	case p.eat("<>"):
		if !p.eat("(") {
			return Formula{}, fmt.Errorf("temporal: expected '(' after <> at offset %d", p.pos)
		}
		var syms []algebra.Symbol
		for {
			s, err := p.symbol()
			if err != nil {
				return Formula{}, err
			}
			syms = append(syms, s)
			if p.eat(".") {
				continue
			}
			break
		}
		if !p.eat(")") {
			return Formula{}, fmt.Errorf("temporal: expected ')' at offset %d", p.pos)
		}
		return Lit(Eventually(syms...)), nil
	case p.eat("0"):
		return FalseF(), nil
	}
	// "T" must not swallow an identifier starting with T.
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == 'T' &&
		(p.pos+1 == len(p.src) || !isWordByte(p.src[p.pos+1])) {
		p.pos++
		return TrueF(), nil
	}
	return Formula{}, fmt.Errorf("temporal: expected a literal at offset %d: %q", p.pos, rest(p.src, p.pos))
}

// symbol scans a symbol token (~name[params]) and parses it with the
// algebra's symbol parser.
func (p *fparser) symbol() (algebra.Symbol, error) {
	p.skipSpace()
	start := p.pos
	if p.pos < len(p.src) && p.src[p.pos] == '~' {
		p.pos++
	}
	for p.pos < len(p.src) && isWordByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos < len(p.src) && p.src[p.pos] == '[' {
		depth := 0
		for p.pos < len(p.src) {
			switch p.src[p.pos] {
			case '[':
				depth++
			case ']':
				depth--
			}
			p.pos++
			if depth == 0 {
				break
			}
		}
	}
	if p.pos == start {
		return algebra.Symbol{}, fmt.Errorf("temporal: expected a symbol at offset %d: %q", start, rest(p.src, start))
	}
	return algebra.ParseSymbol(p.src[start:p.pos])
}

func isWordByte(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

func rest(s string, pos int) string {
	if pos >= len(s) {
		return "<end>"
	}
	if pos+12 < len(s) {
		return s[pos : pos+12]
	}
	return s[pos:]
}
