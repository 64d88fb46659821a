package logic

import (
	"fmt"
	"strconv"
	"strings"
)

// The reader accepts a pragmatic Prolog subset sufficient for ILP programs:
//
//	fact(a, b).
//	rule(X, Y) :- edge(X, Z), \+ blocked(Z), Z >= 3, path(Z, Y).
//	modeb(2, bond(+mol, -atomid, #bondtype)).
//	% line comment
//
// Supported: atoms (plain or quoted), variables (including anonymous _),
// integer and float constants (with leading minus), compounds, conjunction,
// negation-as-failure \+, infix comparisons = \= < =< > >= is, and prefix
// mode markers + - # (parsed as unary compounds for the mode package).

type tokenKind uint8

const (
	tkEOF tokenKind = iota
	tkAtom
	tkVar
	tkInt
	tkFloat
	tkPunct
)

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
}

type lexer struct {
	src string
	pos int
}

func isLower(c byte) bool { return c >= 'a' && c <= 'z' }
func isUpper(c byte) bool { return c >= 'A' && c <= 'Z' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdent(c byte) bool { return c == '_' || isLower(c) || isUpper(c) || isDigit(c) }

func (lx *lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.pos++
		case c == '%':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			return
		}
	}
}

func (lx *lexer) next() (token, error) {
	lx.skipSpace()
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return token{kind: tkEOF, pos: start}, nil
	}
	c := lx.src[lx.pos]
	switch {
	case isLower(c):
		for lx.pos < len(lx.src) && isIdent(lx.src[lx.pos]) {
			lx.pos++
		}
		return token{kind: tkAtom, text: lx.src[start:lx.pos], pos: start}, nil
	case isUpper(c) || c == '_':
		for lx.pos < len(lx.src) && isIdent(lx.src[lx.pos]) {
			lx.pos++
		}
		return token{kind: tkVar, text: lx.src[start:lx.pos], pos: start}, nil
	case isDigit(c):
		return lx.lexNumber(start)
	case c == '\'':
		lx.pos++
		var b strings.Builder
		for lx.pos < len(lx.src) {
			c := lx.src[lx.pos]
			if c == '\\' && lx.pos+1 < len(lx.src) {
				b.WriteByte(lx.src[lx.pos+1])
				lx.pos += 2
				continue
			}
			if c == '\'' {
				lx.pos++
				return token{kind: tkAtom, text: b.String(), pos: start}, nil
			}
			b.WriteByte(c)
			lx.pos++
		}
		return token{}, fmt.Errorf("logic: unterminated quoted atom at %d", start)
	}
	// Multi-char punctuation first.
	rest := lx.src[lx.pos:]
	for _, op := range []string{":-", "\\+", "\\=", "=<", ">="} {
		if strings.HasPrefix(rest, op) {
			lx.pos += len(op)
			return token{kind: tkPunct, text: op, pos: start}, nil
		}
	}
	switch c {
	case '(', ')', ',', '.', '=', '<', '>', '+', '-', '#', '*', '/':
		lx.pos++
		return token{kind: tkPunct, text: string(c), pos: start}, nil
	}
	return token{}, fmt.Errorf("logic: unexpected character %q at %d", c, start)
}

func (lx *lexer) lexNumber(start int) (token, error) {
	digitsFrom := lx.pos
	for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
		lx.pos++
	}
	isFloat := false
	if lx.pos+1 < len(lx.src) && lx.src[lx.pos] == '.' && isDigit(lx.src[lx.pos+1]) {
		isFloat = true
		lx.pos++
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.pos++
		}
	}
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
		save := lx.pos
		lx.pos++
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
			lx.pos++
		}
		if lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			isFloat = true
			for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
				lx.pos++
			}
		} else {
			lx.pos = save
		}
	}
	text := lx.src[digitsFrom:lx.pos]
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, fmt.Errorf("logic: bad number %q at %d: %v", text, start, err)
	}
	kind := tkInt
	if isFloat {
		kind = tkFloat
	}
	return token{kind: kind, text: text, num: v, pos: start}, nil
}

type parser struct {
	lx   lexer
	tok  token
	vars map[string]int // variable name → index, scoped per clause
	next int            // next free variable index in current clause
}

func newParser(src string) (*parser, error) {
	p := &parser{lx: lexer{src: src}}
	return p, p.advance()
}

func (p *parser) advance() error {
	tok, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *parser) expectPunct(text string) error {
	if p.tok.kind != tkPunct || p.tok.text != text {
		return fmt.Errorf("logic: expected %q at %d, got %q", text, p.tok.pos, p.tok.text)
	}
	return p.advance()
}

func (p *parser) resetClauseScope() {
	p.vars = make(map[string]int)
	p.next = 0
}

func (p *parser) varIndex(name string) int {
	if name == "_" {
		i := p.next
		p.next++
		return i
	}
	if i, ok := p.vars[name]; ok {
		return i
	}
	i := p.next
	p.vars[name] = i
	p.next++
	return i
}

// parseTerm parses a term with infix arithmetic (+ - at the loosest level,
// * / binding tighter); comparisons are handled only at body-literal level.
func (p *parser) parseTerm() (Term, error) {
	return p.parseAddSub()
}

func (p *parser) parseAddSub() (Term, error) {
	left, err := p.parseMulDiv()
	if err != nil {
		return Term{}, err
	}
	for p.tok.kind == tkPunct && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		right, err := p.parseMulDiv()
		if err != nil {
			return Term{}, err
		}
		left = Comp(op, left, right)
	}
	return left, nil
}

func (p *parser) parseMulDiv() (Term, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return Term{}, err
	}
	for p.tok.kind == tkPunct && (p.tok.text == "*" || p.tok.text == "/") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		right, err := p.parsePrimary()
		if err != nil {
			return Term{}, err
		}
		left = Comp(op, left, right)
	}
	return left, nil
}

// parsePrimary parses a term without infix operators.
func (p *parser) parsePrimary() (Term, error) {
	switch p.tok.kind {
	case tkVar:
		i := p.varIndex(p.tok.text)
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return V(i), nil
	case tkInt:
		v := p.tok.num
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return IntTerm(int64(v)), nil
	case tkFloat:
		v := p.tok.num
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return FloatTerm(v), nil
	case tkAtom:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		if p.tok.kind == tkPunct && p.tok.text == "(" {
			if err := p.advance(); err != nil {
				return Term{}, err
			}
			var args []Term
			for {
				a, err := p.parseTerm()
				if err != nil {
					return Term{}, err
				}
				args = append(args, a)
				if p.tok.kind == tkPunct && p.tok.text == "," {
					if err := p.advance(); err != nil {
						return Term{}, err
					}
					continue
				}
				break
			}
			if err := p.expectPunct(")"); err != nil {
				return Term{}, err
			}
			return Comp(name, args...), nil
		}
		return A(name), nil
	case tkPunct:
		// Prefix: negative numbers (-3, -0.5) and mode markers +t, -t, #t.
		if p.tok.text == "+" || p.tok.text == "-" || p.tok.text == "#" {
			op := p.tok.text
			if err := p.advance(); err != nil {
				return Term{}, err
			}
			arg, err := p.parsePrimary()
			if err != nil {
				return Term{}, err
			}
			if op == "-" && arg.IsNumber() {
				arg.Num = -arg.Num
				return arg, nil
			}
			return Comp(op, arg), nil
		}
	}
	return Term{}, fmt.Errorf("logic: unexpected token %q at %d", p.tok.text, p.tok.pos)
}

var infixBodyOps = map[string]bool{
	"=": true, "\\=": true, "<": true, "=<": true, ">": true, ">=": true,
}

// parseBodyLiteral parses one body literal: optional \+, then a term with an
// optional infix comparison.
func (p *parser) parseBodyLiteral() (Literal, error) {
	neg := false
	if p.tok.kind == tkPunct && p.tok.text == "\\+" {
		neg = true
		if err := p.advance(); err != nil {
			return Literal{}, err
		}
	}
	left, err := p.parseTerm()
	if err != nil {
		return Literal{}, err
	}
	isInfix := (p.tok.kind == tkPunct && infixBodyOps[p.tok.text]) ||
		(p.tok.kind == tkAtom && p.tok.text == "is")
	if isInfix {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return Literal{}, err
		}
		right, err := p.parseTerm()
		if err != nil {
			return Literal{}, err
		}
		left = Comp(op, left, right)
	}
	if !left.IsCallable() {
		return Literal{}, fmt.Errorf("logic: body literal %s is not callable", left)
	}
	return Literal{Neg: neg, Atom: left}, nil
}

// parseClause parses one clause terminated by '.'.
func (p *parser) parseClause() (Clause, error) {
	p.resetClauseScope()
	head, err := p.parseTerm()
	if err != nil {
		return Clause{}, err
	}
	if !head.IsCallable() {
		return Clause{}, fmt.Errorf("logic: clause head %s is not callable", head)
	}
	c := Clause{Head: head}
	if p.tok.kind == tkPunct && p.tok.text == ":-" {
		if err := p.advance(); err != nil {
			return Clause{}, err
		}
		for {
			lit, err := p.parseBodyLiteral()
			if err != nil {
				return Clause{}, err
			}
			c.Body = append(c.Body, lit)
			if p.tok.kind == tkPunct && p.tok.text == "," {
				if err := p.advance(); err != nil {
					return Clause{}, err
				}
				continue
			}
			break
		}
	}
	if err := p.expectPunct("."); err != nil {
		return Clause{}, err
	}
	return c, nil
}

// ParseTerm parses a single term from s. Variables are numbered in order of
// first occurrence.
func ParseTerm(s string) (Term, error) {
	p, err := newParser(s)
	if err != nil {
		return Term{}, err
	}
	p.resetClauseScope()
	t, err := p.parseTerm()
	if err != nil {
		return Term{}, err
	}
	if p.tok.kind != tkEOF {
		return Term{}, fmt.Errorf("logic: trailing input %q at %d", p.tok.text, p.tok.pos)
	}
	return t, nil
}

// MustParseTerm is ParseTerm, panicking on error; intended for literals in
// tests and dataset definitions.
func MustParseTerm(s string) Term {
	t, err := ParseTerm(s)
	if err != nil {
		panic(err)
	}
	return t
}

// ParseClause parses a single clause (terminated by '.') from s.
func ParseClause(s string) (Clause, error) {
	p, err := newParser(s)
	if err != nil {
		return Clause{}, err
	}
	c, err := p.parseClause()
	if err != nil {
		return Clause{}, err
	}
	if p.tok.kind != tkEOF {
		return Clause{}, fmt.Errorf("logic: trailing input %q at %d", p.tok.text, p.tok.pos)
	}
	return c, nil
}

// MustParseClause is ParseClause, panicking on error.
func MustParseClause(s string) Clause {
	c, err := ParseClause(s)
	if err != nil {
		panic(err)
	}
	return c
}

// ParseProgram parses a sequence of clauses from s.
func ParseProgram(s string) ([]Clause, error) {
	p, err := newParser(s)
	if err != nil {
		return nil, err
	}
	var out []Clause
	for p.tok.kind != tkEOF {
		c, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
