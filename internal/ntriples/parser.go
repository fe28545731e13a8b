// Package ntriples implements streaming parsers and serializers for the
// W3C N-Triples and N-Quads line-based RDF interchange formats. These are
// the bulk-load formats the store accepts (§3.1 of the paper: "fast bulk
// load of RDF data supplied in N-Quads format").
package ntriples

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/rdf"
)

// SyntaxError describes a parse failure with line/column position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("ntriples: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Reader is a streaming N-Quads parser. N-Triples documents parse as
// N-Quads whose quads are all in the default graph.
//
// Lines are streamed through a bufio.Reader rather than a Scanner:
// one multi-megabyte literal is a legal (and, via store snapshots, an
// actually-occurring) single line, and a Scanner would fail it with
// bufio.ErrTooLong at its buffer cap instead of parsing it.
type Reader struct {
	br   *bufio.Reader
	line int
}

// NewReader returns a parser reading from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64*1024)}
}

// Read returns the next quad, or io.EOF at end of input. Blank lines and
// comment lines (starting with '#') are skipped.
func (r *Reader) Read() (rdf.Quad, error) {
	for {
		raw, rerr := r.br.ReadString('\n')
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return rdf.Quad{}, rerr
		}
		atEOF := errors.Is(rerr, io.EOF)
		if raw == "" && atEOF {
			return rdf.Quad{}, io.EOF
		}
		r.line++
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			if atEOF {
				return rdf.Quad{}, io.EOF
			}
			continue
		}
		return parseLine(line, r.line)
	}
}

// ReadAll consumes the remaining input and returns all quads.
func (r *Reader) ReadAll() ([]rdf.Quad, error) {
	var quads []rdf.Quad
	for {
		q, err := r.Read()
		if errors.Is(err, io.EOF) {
			return quads, nil
		}
		if err != nil {
			return quads, err
		}
		quads = append(quads, q)
	}
}

// ParseQuad parses one statement held in a string. It accepts exactly
// the inputs on which ReadAll returns one quad and no error — blank and
// comment lines around the statement are allowed — without allocating
// a Reader and its buffer.
func ParseQuad(s string) (rdf.Quad, error) {
	var q rdf.Quad
	found := false
	for n := 1; s != ""; n++ {
		raw, rest, _ := strings.Cut(s, "\n")
		s = rest
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '#' {
			continue
		}
		if found {
			return rdf.Quad{}, &SyntaxError{Line: n, Col: 1, Msg: "more than one statement"}
		}
		var err error
		if q, err = parseLine(line, n); err != nil {
			return rdf.Quad{}, err
		}
		found = true
	}
	if !found {
		return q, &SyntaxError{Line: 1, Col: 1, Msg: "no statement"}
	}
	return q, nil
}

type lineParser struct {
	s    string
	pos  int
	line int
}

// parseLine parses the statement on a trimmed, non-comment line n.
func parseLine(line string, n int) (rdf.Quad, error) {
	p := &lineParser{s: line, line: n}
	var q rdf.Quad
	var err error
	// N-Triples documents are UTF-8; raw invalid bytes must not leak
	// into terms, where they would not survive a write/read round trip.
	if !utf8.ValidString(line) {
		return q, p.errf("line is not valid UTF-8")
	}
	if q.S, err = p.term(); err != nil {
		return q, err
	}
	if q.P, err = p.term(); err != nil {
		return q, err
	}
	if q.O, err = p.term(); err != nil {
		return q, err
	}
	p.skipWS()
	if p.peek() != '.' {
		if q.G, err = p.term(); err != nil {
			return q, err
		}
		p.skipWS()
	}
	if p.peek() != '.' {
		return q, p.errf("expected '.' terminator")
	}
	p.pos++
	p.skipWS()
	if p.pos != len(p.s) {
		return q, p.errf("trailing content after '.'")
	}
	if err := q.Validate(); err != nil {
		return q, p.errf("%v", err)
	}
	return q, nil
}

func (p *lineParser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.line, Col: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser) peek() byte {
	if p.pos >= len(p.s) {
		return 0
	}
	return p.s[p.pos]
}

func (p *lineParser) skipWS() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *lineParser) term() (rdf.Term, error) {
	p.skipWS()
	switch p.peek() {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	case 0:
		return rdf.Term{}, p.errf("unexpected end of line, expected a term")
	default:
		return rdf.Term{}, p.errf("unexpected character %q, expected a term", p.s[p.pos])
	}
}

func (p *lineParser) iri() (rdf.Term, error) {
	p.pos++ // '<'
	start := p.pos
	for p.pos < len(p.s) && p.s[p.pos] != '>' {
		p.pos++
	}
	if p.pos >= len(p.s) {
		return rdf.Term{}, p.errf("unterminated IRI")
	}
	raw := p.s[start:p.pos]
	p.pos++ // '>'
	iri, err := unescapeUCHAR(raw)
	if err != nil {
		return rdf.Term{}, p.errf("bad IRI escape: %v", err)
	}
	if iri == "" {
		return rdf.Term{}, p.errf("empty IRI")
	}
	if strings.ContainsAny(iri, " \t\"{}|^`") {
		return rdf.Term{}, p.errf("IRI %q contains a forbidden character", iri)
	}
	return rdf.NewIRI(iri), nil
}

func (p *lineParser) blank() (rdf.Term, error) {
	if p.pos+1 >= len(p.s) || p.s[p.pos+1] != ':' {
		return rdf.Term{}, p.errf("expected '_:' blank node prefix")
	}
	p.pos += 2
	start := p.pos
	for p.pos < len(p.s) && !isWS(p.s[p.pos]) && p.s[p.pos] != '.' {
		p.pos++
	}
	if p.pos == start {
		return rdf.Term{}, p.errf("empty blank node label")
	}
	return rdf.NewBlank(p.s[start:p.pos]), nil
}

func (p *lineParser) literal() (rdf.Term, error) {
	p.pos++ // opening quote
	var lex string
	if i := strings.IndexAny(p.s[p.pos:], "\"\\"); i >= 0 && p.s[p.pos+i] == '"' {
		// No escape: the lexical form is a substring of the line.
		lex = p.s[p.pos : p.pos+i]
		p.pos += i + 1
	} else {
		var err error
		if lex, err = p.escapedLexical(); err != nil {
			return rdf.Term{}, err
		}
	}
	// Optional language tag or datatype.
	switch p.peek() {
	case '@':
		p.pos++
		start := p.pos
		for p.pos < len(p.s) && (isAlnum(p.s[p.pos]) || p.s[p.pos] == '-') {
			p.pos++
		}
		if p.pos == start {
			return rdf.Term{}, p.errf("empty language tag")
		}
		return rdf.NewLangLiteral(lex, p.s[start:p.pos]), nil
	case '^':
		if p.pos+1 >= len(p.s) || p.s[p.pos+1] != '^' {
			return rdf.Term{}, p.errf("expected '^^' before datatype")
		}
		p.pos += 2
		dt, err := p.iri()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lex, dt.Value), nil
	default:
		return rdf.NewLiteral(lex), nil
	}
}

// escapedLexical reads a literal's lexical form up to and past its
// closing quote, resolving escapes.
func (p *lineParser) escapedLexical() (string, error) {
	var b strings.Builder
	for {
		if p.pos >= len(p.s) {
			return "", p.errf("unterminated literal")
		}
		c := p.s[p.pos]
		if c == '"' {
			p.pos++
			return b.String(), nil
		}
		if c == '\\' {
			if p.pos+1 >= len(p.s) {
				return "", p.errf("dangling escape at end of line")
			}
			p.pos++
			switch e := p.s[p.pos]; e {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case '"':
				b.WriteByte('"')
			case '\'':
				b.WriteByte('\'')
			case '\\':
				b.WriteByte('\\')
			case 'u', 'U':
				n := 4
				if e == 'U' {
					n = 8
				}
				if p.pos+n >= len(p.s) {
					return "", p.errf("truncated \\%c escape", e)
				}
				r, err := hexRune(p.s[p.pos+1 : p.pos+1+n])
				if err != nil {
					return "", p.errf("bad \\%c escape: %v", e, err)
				}
				b.WriteRune(r)
				p.pos += n
			default:
				return "", p.errf("unknown escape \\%c", e)
			}
			p.pos++
			continue
		}
		b.WriteByte(c)
		p.pos++
	}
}

func isWS(c byte) bool { return c == ' ' || c == '\t' }

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func hexRune(s string) (rune, error) {
	var v rune
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d rune
		switch {
		case c >= '0' && c <= '9':
			d = rune(c - '0')
		case c >= 'a' && c <= 'f':
			d = rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return 0, fmt.Errorf("non-hex digit %q", c)
		}
		v = v<<4 | d
	}
	if !utf8.ValidRune(v) {
		return 0, fmt.Errorf("invalid code point U+%X", v)
	}
	return v, nil
}

func unescapeUCHAR(s string) (string, error) {
	if !strings.Contains(s, "\\") {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			i++
			continue
		}
		if i+1 >= len(s) {
			return "", fmt.Errorf("dangling backslash")
		}
		n := 0
		switch s[i+1] {
		case 'u':
			n = 4
		case 'U':
			n = 8
		default:
			return "", fmt.Errorf("unknown escape \\%c in IRI", s[i+1])
		}
		if i+2+n > len(s) {
			return "", fmt.Errorf("truncated \\%c escape", s[i+1])
		}
		r, err := hexRune(s[i+2 : i+2+n])
		if err != nil {
			return "", err
		}
		b.WriteRune(r)
		i += 2 + n
	}
	return b.String(), nil
}
