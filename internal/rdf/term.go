// Package rdf implements the RDF 1.1 data model: terms (IRIs, blank nodes
// and literals), triples and quads, together with the XSD value space
// needed for SPARQL expression evaluation.
//
// The representation follows the W3C RDF 1.1 Concepts and Abstract Syntax
// recommendation. Terms are small immutable value types so they can be
// used as map keys and copied freely.
package rdf

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

// The three RDF term kinds. The zero value is KindInvalid so that a zero
// Term is recognizably "absent" (used, e.g., for the default graph).
const (
	KindInvalid TermKind = iota
	KindIRI
	KindBlank
	KindLiteral
)

func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "IRI"
	case KindBlank:
		return "BlankNode"
	case KindLiteral:
		return "Literal"
	default:
		return "Invalid"
	}
}

// Term is an RDF term: an IRI, a blank node, or a literal.
//
// For an IRI, Value holds the IRI string (without angle brackets).
// For a blank node, Value holds the label (without the "_:" prefix).
// For a literal, Value holds the lexical form, Datatype the datatype IRI
// ("" is interpreted as xsd:string per RDF 1.1), and Lang the optional
// language tag (in which case the datatype is rdf:langString).
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewLiteral returns a plain literal, which RDF 1.1 treats as xsd:string.
func NewLiteral(lex string) Term { return Term{Kind: KindLiteral, Value: lex} }

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	if datatype == XSDString {
		datatype = ""
	}
	return Term{Kind: KindLiteral, Value: lex, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged string literal.
// Language tags are canonicalized to lower case, per RDF 1.1.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: KindLiteral, Value: lex, Lang: strings.ToLower(lang)}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return Term{Kind: KindLiteral, Value: fmt.Sprintf("%d", v), Datatype: XSDInteger}
}

// NewInt returns an xsd:int literal (the paper maps PG NUMBER values with
// integral magnitude to xsd:int, e.g. "23"^^xsd:int).
func NewInt(v int32) Term {
	return Term{Kind: KindLiteral, Value: fmt.Sprintf("%d", v), Datatype: XSDInt}
}

// NewDouble returns an xsd:double literal.
func NewDouble(v float64) Term {
	return Term{Kind: KindLiteral, Value: formatFloat(v), Datatype: XSDDouble}
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(v bool) Term {
	if v {
		return Term{Kind: KindLiteral, Value: "true", Datatype: XSDBoolean}
	}
	return Term{Kind: KindLiteral, Value: "false", Datatype: XSDBoolean}
}

// IsZero reports whether t is the zero Term (no term at all).
func (t Term) IsZero() bool { return t.Kind == KindInvalid }

// IsIRI reports whether t is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsBlank reports whether t is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsLiteral reports whether t is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsResource reports whether t is an IRI or a blank node, i.e. may denote
// a graph node rather than a value.
func (t Term) IsResource() bool { return t.Kind == KindIRI || t.Kind == KindBlank }

// DatatypeIRI returns the literal's datatype IRI with RDF 1.1 defaulting
// applied: plain literals are xsd:string, language-tagged literals are
// rdf:langString. It returns "" for non-literals.
func (t Term) DatatypeIRI() string {
	if t.Kind != KindLiteral {
		return ""
	}
	if t.Lang != "" {
		return RDFLangString
	}
	if t.Datatype == "" {
		return XSDString
	}
	return t.Datatype
}

// String renders the term in N-Triples syntax. Invalid terms render as
// "<invalid>" to keep diagnostics readable.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	default:
		var buf [64]byte // most literals render without a second allocation
		return string(t.AppendTo(buf[:0]))
	}
}

// AppendTo appends the bytes of t.String() to dst, so a caller that
// only looks the rendering up in a map can reuse one buffer.
func (t Term) AppendTo(dst []byte) []byte {
	switch t.Kind {
	case KindIRI:
		return append(append(append(dst, '<'), t.Value...), '>')
	case KindBlank:
		return append(append(dst, "_:"...), t.Value...)
	case KindLiteral:
		dst = append(appendEscaped(append(dst, '"'), t.Value), '"')
		if t.Lang != "" {
			return append(append(dst, '@'), t.Lang...)
		}
		if t.Datatype != "" {
			return append(append(append(dst, "^^<"...), t.Datatype...), '>')
		}
		return dst
	default:
		return append(dst, "<invalid>"...)
	}
}

// appendEscaped appends s with N-Triples string escapes. It ranges over
// runes, so an invalid UTF-8 byte renders as U+FFFD.
func appendEscaped(dst []byte, s string) []byte {
	for _, r := range s {
		switch r {
		case '"':
			dst = append(dst, `\"`...)
		case '\\':
			dst = append(dst, `\\`...)
		case '\n':
			dst = append(dst, `\n`...)
		case '\r':
			dst = append(dst, `\r`...)
		case '\t':
			dst = append(dst, `\t`...)
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst
}

// Equal reports term equality. Two literals are equal iff their lexical
// form, datatype (after RDF 1.1 defaulting) and language tag all match.
func (t Term) Equal(u Term) bool {
	if t.Kind != u.Kind || t.Value != u.Value || t.Lang != u.Lang {
		return false
	}
	if t.Kind == KindLiteral {
		return t.DatatypeIRI() == u.DatatypeIRI()
	}
	return true
}

// Compare defines a total order over terms: first by kind (blank < IRI <
// literal, the SPARQL ORDER BY term order), then by value, datatype and
// language. It returns -1, 0 or +1.
func Compare(a, b Term) int {
	ka, kb := orderRank(a.Kind), orderRank(b.Kind)
	if ka != kb {
		return cmpInt(ka, kb)
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.DatatypeIRI(), b.DatatypeIRI()); c != 0 {
		return c
	}
	return strings.Compare(a.Lang, b.Lang)
}

func orderRank(k TermKind) int {
	switch k {
	case KindBlank:
		return 1
	case KindIRI:
		return 2
	case KindLiteral:
		return 3
	default:
		return 0
	}
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
