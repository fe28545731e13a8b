// Package httpapi exposes the store over the SPARQL 1.1 Protocol: a
// query endpoint (SELECT/ASK/CONSTRUCT) returning the SPARQL 1.1 Query
// Results JSON Format, and an update endpoint. This is the service
// surface an RDF store deployment offers; Oracle exposes the same
// functionality through SEM_MATCH and its SPARQL gateway.
package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// jsonTerm is one RDF term in the SPARQL 1.1 JSON results format.
type jsonTerm struct {
	Type     string `json:"type"` // "uri", "literal", "bnode"
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

type jsonResults struct {
	Head    jsonHead      `json:"head"`
	Results *jsonBindings `json:"results,omitempty"`
	Boolean *bool         `json:"boolean,omitempty"`
}

type jsonHead struct {
	Vars []string `json:"vars,omitempty"`
}

type jsonBindings struct {
	Bindings []map[string]jsonTerm `json:"bindings"`
}

// resultsFlushBytes is how much encoded output WriteResultsJSON holds
// before handing it to the writer.
const resultsFlushBytes = 32 << 10

// resultsBufs recycles WriteResultsJSON's output buffers. A buffer that
// grew past twice the flush size (one huge row) is dropped, not kept.
var resultsBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, resultsFlushBytes+4<<10)
	return &b
}}

// bindingKey is one distinct variable name of a result: its encoded
// `"name":` prefix and the columns carrying it, in column order.
type bindingKey struct {
	label []byte
	cols  []int
}

// term returns the cell a binding object shows under this key: the
// last bound one among its columns, as a map filled column by column
// would hold.
func (k *bindingKey) term(row []rdf.Term) rdf.Term {
	for i := len(k.cols) - 1; i >= 0; i-- {
		if c := k.cols[i]; c < len(row) && !row[c].IsZero() {
			return row[c]
		}
	}
	return rdf.Term{}
}

// bindingKeys returns the keys of every binding object of a result in
// the order encoding/json writes a map's keys: sorted by name.
func bindingKeys(vars []string) []bindingKey {
	byName := make(map[string][]int, len(vars))
	names := make([]string, 0, len(vars))
	for i, v := range vars {
		if _, ok := byName[v]; !ok {
			names = append(names, v)
		}
		byName[v] = append(byName[v], i)
	}
	sort.Strings(names)
	keys := make([]bindingKey, len(names))
	for i, v := range names {
		keys[i] = bindingKey{label: append(appendJSONString(nil, v), ':'), cols: byName[v]}
	}
	return keys
}

// WriteResultsJSON encodes SELECT results in the SPARQL 1.1 Query
// Results JSON Format. The bytes are exactly those encoding/json writes
// for jsonResults — sorted binding keys, unbound cells absent,
// HTML-escaped strings, a trailing newline — which json_ref_test.go
// checks against that encoder; it appends into a pooled buffer and
// writes it out about every resultsFlushBytes.
func WriteResultsJSON(w io.Writer, res *sparql.Results) error {
	keys := bindingKeys(res.Vars)
	bp := resultsBufs.Get().(*[]byte)
	b := append((*bp)[:0], `{"head":{`...)
	if len(res.Vars) > 0 {
		b = append(b, `"vars":[`...)
		for i, v := range res.Vars {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, `},"results":{"bindings":[`...)
	var err error
	for r, row := range res.Rows {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		sep := false
		for i := range keys {
			t := keys[i].term(row)
			if t.IsZero() {
				continue
			}
			if sep {
				b = append(b, ',')
			}
			sep = true
			b = append(b, keys[i].label...)
			b = appendTermJSON(b, t)
		}
		b = append(b, '}')
		if len(b) >= resultsFlushBytes {
			if _, err = w.Write(b); err != nil {
				break
			}
			b = b[:0]
		}
	}
	if err == nil {
		b = append(b, "]}}\n"...)
		_, err = w.Write(b)
	}
	if cap(b) <= 2*resultsFlushBytes {
		*bp = b
		resultsBufs.Put(bp)
	}
	return err
}

// appendTermJSON appends one RDF term as a SPARQL JSON results object,
// fields in jsonTerm's order: a literal carries xml:lang when it has a
// language tag, else datatype when it has one.
func appendTermJSON(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.KindIRI:
		b = append(b, `{"type":"uri","value":`...)
		b = appendJSONString(b, t.Value)
	case rdf.KindBlank:
		b = append(b, `{"type":"bnode","value":`...)
		b = appendJSONString(b, t.Value)
	default:
		b = append(b, `{"type":"literal","value":`...)
		b = appendJSONString(b, t.Value)
		if t.Lang != "" {
			b = append(b, `,"xml:lang":`...)
			b = appendJSONString(b, t.Lang)
		} else if t.Datatype != "" {
			b = append(b, `,"datatype":`...)
			b = appendJSONString(b, t.Datatype)
		}
	}
	return append(b, '}')
}

// jsonSafe marks the ASCII bytes encoding/json copies unescaped into a
// string when it escapes HTML: everything from space up except ", \,
// <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on: \b \f \n \r \t and \" \\ as short
// escapes, other control bytes and < > & as \u00xx, invalid UTF-8 as
// \ufffd, and U+2028 / U+2029 escaped. A string needing none of these
// is copied in one append.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// WriteBooleanJSON encodes an ASK result.
func WriteBooleanJSON(w io.Writer, v bool) error {
	_, err := io.WriteString(w, `{"head":{},"boolean":`+strconv.FormatBool(v)+"}\n")
	return err
}

// ParseResultsJSON decodes the JSON results format back into Results
// (used by the round-trip tests and by clients).
func ParseResultsJSON(r io.Reader) (*sparql.Results, bool, error) {
	var in jsonResults
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, false, err
	}
	if in.Boolean != nil {
		return nil, *in.Boolean, nil
	}
	res := &sparql.Results{Vars: in.Head.Vars}
	if in.Results == nil {
		return res, false, nil
	}
	for _, b := range in.Results.Bindings {
		row := make([]rdf.Term, len(res.Vars))
		for i, v := range res.Vars {
			jt, ok := b[v]
			if !ok {
				continue
			}
			switch jt.Type {
			case "uri":
				row[i] = rdf.NewIRI(jt.Value)
			case "bnode":
				row[i] = rdf.NewBlank(jt.Value)
			default:
				switch {
				case jt.Lang != "":
					row[i] = rdf.NewLangLiteral(jt.Value, jt.Lang)
				case jt.Datatype != "":
					row[i] = rdf.NewTypedLiteral(jt.Value, jt.Datatype)
				default:
					row[i] = rdf.NewLiteral(jt.Value)
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, false, nil
}

// jsonError is the error body every non-2xx response carries:
// {"error": "...", "kind": "..."}. Kind is a stable machine-readable
// slug ("timeout", "budget-exceeded", "overloaded", "too-large",
// "read-only", ...); error is the human-readable message.
type jsonError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// writeJSONError writes a structured error response.
func writeJSONError(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(jsonError{Error: msg, Kind: kind}) //nolint:errcheck
}
