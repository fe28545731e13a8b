package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// refWriteResultsJSON is the encoding/json encoder WriteResultsJSON
// replaced: a map per row, reflected through json.Encoder. It is the
// reference the append-based encoder must match byte for byte.
func refWriteResultsJSON(w io.Writer, res *sparql.Results) error {
	out := jsonResults{
		Head:    jsonHead{Vars: res.Vars},
		Results: &jsonBindings{Bindings: make([]map[string]jsonTerm, 0, len(res.Rows))},
	}
	for _, row := range res.Rows {
		b := make(map[string]jsonTerm, len(row))
		for i, t := range row {
			if t.IsZero() {
				continue // unbound variables are simply absent
			}
			b[res.Vars[i]] = refTermJSON(t)
		}
		out.Results.Bindings = append(out.Results.Bindings, b)
	}
	return json.NewEncoder(w).Encode(out)
}

func refTermJSON(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.KindIRI:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.KindBlank:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		jt := jsonTerm{Type: "literal", Value: t.Value}
		if t.Lang != "" {
			jt.Lang = t.Lang
		} else if t.Datatype != "" {
			jt.Datatype = t.Datatype
		}
		return jt
	}
}

// refWriteBooleanJSON is the encoding/json reference for WriteBooleanJSON.
func refWriteBooleanJSON(w io.Writer, v bool) error {
	return json.NewEncoder(w).Encode(jsonResults{Boolean: &v})
}

// checkEncoding asserts that WriteResultsJSON writes exactly the
// reference's bytes and that they decode back to the results, strings
// made valid UTF-8 the way the encoder does.
func checkEncoding(t *testing.T, res *sparql.Results) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteResultsJSON(&got, res); err != nil {
		t.Fatal(err)
	}
	if err := refWriteResultsJSON(&want, res); err != nil {
		t.Fatal(err)
	}
	if g, w := got.Bytes(), want.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-40, 0)
		t.Fatalf("encoding differs from encoding/json at byte %d of %d/%d:\n got %q\nwant %q",
			i, len(g), len(w), g[lo:min(i+40, len(g))], w[lo:min(i+40, len(w))])
	}
	back, _, err := ParseResultsJSON(&got)
	if err != nil {
		t.Fatalf("output does not parse: %v", err)
	}
	if fmt.Sprint(back.Vars) != fmt.Sprint(validStrings(res.Vars)) || len(back.Rows) != len(res.Rows) {
		t.Fatalf("round trip: vars %q rows %d, want %q rows %d", back.Vars, len(back.Rows), res.Vars, len(res.Rows))
	}
	names := append([]string(nil), res.Vars...)
	sort.Strings(names)
	for r, row := range res.Rows {
		// The binding object keeps, per name, the last bound column; its
		// keys are written in sorted order, and when two names are one
		// key once made valid UTF-8 the decoder keeps the later.
		shown := map[string]rdf.Term{}
		for i, term := range row {
			if !term.IsZero() {
				shown[res.Vars[i]] = term
			}
		}
		decoded := map[string]rdf.Term{}
		for _, n := range names {
			if term, ok := shown[n]; ok {
				decoded[validUTF8(n)] = term
			}
		}
		for i, v := range back.Vars {
			if want := decodedTerm(decoded[v]); back.Rows[r][i] != want {
				t.Fatalf("round trip row %d col %d: got %#v, want %#v", r, i, back.Rows[r][i], want)
			}
		}
	}
}

// validUTF8 replaces each invalid byte with U+FFFD, as encoding/json does.
func validUTF8(s string) string { return string([]rune(s)) }

func validStrings(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = validUTF8(s)
	}
	return out
}

// decodedTerm is what ParseResultsJSON reads back for a term the encoder
// wrote.
func decodedTerm(t rdf.Term) rdf.Term {
	v := validUTF8(t.Value)
	switch {
	case t.IsZero():
		return rdf.Term{}
	case t.Kind == rdf.KindIRI:
		return rdf.NewIRI(v)
	case t.Kind == rdf.KindBlank:
		return rdf.NewBlank(v)
	case t.Lang != "":
		return rdf.NewLangLiteral(v, validUTF8(t.Lang))
	case t.Datatype != "":
		return rdf.NewTypedLiteral(v, validUTF8(t.Datatype))
	default:
		return rdf.NewLiteral(v)
	}
}

// jsonPieces are string fragments covering every escaping rule.
var jsonPieces = []string{
	"a", "Amy", " ", "http://pg/v1", "é", "日本", "\U0001F600",
	"<", ">", "&", `"`, `\`, "/", "\x7f",
	"\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t",
	"\u2028", "\u2029", "\u2027", "\u202a",
	"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}

func randJSONString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		sb.WriteString(jsonPieces[rng.Intn(len(jsonPieces))])
	}
	return sb.String()
}

// termOfKind builds a term of one of seven shapes: unbound, IRI, blank
// node, plain, language-tagged and typed literal, and a literal carrying
// both a language and a datatype (the language wins).
func termOfKind(kind int, value, lang, datatype string) rdf.Term {
	switch kind % 7 {
	case 1:
		return rdf.Term{Kind: rdf.KindIRI, Value: value}
	case 2:
		return rdf.Term{Kind: rdf.KindBlank, Value: value}
	case 3:
		return rdf.Term{Kind: rdf.KindLiteral, Value: value}
	case 4:
		return rdf.Term{Kind: rdf.KindLiteral, Value: value, Lang: lang}
	case 5:
		return rdf.Term{Kind: rdf.KindLiteral, Value: value, Datatype: datatype}
	case 6:
		return rdf.Term{Kind: rdf.KindLiteral, Value: value, Lang: lang, Datatype: datatype}
	}
	return rdf.Term{}
}

func TestWriteResultsJSONMatchesEncodingJSON(t *testing.T) {
	amy := rdf.NewLiteral("Amy")
	cases := map[string]*sparql.Results{
		"zero rows":          {Vars: []string{"x", "y"}},
		"zero vars":          {Rows: [][]rdf.Term{{}, {}}},
		"zero vars and rows": {},
		"empty vars slice":   {Vars: []string{}, Rows: [][]rdf.Term{}},
		"unbound cells":      {Vars: []string{"a", "b"}, Rows: [][]rdf.Term{{amy, {}}, {{}, amy}, {{}, {}}}},
		"keys sort by name":  {Vars: []string{"zeta", "Alpha", "m", "_", "a1", "a"}, Rows: [][]rdf.Term{{amy, amy, amy, amy, amy, amy}}},
		"every term kind": {Vars: []string{"k"}, Rows: [][]rdf.Term{
			{rdf.NewIRI("http://pg/v1")}, {rdf.NewBlank("b0")}, {amy},
			{rdf.NewLangLiteral("Mira", "en")}, {rdf.NewInt(23)}, {rdf.NewDouble(1.5)},
			{rdf.Term{Kind: rdf.KindLiteral, Value: "both", Lang: "de", Datatype: rdf.XSDString}},
			{rdf.NewTypedLiteral("", "")}, {rdf.NewLiteral("")},
		}},
		"escapes": {Vars: []string{`<v&"\>`, "\u2028"}, Rows: [][]rdf.Term{{
			rdf.NewLiteral("<script>&amp;\"\\/\x00\x1f\b\f\n\r\t\x7f\u2028\u2029"),
			rdf.NewLangLiteral("\xff\xfe bad \xc3( \xed\xa0\x80 日本 \U0001F600", "x-<&>"),
		}}},
		"repeated var, last bound column shows": {Vars: []string{"s", "o", "s"},
			Rows: [][]rdf.Term{{amy, amy, rdf.NewIRI("http://last")}, {amy, {}, {}}, {{}, {}, {}}}},
	}
	// Multi-buffer replies: well over resultsFlushBytes, with escapes
	// straddling the flush boundaries.
	big := &sparql.Results{Vars: []string{"s", "n"}}
	for i := 0; i < 3000; i++ {
		big.Rows = append(big.Rows, []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)),
			rdf.NewLangLiteral(fmt.Sprintf("name <%d> & \u2028 \xff", i), "en"),
		})
	}
	cases["multi-buffer"] = big
	for name, res := range cases {
		t.Run(name, func(t *testing.T) { checkEncoding(t, res) })
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		res := &sparql.Results{}
		for n := rng.Intn(5); n > 0; n-- {
			res.Vars = append(res.Vars, randJSONString(rng))
		}
		for n := rng.Intn(8); n > 0; n-- {
			row := make([]rdf.Term, len(res.Vars))
			for c := range row {
				row[c] = termOfKind(rng.Intn(7), randJSONString(rng), randJSONString(rng), randJSONString(rng))
			}
			res.Rows = append(res.Rows, row)
		}
		checkEncoding(t, res)
	}
}

// chunkWriter records the size of every Write.
type chunkWriter struct {
	bytes.Buffer
	writes []int
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.Buffer.Write(p)
}

func TestWriteResultsJSONFlushes(t *testing.T) {
	res := &sparql.Results{Vars: []string{"s"}}
	for i := 0; i < 5000; i++ {
		res.Rows = append(res.Rows, []rdf.Term{rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i))})
	}
	var w chunkWriter
	if err := WriteResultsJSON(&w, res); err != nil {
		t.Fatal(err)
	}
	if w.Len() < 3*resultsFlushBytes || len(w.writes) < 3 {
		t.Fatalf("%d bytes in %d writes, want one write per ~%d bytes", w.Len(), len(w.writes), resultsFlushBytes)
	}
	for _, n := range w.writes {
		if n > resultsFlushBytes+1<<10 {
			t.Errorf("a write of %d bytes: the encoder held more than a flush's worth", n)
		}
	}

	boom := errors.New("boom")
	if err := WriteResultsJSON(failWriter{boom}, res); !errors.Is(err, boom) {
		t.Errorf("write error = %v, want %v", err, boom)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestWriteBooleanJSONMatchesEncodingJSON(t *testing.T) {
	for _, v := range []bool{true, false} {
		var got, want bytes.Buffer
		if err := WriteBooleanJSON(&got, v); err != nil {
			t.Fatal(err)
		}
		if err := refWriteBooleanJSON(&want, v); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("WriteBooleanJSON(%v) = %q, want %q", v, got.String(), want.String())
		}
		if _, back, err := ParseResultsJSON(&got); err != nil || back != v {
			t.Errorf("round trip of %v = %v, %v", v, back, err)
		}
	}
}

// FuzzWriteResultsJSON drives the encoder with arbitrary strings as
// variable names, values, language tags and datatypes: each byte of
// shape is one cell (its term kind), cut into rows of up to three
// columns, and the output must equal encoding/json's and round-trip.
func FuzzWriteResultsJSON(f *testing.F) {
	f.Add("Amy", "en", rdf.XSDInt, []byte{0, 1, 2, 3, 4, 5, 6})
	f.Add("<a&b>\u2028\x00\xff", "\t\"", `\u00e9`, []byte{3, 4, 5, 6, 1})
	f.Add("", "", "", []byte{})
	f.Fuzz(func(t *testing.T, value, lang, datatype string, shape []byte) {
		res := &sparql.Results{}
		names := []string{value, "x", lang, "x"}
		res.Vars = names[:len(shape)%4]
		for len(shape) > 0 {
			row := make([]rdf.Term, len(res.Vars))
			for c := range row {
				if len(shape) > 0 {
					row[c] = termOfKind(int(shape[0]), value, lang, datatype)
					shape = shape[1:]
				}
			}
			if len(row) == 0 {
				shape = shape[1:]
			}
			res.Rows = append(res.Rows, row)
		}
		checkEncoding(t, res)
	})
}
