package ntriples

import (
	"bytes"
	"strings"
	"testing"
)

// readerSeeds is FuzzReader's corpus, shared with FuzzParseQuad.
var readerSeeds = []string{
	"<http://a> <http://p> <http://b> .\n",
	"<http://a> <http://p> \"lit\" .\n",
	"<http://a> <http://p> \"v\"@en .\n",
	"<http://a> <http://p> \"1\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
	"<http://a> <http://p> <http://b> <http://g> .\n",
	"_:b0 <http://p> _:b1 .\n",
	"# comment\n\n<http://a> <http://p> \"x\\\"y\\\\z\" .\n",
	"<http://a> <http://p> \"\\u00e9\\U0001F600\" .\n",
	"<a> <p>",    // truncated
	"\"dangling", // bare literal
	"<http://a> <http://p> \"v\"^^",
	"<http://a> <http://p> \"v\"@",
}

// addReaderSeeds adds readerSeeds and the regression seeds: inputs
// found by fuzzing that previously panicked stay pinned so the crash
// can never come back silently.
func addReaderSeeds(f *testing.F) {
	for _, s := range readerSeeds {
		f.Add(s)
	}
	for _, s := range regressionInputs {
		f.Add(s)
	}
}

// FuzzReader drives the N-Triples/N-Quads parser with arbitrary input.
// Properties:
//
//  1. the parser never panics;
//  2. anything it accepts, the writer serializes and the serialization
//     re-parses to the identical quad sequence (write/read round-trip).
//
// Its regression seeds reproduce inputs that previously crashed or
// mis-round-tripped; keep them even if the corpus rotates.
func FuzzReader(f *testing.F) {
	addReaderSeeds(f)
	f.Fuzz(func(t *testing.T, data string) {
		quads, err := NewReader(strings.NewReader(data)).ReadAll()
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteAll(quads); err != nil {
			t.Fatalf("writer rejected parser output: %v\ninput: %q", err, data)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		again, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
		if err != nil {
			t.Fatalf("round-trip re-parse failed: %v\ninput: %q\nserialized: %q", err, data, buf.String())
		}
		if len(again) != len(quads) {
			t.Fatalf("round-trip count %d != %d\ninput: %q\nserialized: %q", len(again), len(quads), data, buf.String())
		}
		for i := range quads {
			if !quads[i].S.Equal(again[i].S) || !quads[i].P.Equal(again[i].P) ||
				!quads[i].O.Equal(again[i].O) || !quads[i].G.Equal(again[i].G) {
				t.Fatalf("round-trip quad %d differs:\n  first:  %v\n  second: %v\ninput: %q", i, quads[i], again[i], data)
			}
		}
	})
}

// FuzzParseQuad: ParseQuad accepts an input exactly when ReadAll yields
// one quad and no error, and then returns that quad. Beyond FuzzReader's
// corpus, the seeds are the edges of "exactly one": none, two, and one
// among blank and comment lines.
func FuzzParseQuad(f *testing.F) {
	addReaderSeeds(f)
	for _, s := range []string{
		"", "\n", "# only a comment", " \t\r\n# c\n\n",
		"<http://a> <http://p> <http://b> .",
		"\n# c\n  <http://a> <http://p> <http://b> .  \r\n\n",
		"<http://a> <http://p> <http://b> .\n<http://a> <http://p> <http://c> .",
		"<http://a> <http://p> <http://b> . <http://a> <http://p> <http://c> .",
		"<http://a> <http://p> <http://b> .\n<bad",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		q, err := ParseQuad(data)
		quads, rerr := NewReader(strings.NewReader(data)).ReadAll()
		if one := rerr == nil && len(quads) == 1; one != (err == nil) {
			t.Fatalf("ParseQuad err = %v, ReadAll = %d quads, err %v\ninput: %q", err, len(quads), rerr, data)
		}
		if err == nil && q != quads[0] {
			t.Fatalf("ParseQuad = %v, ReadAll = %v\ninput: %q", q, quads[0], data)
		}
	})
}
