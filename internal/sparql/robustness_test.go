package sparql

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// TestParserNeverPanics mutates valid queries at random and checks the
// parser returns an error (or a query) without panicking — a cheap
// fuzzing pass over the grammar.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		testPrologue + `SELECT ?x WHERE { ?x rel:follows ?y }`,
		testPrologue + `SELECT ?x (COUNT(*) AS ?c) WHERE { GRAPH ?g { ?x ?p ?y FILTER (isLiteral(?y)) } } GROUP BY ?x ORDER BY DESC(?c) LIMIT 3`,
		testPrologue + `ASK { ?x rel:knows/rel:follows* ?y }`,
		testPrologue + `CONSTRUCT { ?x ?p ?y } WHERE { { ?x ?p ?y } UNION { ?y ?p ?x } }`,
		testPrologue + `SELECT * WHERE { VALUES (?a ?b) { (1 "x") (UNDEF true) } OPTIONAL { ?a ?b ?c } }`,
	}
	mutations := []func(string, *rand.Rand) string{
		func(s string, r *rand.Rand) string { // delete a byte
			if len(s) < 2 {
				return s
			}
			i := r.Intn(len(s))
			return s[:i] + s[i+1:]
		},
		func(s string, r *rand.Rand) string { // duplicate a byte
			if s == "" {
				return s
			}
			i := r.Intn(len(s))
			return s[:i] + string(s[i]) + s[i:]
		},
		func(s string, r *rand.Rand) string { // swap in a random delimiter
			if s == "" {
				return s
			}
			chars := ";.{}()?<>\"'@^|/*+-"
			i := r.Intn(len(s))
			return s[:i] + string(chars[r.Intn(len(chars))]) + s[i+1:]
		},
		func(s string, r *rand.Rand) string { // truncate
			if s == "" {
				return s
			}
			return s[:r.Intn(len(s))]
		},
	}
	rng := rand.New(rand.NewSource(2014))
	for trial := 0; trial < 3000; trial++ {
		q := seeds[rng.Intn(len(seeds))]
		for m := 0; m < 1+rng.Intn(3); m++ {
			q = mutations[rng.Intn(len(mutations))](q, rng)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("parser panicked on %q: %v", q, p)
				}
			}()
			Parse(q)       //nolint:errcheck — errors are expected
			ParseUpdate(q) //nolint:errcheck
		}()
	}
}

// TestExecutionNeverPanicsOnValidQueries runs randomly generated valid
// queries against a small dataset, checking evaluation robustness.
func TestExecutionNeverPanicsOnValidQueries(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	rng := rand.New(rand.NewSource(7))
	pos := func() string {
		opts := []string{"?a", "?b", "?c", "<http://pg/v1>", "<http://pg/e3>", `"Amy"`, "23"}
		return opts[rng.Intn(len(opts))]
	}
	pred := func() string {
		opts := []string{"?p", "<http://pg/r/follows>", "<http://pg/k/name>", "<http://pg/k/age>",
			"<http://pg/r/follows>/<http://pg/r/follows>", "(<http://pg/r/follows>|<http://pg/r/knows>)"}
		return opts[rng.Intn(len(opts))]
	}
	for trial := 0; trial < 300; trial++ {
		var sb strings.Builder
		sb.WriteString("SELECT * WHERE { ")
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			subj := pos()
			for strings.HasPrefix(subj, `"`) || subj == "23" {
				subj = pos() // subjects must be resources
			}
			sb.WriteString(subj + " " + pred() + " " + pos() + " . ")
		}
		if rng.Intn(3) == 0 {
			sb.WriteString("FILTER (isLiteral(?a) || ?b > 1) ")
		}
		sb.WriteString("}")
		q := sb.String()
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("execution panicked on %q: %v", q, p)
				}
			}()
			res, err := e.QueryContext(t.Context(), "", q)
			if err == nil && res == nil {
				t.Fatalf("nil results without error for %q", q)
			}
		}()
	}
}

// TestWideBindings ensures queries near the variable limit work and the
// limit is enforced cleanly.
func TestWideBindings(t *testing.T) {
	st := store.New()
	st.Load("m", []rdf.Quad{{S: rdf.NewIRI("http://a"), P: rdf.NewIRI("http://p"), O: rdf.NewIRI("http://a")}})
	var sb strings.Builder
	sb.WriteString("SELECT * WHERE { ")
	for i := 0; i < 60; i++ {
		sb.WriteString("?a <http://p> ?a . ")
	}
	sb.WriteString("}")
	if _, err := NewEngine(st).QueryContext(t.Context(), "", sb.String()); err != nil {
		t.Fatalf("60-pattern query failed: %v", err)
	}

	sb.Reset()
	sb.WriteString("SELECT * WHERE { ")
	for i := 0; i < 70; i++ {
		sb.WriteString("?v")
		sb.WriteString(strings.Repeat("x", i%3+1))
		sb.WriteString(string(rune('a'+i%26)) + string(rune('a'+(i/26))))
		sb.WriteString(" <http://p> ?o . ")
	}
	sb.WriteString("}")
	if _, err := NewEngine(st).QueryContext(t.Context(), "", sb.String()); err == nil {
		t.Error("query with > 64 variables should be rejected")
	}
}
