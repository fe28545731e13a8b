package sparql

import (
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// exprStore builds a tiny store for expression tests.
func exprStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	subj := rdf.NewIRI("http://x/s")
	add := func(p string, o rdf.Term) rdf.Quad {
		return rdf.Quad{S: subj, P: rdf.NewIRI("http://x/" + p), O: o}
	}
	_, err := st.Load("m", []rdf.Quad{
		add("str", rdf.NewLiteral("hello")),
		add("int", rdf.NewInteger(42)),
		add("neg", rdf.NewInteger(-5)),
		add("dbl", rdf.NewDouble(2.5)),
		add("lang", rdf.NewLangLiteral("bonjour", "fr")),
		add("iri", rdf.NewIRI("http://x/other")),
		add("blank", rdf.NewBlank("b1")),
		add("bool", rdf.NewBoolean(true)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// evalFilter runs `SELECT ?o WHERE { <s> <p> ?o FILTER (expr) }` and
// reports whether any row survives.
func evalFilter(t *testing.T, st *store.Store, prop, filter string) bool {
	t.Helper()
	q := `SELECT ?o WHERE { <http://x/s> <http://x/` + prop + `> ?o FILTER (` + filter + `) }`
	res, err := NewEngine(st).QueryContext(t.Context(), "", q)
	if err != nil {
		t.Fatalf("query %s: %v", filter, err)
	}
	return res.Len() > 0
}

func TestExprTypePredicates(t *testing.T) {
	st := exprStore(t)
	cases := []struct {
		prop, filter string
		want         bool
	}{
		{"str", "isLiteral(?o)", true},
		{"iri", "isLiteral(?o)", false},
		{"iri", "isIRI(?o)", true},
		{"iri", "isURI(?o)", true},
		{"blank", "isBlank(?o)", true},
		{"str", "isBlank(?o)", false},
		{"int", "isNumeric(?o)", true},
		{"str", "isNumeric(?o)", false},
		{"dbl", "isNumeric(?o)", true},
	}
	for _, c := range cases {
		if got := evalFilter(t, st, c.prop, c.filter); got != c.want {
			t.Errorf("%s on %s = %v, want %v", c.filter, c.prop, got, c.want)
		}
	}
}

// TestKindTestsAllocateNothing: isLiteral, isIRI, isURI and isBlank on
// a bound variable read their one argument without an argument slice,
// so a FILTER running them per row allocates nothing per row.
func TestKindTestsAllocateNothing(t *testing.T) {
	st := exprStore(t)
	e := NewEngine(st)
	for _, c := range []struct {
		name string
		obj  rdf.Term
		want bool
	}{
		{"ISLITERAL", rdf.NewLiteral("hello"), true},
		{"ISLITERAL", rdf.NewIRI("http://x/other"), false},
		{"ISIRI", rdf.NewIRI("http://x/other"), true},
		{"ISURI", rdf.NewLiteral("hello"), false},
		{"ISBLANK", rdf.NewBlank("b1"), true},
	} {
		comp := &compiler{vt: newVarTable(), seq: freshCounter()}
		expr, err := comp.expr(ExprCall{Name: c.name, Args: []Expr{ExprVar{Name: "v"}}})
		if err != nil {
			t.Fatal(err)
		}
		ec, err := e.execCtx("", comp.vt)
		if err != nil {
			t.Fatal(err)
		}
		b := make(binding, len(comp.vt.names))
		b[comp.vt.slot("v")] = st.Dict().Lookup(c.obj)
		var got bool
		allocs := testing.AllocsPerRun(100, func() {
			if got, err = evalBool(ec, expr, b); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want || allocs != 0 {
			t.Errorf("%s(%v) = %v with %.1f allocations, want %v with 0", c.name, c.obj, got, allocs, c.want)
		}
	}
}

func TestExprAccessors(t *testing.T) {
	st := exprStore(t)
	cases := []struct {
		prop, filter string
		want         bool
	}{
		{"lang", `LANG(?o) = "fr"`, true},
		{"str", `LANG(?o) = ""`, true},
		{"int", `DATATYPE(?o) = <http://www.w3.org/2001/XMLSchema#integer>`, true},
		{"str", `DATATYPE(?o) = <http://www.w3.org/2001/XMLSchema#string>`, true},
		{"iri", `STR(?o) = "http://x/other"`, true},
		{"int", `STR(?o) = "42"`, true},
		{"str", `sameTerm(?o, "hello")`, true},
		{"str", `sameTerm(?o, "hello"@fr)`, false},
	}
	for _, c := range cases {
		if got := evalFilter(t, st, c.prop, c.filter); got != c.want {
			t.Errorf("%s on %s = %v, want %v", c.filter, c.prop, got, c.want)
		}
	}
}

func TestExprArithmetic(t *testing.T) {
	st := exprStore(t)
	cases := []struct {
		prop, filter string
		want         bool
	}{
		{"int", "?o * 2 = 84", true},
		{"int", "?o - 40 = 2", true},
		{"int", "?o / 2 = 21", true}, // integer division yields decimal 21.0 = 21
		{"dbl", "?o + 0.5 = 3", true},
		{"neg", "ABS(?o) = 5", true},
		{"neg", "-?o = 5", true},
		{"int", "?o / 0 = 1", false}, // division by zero is a type error -> false
		{"str", "?o + 1 = 2", false}, // non-numeric arithmetic is an error
	}
	for _, c := range cases {
		if got := evalFilter(t, st, c.prop, c.filter); got != c.want {
			t.Errorf("%s on %s = %v, want %v", c.filter, c.prop, got, c.want)
		}
	}
}

func TestExprLogicErrorTolerance(t *testing.T) {
	st := exprStore(t)
	// SPARQL: error || true = true; error && false = false.
	if !evalFilter(t, st, "str", `(?o + 1 = 2) || true`) {
		t.Error("error || true should be true")
	}
	if evalFilter(t, st, "str", `(?o + 1 = 2) && true`) {
		t.Error("error && true should be an error (row dropped)")
	}
	if evalFilter(t, st, "str", `(?o + 1 = 2) && false`) {
		t.Error("error && false should be false")
	}
	if !evalFilter(t, st, "str", `!(?o = "nope")`) {
		t.Error("negation of false should pass")
	}
}

func TestExprConditionals(t *testing.T) {
	st := exprStore(t)
	if !evalFilter(t, st, "int", `IF(?o > 10, true, false)`) {
		t.Error("IF true branch")
	}
	if evalFilter(t, st, "int", `IF(?o > 100, true, false)`) {
		t.Error("IF false branch")
	}
	if !evalFilter(t, st, "int", `COALESCE(?missing, ?o) = 42`) {
		t.Error("COALESCE should skip unbound and return ?o")
	}
	if !evalFilter(t, st, "int", `BOUND(?o)`) {
		t.Error("BOUND(?o) should hold")
	}
	if evalFilter(t, st, "int", `BOUND(?nope)`) {
		t.Error("BOUND of never-bound var should be false")
	}
}

func TestExprInList(t *testing.T) {
	st := exprStore(t)
	if !evalFilter(t, st, "int", `?o IN (41, 42, 43)`) {
		t.Error("IN should match")
	}
	if evalFilter(t, st, "int", `?o IN (1, 2)`) {
		t.Error("IN should not match")
	}
	if !evalFilter(t, st, "int", `?o NOT IN (1, 2)`) {
		t.Error("NOT IN should match")
	}
}

func TestExprReplaceAndSubstr(t *testing.T) {
	st := exprStore(t)
	if !evalFilter(t, st, "str", `REPLACE(?o, "l+", "L") = "heLo"`) {
		t.Error("REPLACE failed")
	}
	if !evalFilter(t, st, "str", `SUBSTR(?o, 2) = "ello"`) {
		t.Error("SUBSTR(s,2) failed")
	}
	if !evalFilter(t, st, "str", `SUBSTR(?o, 1, 2) = "he"`) {
		t.Error("SUBSTR(s,1,2) failed")
	}
}

func TestHavingClause(t *testing.T) {
	st := store.New()
	p := rdf.NewIRI("http://x/p")
	var quads []rdf.Quad
	for i := 0; i < 5; i++ {
		quads = append(quads, rdf.Quad{S: rdf.NewIRI("http://x/a"), P: p, O: rdf.NewInteger(int64(i))})
	}
	quads = append(quads, rdf.Quad{S: rdf.NewIRI("http://x/b"), P: p, O: rdf.NewInteger(9)})
	st.Load("m", quads)
	res, err := NewEngine(st).QueryContext(t.Context(), "", `
		SELECT ?s (COUNT(*) AS ?n) WHERE { ?s <http://x/p> ?o }
		GROUP BY ?s HAVING (COUNT(*) > 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Value != "http://x/a" {
		t.Fatalf("having res = %s", res)
	}
}

func TestGroupConcatAndSample(t *testing.T) {
	st := store.New()
	p := rdf.NewIRI("http://x/p")
	s := rdf.NewIRI("http://x/a")
	st.Load("m", []rdf.Quad{
		{S: s, P: p, O: rdf.NewLiteral("x")},
		{S: s, P: p, O: rdf.NewLiteral("y")},
	})
	res, err := NewEngine(st).QueryContext(t.Context(), "", `
		SELECT (GROUP_CONCAT(?o) AS ?all) (SAMPLE(?o) AS ?one) WHERE { ?s <http://x/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	all := res.Rows[0][0].Value
	if all != "x y" && all != "y x" {
		t.Errorf("GROUP_CONCAT = %q", all)
	}
	one := res.Rows[0][1].Value
	if one != "x" && one != "y" {
		t.Errorf("SAMPLE = %q", one)
	}
}

func TestSumAvgOverEmptyAndMixed(t *testing.T) {
	st := exprStore(t)
	res, err := NewEngine(st).QueryContext(t.Context(), "", `
		SELECT (SUM(?o) AS ?s) (AVG(?o) AS ?a) WHERE { ?x <http://never> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Value != "0" || res.Rows[0][1].Value != "0" {
		t.Errorf("empty SUM/AVG = %v", res.Rows[0])
	}
	// SUM skips non-numeric values.
	res, err = NewEngine(st).QueryContext(t.Context(), "", `
		SELECT (SUM(?o) AS ?s) WHERE { <http://x/s> ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := rdf.LiteralValue(res.Rows[0][0])
	if !ok || v.Float() != 39.5 { // 42 + -5 + 2.5
		t.Errorf("mixed SUM = %v", res.Rows[0][0])
	}
}

func TestMinMaxOverMixedTerms(t *testing.T) {
	st := exprStore(t)
	res, err := NewEngine(st).QueryContext(t.Context(), "", `
		SELECT (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) WHERE { <http://x/s> <http://x/int> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Value != "42" || res.Rows[0][1].Value != "42" {
		t.Errorf("min/max singleton = %v", res.Rows[0])
	}
}

func TestOptionalWithFilterInside(t *testing.T) {
	st := exprStore(t)
	res, err := NewEngine(st).QueryContext(t.Context(), "", `
		SELECT ?o WHERE {
			<http://x/s> <http://x/int> ?v
			OPTIONAL { <http://x/s> <http://x/str> ?o FILTER (?v > 100) }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Rows[0][0].IsZero() {
		t.Fatalf("optional with failing inner filter should leave ?o unbound: %s", res)
	}
}

func TestNestedOptional(t *testing.T) {
	st := exprStore(t)
	res, err := NewEngine(st).QueryContext(t.Context(), "", `
		SELECT ?a ?b WHERE {
			<http://x/s> <http://x/int> ?v
			OPTIONAL { <http://x/s> <http://x/str> ?a
				OPTIONAL { <http://x/s> <http://x/lang> ?b } }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Value != "hello" || res.Rows[0][1].Value != "bonjour" {
		t.Fatalf("nested optional: %s", res)
	}
}

func TestValuesWithUndef(t *testing.T) {
	st := exprStore(t)
	res, err := NewEngine(st).QueryContext(t.Context(), "", `
		SELECT ?p ?o WHERE {
			VALUES (?p ?o) { (<http://x/int> UNDEF) (UNDEF "hello") }
			<http://x/s> ?p ?o
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("values/undef rows = %d\n%s", res.Len(), res)
	}
}

func TestOffsetPastEnd(t *testing.T) {
	st := exprStore(t)
	res, err := NewEngine(st).QueryContext(t.Context(), "", `SELECT ?o WHERE { <http://x/s> <http://x/int> ?o } OFFSET 10`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("offset past end rows = %d", res.Len())
	}
}

func TestSelectStar(t *testing.T) {
	st := exprStore(t)
	res, err := NewEngine(st).QueryContext(t.Context(), "", `SELECT * WHERE { <http://x/s> <http://x/int> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 1 || res.Vars[0] != "o" {
		t.Fatalf("star vars = %v", res.Vars)
	}
}

func TestResultsHelpers(t *testing.T) {
	st := exprStore(t)
	res, err := NewEngine(st).QueryContext(t.Context(), "", `SELECT ?o WHERE { <http://x/s> <http://x/int> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Col("o") != 0 || res.Col("missing") != -1 {
		t.Error("Col lookup broken")
	}
	if !strings.Contains(res.String(), "42") {
		t.Errorf("String() output: %s", res)
	}
}

func TestBindErrorLeavesUnbound(t *testing.T) {
	st := exprStore(t)
	res, err := NewEngine(st).QueryContext(t.Context(), "", `
		SELECT ?bad WHERE { <http://x/s> <http://x/str> ?o BIND (?o * 2 AS ?bad) }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Rows[0][0].IsZero() {
		t.Fatalf("BIND error should leave var unbound: %s", res)
	}
}

func TestRegexInvalidPatternIsError(t *testing.T) {
	st := exprStore(t)
	if evalFilter(t, st, "str", `REGEX(?o, "(")`) {
		t.Error("invalid regex should be a type error, dropping the row")
	}
}
