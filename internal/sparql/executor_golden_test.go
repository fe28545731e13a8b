package sparql

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// nestedShapeQueries are the plan shapes whose BGPs run once per outer
// row (the inner pipelines of OPTIONAL, MINUS and UNION, a BGP fed by
// VALUES or BIND, a BGP after OPTIONAL) or that evaluate a sub-pipeline
// per row (FILTER EXISTS, sub-select, path closure).
var nestedShapeQueries = []string{
	`SELECT ?a ?b ?c WHERE { ?a rel:follows ?b OPTIONAL { ?b rel:follows ?c . ?c rel:follows ?a } }`,
	`SELECT ?a ?b WHERE { ?a rel:follows ?b MINUS { ?b rel:follows ?a } }`,
	`SELECT ?a ?e WHERE { ?a rel:follows <http://pg/v9> { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?d . ?d rel:follows ?e } UNION { ?e rel:follows ?a } }`,
	`SELECT ?a ?b ?c WHERE { VALUES ?a { <http://pg/v1> <http://pg/v2> <http://pg/v7> <http://pg/v11> } ?a rel:follows ?b . ?b rel:follows ?c }`,
	`SELECT ?a ?b ?c WHERE { ?a rel:follows <http://pg/v9> BIND(?a AS ?b) ?b rel:follows ?c }`,
	`SELECT ?a ?c ?d WHERE { ?a rel:follows <http://pg/v9> OPTIONAL { ?a rel:follows ?c . ?c rel:follows <http://pg/v3> } ?c rel:follows ?d }`,
	`SELECT ?a ?b WHERE { ?a rel:follows ?b FILTER EXISTS { ?b rel:follows ?a } }`,
	`SELECT ?a ?n WHERE { ?a rel:follows <http://pg/v9> { SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a rel:follows ?b } GROUP BY ?a } }`,
	`SELECT ?a ?y WHERE { ?a rel:follows <http://pg/v9> . ?a rel:follows+ ?y }`,
}

// aggregateShapeQueries are the shapes an aggregate query keeps in ID
// space, and their row-fold neighbours: GROUP BY one variable, two, an
// expression, or keys unbound in some rows; HAVING; COUNT(DISTINCT)
// beside COUNT(*); alternation paths (lowered to UNIONs); explicit
// UNIONs whose branches bind different variables or end in OPTIONAL;
// and sub-selects, nested (EQ9/EQ10) or joined to an outer BGP.
var aggregateShapeQueries = []string{
	`SELECT ?b (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b } GROUP BY ?b`,
	`SELECT ?a ?c (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c } GROUP BY ?a ?c`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b } GROUP BY (STR(?b))`,
	`SELECT ?c (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b OPTIONAL { ?b rel:follows ?c . ?c rel:follows ?a } } GROUP BY ?c`,
	`SELECT ?z (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b } GROUP BY ?z`,
	`SELECT ?a ?z (COUNT(?z) AS ?nz) (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b } GROUP BY ?a ?z`,
	`SELECT ?b (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b } GROUP BY ?b HAVING (COUNT(*) > 4)`,
	`SELECT ?a (COUNT(DISTINCT ?c) AS ?d) (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c } GROUP BY ?a`,
	`SELECT ?a ?b WHERE { ?a (rel:follows|rel:knows) ?b }`,
	`SELECT ?a ?b WHERE { ?a (rel:follows|^rel:follows) ?b }`,
	`SELECT ?a ?c WHERE { ?a (rel:follows|rel:knows)/rel:follows ?c }`,
	`SELECT ?a ?b ?c WHERE { { ?a rel:follows ?b } UNION { ?c rel:follows ?a } }`,
	`SELECT ?a (COUNT(?b) AS ?nb) (COUNT(?c) AS ?nc) WHERE { { ?a rel:follows ?b } UNION { ?c rel:follows ?a } } GROUP BY ?a`,
	`SELECT ?a ?b ?c WHERE { { ?a rel:follows ?b OPTIONAL { ?b rel:follows ?c . ?c rel:follows ?a } } UNION { ?c rel:follows ?a } }`,
	`SELECT ?deg (COUNT(*) AS ?cnt) WHERE { SELECT ?b (COUNT(*) AS ?deg) WHERE { ?a (rel:follows|rel:knows) ?b } GROUP BY ?b } GROUP BY ?deg ORDER BY DESC(?deg)`,
	`SELECT ?deg (COUNT(*) AS ?cnt) WHERE { SELECT ?a (COUNT(*) AS ?deg) WHERE { ?a (rel:follows|^rel:follows) ?b } GROUP BY ?a } GROUP BY ?deg ORDER BY DESC(?deg)`,
	`SELECT ?b ?n ?c WHERE { { SELECT ?b (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b } GROUP BY ?b HAVING (COUNT(*) > 4) } ?b rel:follows ?c }`,
	`SELECT ?b (COUNT(*) AS ?n) WHERE { { SELECT DISTINCT ?b WHERE { ?a rel:follows ?b } } ?b rel:follows ?c } GROUP BY ?b`,
}

// countShapeQueries are the shapes a COUNT answers by counting rather
// than enumerating (DESIGN.md §22) and their neighbours that must keep
// enumerating: EQ11a–e from <http://pg/v3> and EQ12; unanchored 2- and
// 3-hop counts; COUNT of a variable bound by VALUES (or, for the UNDEF
// row, by the BGP); a GROUP BY key that stays live; a FILTER that keeps
// a variable live mid-chain; a cycle whose closing intersection takes
// collapsed rows; COUNT(DISTINCT) and an OPTIONAL above the BGP, which
// run unweighted.
func countShapeQueries() []string {
	eq11 := EQ11Queries("http://pg/v3")
	return append(eq11[:],
		`SELECT (COUNT(*) AS ?cnt) WHERE { ?x r:follows ?y . ?y r:follows ?z . ?z r:follows ?x }`,
		`SELECT (COUNT(?c) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?d }`,
		`SELECT (COUNT(?v) AS ?n) WHERE { VALUES ?v { <http://pg/v1> UNDEF <http://pg/v7> } ?v rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?d }`,
		`SELECT ?a (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?d } GROUP BY ?a`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?d FILTER (?d != ?b) }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?d . ?d rel:follows ?b }`,
		`SELECT (COUNT(DISTINCT ?d) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?d }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c OPTIONAL { ?c rel:follows ?a } }`,
	)
}

// goldenQueries are the queries whose results the golden file pins.
func goldenQueries() []string {
	return append(append(append(append(append([]string(nil), vectorDiffQueries...), nestedShapeQueries...), intersectShapeQueries...), aggregateShapeQueries...), countShapeQueries()...)
}

// profiledQueries are the golden queries whose serial profile counters
// the golden file pins too.
func profiledQueries() []string {
	return append(append(append(append([]string(nil), nestedShapeQueries...), intersectShapeQueries...), aggregateShapeQueries...), countShapeQueries()...)
}

const executorGoldenPath = "testdata/executor_golden.txt"

// goldenHeadRows is how many leading rows of each result the golden
// file spells out; the digest pins the rest, order included.
const goldenHeadRows = 3

// executorGolden renders the pinned results: for every query, the row
// count, a digest of the full result table (row order included) and
// its first rows; for the nested, intersection and aggregate shapes also
// the profile's per-operator counters (see profileCounters).
func executorGolden(t *testing.T) string {
	t.Helper()
	st := egoNetStore(t, 900, 5)
	e := NewEngine(st)
	e.HashJoinThreshold = 16
	var sb strings.Builder
	sb.WriteString("# Executor golden: results on egoNetStore(900, 5), HashJoinThreshold 16.\n")
	sb.WriteString("# Regenerate only with\n")
	sb.WriteString("# UPDATE_EXECUTOR_GOLDEN=1 go test -run TestExecutorGolden ./internal/sparql\n")
	for _, q := range goldenQueries() {
		res, err := e.Query("", testPrologue+q)
		if err != nil {
			t.Fatalf("%v\n%s", err, q)
		}
		table := res.String()
		lines := strings.SplitAfter(table, "\n")
		fmt.Fprintf(&sb, "\n== %s\nrows=%d sha256=%x\n", q, res.Len(), sha256.Sum256([]byte(table)))
		for i := 1; i < len(lines) && i <= goldenHeadRows; i++ {
			sb.WriteString(lines[i])
		}
	}
	for _, q := range profiledQueries() {
		fmt.Fprintf(&sb, "\n== profile %s\n%s", q, profileCounters(t, st, q))
	}
	return sb.String()
}

// profileCounters runs q with profiling and renders each plan
// node's invocations, rows in/out and NLJ→hash switch flag — the
// counters that must not change with the executor's internals — and a
// fused binder's rows by intersection kernel. Guard ticks and wall time
// are left out: ticks depend on where the hash switch happens, not on
// whether it happens.
func profileCounters(t *testing.T, st *store.Store, q string) string {
	t.Helper()
	e := NewEngine(st)
	e.HashJoinThreshold = 16
	_, prof, err := e.QueryProfiled("", testPrologue+q)
	if err != nil {
		t.Fatalf("profile: %v\n%s", err, q)
	}
	var sb strings.Builder
	var walk func(ns []*ProfileNode, depth int)
	walk = func(ns []*ProfileNode, depth int) {
		for _, n := range ns {
			fmt.Fprintf(&sb, "%s%s  loops=%d in=%d out=%d hash=%v",
				strings.Repeat("  ", depth), n.Label, n.Invocations, n.RowsIn, n.RowsOut, n.HashJoin)
			if n.Walked+n.Galloped > 0 {
				fmt.Fprintf(&sb, " marked=%d walked=%d galloped=%d dir=%d", n.Marked, n.Walked, n.Galloped, n.Dir)
			}
			sb.WriteByte('\n')
			walk(n.Children, depth+1)
		}
	}
	walk(prof.Plan, 0)
	return sb.String()
}

// TestExecutorGolden pins the executor's output byte for byte — row
// order included — and the nested shapes' profile counters. The file
// was written by the parent of the change
// that made the batch driver the only BGP join implementation, so it
// shows that change kept depth-first emission order and per-invocation
// plan decisions.
func TestExecutorGolden(t *testing.T) {
	if os.Getenv("UPDATE_EXECUTOR_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(executorGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(executorGoldenPath, []byte(executorGolden(t)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(executorGoldenPath)
	if err != nil {
		t.Fatalf("%v; regenerate with UPDATE_EXECUTOR_GOLDEN=1", err)
	}
	if got := executorGolden(t); got != string(want) {
		t.Errorf("output differs from %s:\n%s", executorGoldenPath, firstDiff(string(want), got))
	}
}

// firstDiff reports the first differing line of two texts.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "(identical)"
}
