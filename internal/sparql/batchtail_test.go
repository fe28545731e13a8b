package sparql

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/pgrdf"
	"repro/internal/store"
	"repro/internal/twitter"
)

// lookupClasses are the paper queries of the lookup-ng and mixed-rw-ng
// read mix: they group nothing but EQ11b's single implicit group and
// union nothing.
var lookupClasses = []string{"EQ1", "EQ2", "EQ4", "EQ5a", "EQ6a", "EQ8a", "EQ11b"}

// lookupPlansPath holds the EXPLAIN text of the lookup classes on NG and
// SP data, written by the parent of the change that made aggregates stay
// in ID space; since counting without enumerating (DESIGN.md §22) EQ11b's
// BGP line reads "count=weighted", and nothing else changed. Regenerate
// only with
// UPDATE_LOOKUP_PLANS=1 go test -run TestBatchTailFiresWhereExpected ./internal/sparql
const lookupPlansPath = "testdata/lookup_plans.txt"

// groupKeyNote is the GroupAggregate annotation EXPLAIN gained with
// ID-keyed grouping; lookupPlans strips it to compare with the file.
var groupKeyNote = regexp.MustCompile(`(?m)^(\s*GroupAggregate .*) key=(none|id|term)$`)

// paperStore loads the test-scale Twitter graph under scheme into a
// store with serve's indexes.
func paperStore(t *testing.T, scheme pgrdf.Scheme) *store.Store {
	t.Helper()
	st, err := store.NewWithIndexes(serveIndexes)
	if err != nil {
		t.Fatal(err)
	}
	ds := pgrdf.NewConverter(scheme).Convert(twitter.Generate(twitter.TestConfig()))
	if err := pgrdf.LoadSingle(st, ds, "data"); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBatchTailFiresWhereExpected pins where aggregates stay in ID
// space, on NG and SP data under serve's indexes. EQ9 and EQ10 run their
// alternation's UNION columnar and group by ID — in EXPLAIN and, by the
// profile, at run time. The lookup classes keep the parent's plans
// exactly — join order, indexes, access paths — but for the key
// annotation on EQ11b's single group and its weighted BGP, which
// collapses nothing, so the lookup workloads run what they ran before.
func TestBatchTailFiresWhereExpected(t *testing.T) {
	queries := PaperQueries()
	var plans strings.Builder
	for _, scheme := range []pgrdf.Scheme{pgrdf.NG, pgrdf.SP} {
		e := NewEngine(paperStore(t, scheme))
		for _, name := range []string{"EQ9", "EQ10"} {
			plan, err := e.Explain("", queries[name])
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, "Union (2 branches, batch):") || strings.Count(plan, "key=id") != 2 {
				t.Errorf("%s %s: want a batch Union and two id-keyed GroupAggregates:\n%s", scheme, name, plan)
			}
			_, prof, err := e.QueryProfiled("", queries[name])
			if err != nil {
				t.Fatal(err)
			}
			var batchRows, groups int64
			walkProfile(prof.Plan, func(n *ProfileNode) {
				if n.Batch {
					batchRows += n.RowsOut
				}
				if n.GroupKey == "id" {
					groups += n.Groups
				}
			})
			if batchRows == 0 || groups == 0 {
				t.Errorf("%s %s: profile shows %d batch Union rows and %d id-keyed groups", scheme, name, batchRows, groups)
			}
		}
		for _, name := range lookupClasses {
			plan, err := e.Explain("", queries[name])
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(plan, "batch") {
				t.Errorf("%s %s: a lookup class runs a batch Union:\n%s", scheme, name, plan)
			}
			if notes := groupKeyNote.FindAllString(plan, -1); len(notes) != map[bool]int{true: 1}[name == "EQ11b"] {
				t.Errorf("%s %s: %d GroupAggregate annotations:\n%s", scheme, name, len(notes), plan)
			}
			fmt.Fprintf(&plans, "== %s %s\n%s", scheme, name, groupKeyNote.ReplaceAllString(plan, "$1"))
		}
	}
	if os.Getenv("UPDATE_LOOKUP_PLANS") != "" {
		if err := os.WriteFile(lookupPlansPath, []byte(plans.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(lookupPlansPath)
	if err != nil {
		t.Fatalf("%v; regenerate with UPDATE_LOOKUP_PLANS=1", err)
	}
	if got := plans.String(); got != string(want) {
		t.Errorf("lookup-class plans differ from %s:\n%s", lookupPlansPath, firstDiff(string(want), got))
	}
}

// walkProfile calls fn on every node of a profile tree.
func walkProfile(nodes []*ProfileNode, fn func(*ProfileNode)) {
	for _, n := range nodes {
		fn(n)
		walkProfile(n.Children, fn)
	}
}

// TestNestedUnionBatchMarks: a UNION is marked batch only when it runs
// columnar. A batch-able UNION nested in a row UNION (one branch has an
// OPTIONAL) runs row by row, so neither EXPLAIN nor the profile marks
// it; nested in a batch UNION it is marked with its parent.
func TestNestedUnionBatchMarks(t *testing.T) {
	e := NewEngine(egoNetStore(t, 50, 3))
	for _, tc := range []struct {
		q       string
		batches int
	}{
		{`SELECT * WHERE { { { ?a rel:follows ?b } UNION { ?b rel:follows ?a } } UNION { ?a rel:follows ?b OPTIONAL { ?b rel:follows ?c } } }`, 0},
		{`SELECT * WHERE { { { ?a rel:follows ?b } UNION { ?b rel:follows ?a } } UNION { ?a rel:follows ?c } }`, 2},
	} {
		plan, err := e.Explain("", testPrologue+tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(plan, "Union (2 branches, batch):"); got != tc.batches || strings.Count(plan, "Union (2 branches") != 2 {
			t.Errorf("EXPLAIN marks %d Unions batch, want %d:\n%s", got, tc.batches, plan)
		}
		_, prof, err := e.QueryProfiled("", testPrologue+tc.q)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		walkProfile(prof.Plan, func(n *ProfileNode) {
			if n.Batch {
				got++
			}
		})
		if got != tc.batches {
			t.Errorf("profile marks %d Unions batch, want %d\n%s", got, tc.batches, tc.q)
		}
	}
}
