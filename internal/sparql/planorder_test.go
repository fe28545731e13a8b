package sparql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func estFixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	for i := 0; i < 2; i++ {
		if _, err := st.Insert("m", rdf.Quad{
			S: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)),
			P: rdf.NewIRI("http://pg/k/rare"),
			O: rdf.NewLiteral(fmt.Sprintf("r%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := st.Insert("m", rdf.Quad{
			S: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)),
			P: rdf.NewIRI("http://pg/k/common"),
			O: rdf.NewLiteral(fmt.Sprintf("c%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestPlanReordersAfterBulkInsert: the greedy join-order optimizer
// reads cardinality estimates from the view a query pins, so the first
// plan after a successful Update sees the skewed selectivities.
func TestPlanReordersAfterBulkInsert(t *testing.T) {
	st := estFixture(t)
	e := NewEngine(st)
	const q = `SELECT ?s WHERE { ?s <http://pg/k/rare> ?a . ?s <http://pg/k/common> ?b }`

	order := func() (rare, common int) {
		t.Helper()
		plan, err := e.Explain("m", q)
		if err != nil {
			t.Fatal(err)
		}
		rare = strings.Index(plan, "k/rare")
		common = strings.Index(plan, "k/common")
		if rare < 0 || common < 0 {
			t.Fatalf("plan lacks the patterns:\n%s", plan)
		}
		return rare, common
	}

	// 2 rare vs 8 common rows: rare leads.
	if r, c := order(); r > c {
		t.Fatal("selective pattern not ordered first before the bulk insert")
	}

	var ins strings.Builder
	ins.WriteString("INSERT DATA {\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&ins, "<http://pg/bulk%d> <http://pg/k/rare> \"b%d\" .\n", i, i)
	}
	ins.WriteString("}")
	if res, err := e.Update("m", ins.String()); err != nil || res.Inserted != 100 {
		t.Fatalf("bulk insert: %+v, %v", res, err)
	}

	// Now 102 rare vs 8 common rows: the plan must flip.
	if r, c := order(); r < c {
		t.Fatal("plan did not re-order after a bulk insert skewed selectivities")
	}
}
