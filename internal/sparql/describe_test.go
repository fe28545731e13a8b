package sparql

import (
	"testing"
)

func TestDescribeConstant(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	quads, err := describeQuery(t, e, `DESCRIBE <http://pg/v1>`)
	if err != nil {
		t.Fatal(err)
	}
	// v1 is subject of: follows quad, knows quad, name, age = 4 quads;
	// it never occurs as object.
	if len(quads) != 4 {
		t.Fatalf("described %d quads: %v", len(quads), quads)
	}
	for _, q := range quads {
		if q.S.Value != "http://pg/v1" {
			t.Errorf("unexpected quad %v", q)
		}
	}
}

func TestDescribeVariable(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	quads, err := describeQuery(t, e, testPrologue+`DESCRIBE ?x WHERE { ?x key:name "Mira" }`)
	if err != nil {
		t.Fatal(err)
	}
	// v2: subject of name + age; object of follows and knows quads.
	if len(quads) != 4 {
		t.Fatalf("described %d quads: %v", len(quads), quads)
	}
	sawAsObject := false
	for _, q := range quads {
		if q.O.Value == "http://pg/v2" {
			sawAsObject = true
		}
	}
	if !sawAsObject {
		t.Error("description should include quads with the resource as object")
	}
}

func TestDescribeMultipleAndUnknown(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	quads, err := describeQuery(t, e, `DESCRIBE <http://pg/v1> <http://never/seen>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(quads) != 4 {
		t.Fatalf("described %d quads", len(quads))
	}
	// No targets at all is a parse error.
	if _, err := describeQuery(t, e, `DESCRIBE WHERE { ?x ?p ?y }`); err == nil {
		t.Error("DESCRIBE without targets accepted")
	}
}

func TestDescribeDeterministicOrder(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	a, err := describeQuery(t, e, `DESCRIBE <http://pg/v1> <http://pg/v2>`)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := describeQuery(t, e, `DESCRIBE <http://pg/v2> <http://pg/v1>`)
	if len(a) != len(b) {
		t.Fatalf("order-dependent result size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
