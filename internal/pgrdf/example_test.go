package pgrdf_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/sparql"
)

// ExampleConverter_Convert shows the Figure 1 graph under the named-graph
// scheme: one quad per edge, edge KVs clustered into the edge's graph.
func ExampleConverter_Convert() {
	g := pg.NewGraph()
	v1, _ := g.AddVertexWithID(1)
	v1.SetProperty("name", pg.S("Amy"))
	g.AddVertexWithID(2)
	e, _ := g.AddEdgeWithID(3, 1, 2, "follows")
	e.SetProperty("since", pg.I(2007))

	ds := pgrdf.NewConverter(pgrdf.NG).Convert(g)
	for _, q := range ds.Topology {
		fmt.Println(q)
	}
	for _, q := range ds.EdgeKV {
		fmt.Println(q)
	}
	// Output:
	// <http://pg/v1> <http://pg/r/follows> <http://pg/v2> <http://pg/e3>
	// <http://pg/e3> <http://pg/k/since> "2007"^^<http://www.w3.org/2001/XMLSchema#int> <http://pg/e3>
}

// ExampleQueryBuilder shows the §2.3 query formulation rules producing
// the subproperty-scheme pattern for edge-KV access.
func ExampleQueryBuilder() {
	qb := pgrdf.NewQueryBuilder(pgrdf.SP)
	fmt.Println(qb.EdgeBoundKVPattern("x", "y", "e", "follows", "since", "yr"))
	// Output:
	// ?x ?e ?y . ?e rdfs:subPropertyOf rel:follows . ?e key:since ?yr .
}

// ExampleLoadPartitioned runs the full pipeline: convert, load into
// partitioned semantic models, query with SPARQL.
func ExampleLoadPartitioned() {
	g := pg.NewGraph()
	v1, _ := g.AddVertexWithID(1)
	v1.SetProperty("name", pg.S("Amy"))
	v2, _ := g.AddVertexWithID(2)
	v2.SetProperty("name", pg.S("Mira"))
	g.AddEdgeWithID(3, 1, 2, "follows")

	st, err := pgrdf.NewStore(pgrdf.NG)
	if err != nil {
		log.Fatal(err)
	}
	names, err := pgrdf.LoadPartitioned(st, pgrdf.NewConverter(pgrdf.NG).Convert(g), "demo")
	if err != nil {
		log.Fatal(err)
	}
	res, err := sparql.NewEngine(st).QueryContext(context.Background(), names.All, `
		PREFIX rel: <http://pg/r/>
		PREFIX key: <http://pg/k/>
		SELECT ?who WHERE { ?x rel:follows ?y . ?y key:name ?who }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Rows[0][0].Value)
	// Output:
	// Mira
}

// ExamplePredictCardinalities evaluates the Table 2 formulas.
func ExamplePredictCardinalities() {
	g := pg.NewGraph()
	v1, _ := g.AddVertexWithID(1)
	v1.SetProperty("name", pg.S("Amy"))
	g.AddVertexWithID(2)
	g.AddEdgeWithID(3, 1, 2, "follows")
	g.AddEdgeWithID(4, 1, 2, "knows")

	c := pgrdf.PredictCardinalities(g.ComputeStats(), pgrdf.SP)
	fmt.Printf("obj-prop triples: %d (3 per edge)\n", c.ObjPropQuads)
	fmt.Printf("distinct obj-properties: %d (eL + E + 1)\n", c.DistinctObjProps)
	// Output:
	// obj-prop triples: 6 (3 per edge)
	// distinct obj-properties: 5 (eL + E + 1)
}
