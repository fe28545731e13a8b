// Quickstart: build the paper's Figure 1 property graph, transform it to
// RDF under all three PG-as-RDF models (reification, named-graph,
// subproperty), load each into the Oracle-style quad store, and run the
// §2.1 query — "who follows whom since when?" — in each model's SPARQL
// formulation.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/sparql"
)

func main() {
	// 1. Build the Figure 1 property graph.
	g := pg.NewGraph()
	v1, err := g.AddVertexWithID(1)
	check(err)
	v2, err := g.AddVertexWithID(2)
	check(err)
	v1.SetProperty("name", pg.S("Amy"))
	v1.SetProperty("age", pg.I(23))
	v2.SetProperty("name", pg.S("Mira"))
	v2.SetProperty("age", pg.I(22))
	follows, err := g.AddEdgeWithID(3, 1, 2, "follows")
	check(err)
	follows.SetProperty("since", pg.I(2007))
	knows, err := g.AddEdgeWithID(4, 1, 2, "knows")
	check(err)
	knows.SetProperty("firstMetAt", pg.S("MIT"))

	fmt.Printf("property graph: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())

	for _, scheme := range pgrdf.Schemes {
		fmt.Printf("=== %s scheme ===\n", scheme)

		// 2. Transform to RDF (Table 1 shapes).
		conv := pgrdf.NewConverter(scheme)
		ds := conv.Convert(g)
		for _, q := range ds.All() {
			fmt.Println(" ", q)
		}

		// 3. Load into a store with the scheme's recommended indexes,
		// partitioned into topology / node-KV / edge-KV models (§3.2).
		st, err := pgrdf.NewStore(scheme)
		check(err)
		names, err := pgrdf.LoadPartitioned(st, ds, "fig1")
		check(err)

		// 4. Ask "who follows whom since when?" using the scheme's
		// query formulation (§2.1 / Table 3 rules).
		qb := pgrdf.NewQueryBuilder(scheme)
		query := qb.Select(
			[]string{"xname", "yname", "yr"},
			qb.EdgeBoundKVPattern("x", "y", "e", "follows", "since", "yr"),
			qb.NodeKVPattern("x", "name", "xname"),
			qb.NodeKVPattern("y", "name", "yname"),
		)
		fmt.Println("\nSPARQL:")
		fmt.Println(query)

		res, err := sparql.NewEngine(st).QueryContext(context.Background(), names.All, query)
		check(err)
		for _, row := range res.Rows {
			fmt.Printf("-> %s follows %s since %s\n", row[0].Value, row[1].Value, row[2].Value)
		}
		fmt.Println()
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
