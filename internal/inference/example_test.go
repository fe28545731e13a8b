package inference_test

import (
	"context"
	"fmt"

	"repro/internal/inference"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// ExampleEngine_Run infers the RDFS closure of four asserted quads. The
// rules read the dataset "" (every model), which includes the
// destination model "inferred", so triples inferred in one round feed
// the next; the asserted model is left as it was.
func ExampleEngine_Run() {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	sub := rdf.NewIRI(rdf.RDFSSubPropertyOf)
	st := store.New()
	if _, err := st.Load("asserted", []rdf.Quad{
		{S: ex("alice"), P: ex("follows"), O: ex("bob")},
		{S: ex("bob"), P: ex("follows"), O: ex("carol")},
		{S: ex("follows"), P: sub, O: ex("knows")},
		{S: ex("knows"), P: sub, O: ex("related")},
	}); err != nil {
		panic(err)
	}
	eng := inference.New(st)
	for _, r := range inference.RDFSRules() {
		if err := eng.AddRule(r); err != nil {
			panic(err)
		}
	}
	ctx := context.Background()
	n, err := eng.Run(ctx, "", "inferred", inference.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("inferred", n)
	res, err := sparql.NewEngine(st).QueryContext(ctx, "inferred",
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?p ?s`)
	if err != nil {
		panic(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0], row[1], row[2])
	}
	// Output:
	// inferred 5
	// <http://ex/alice> <http://ex/knows> <http://ex/bob>
	// <http://ex/bob> <http://ex/knows> <http://ex/carol>
	// <http://ex/alice> <http://ex/related> <http://ex/bob>
	// <http://ex/bob> <http://ex/related> <http://ex/carol>
	// <http://ex/follows> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://ex/related>
}
