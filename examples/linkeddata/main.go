// Linkeddata: the §5.2 scenario — once property-graph data is RDF, it
// can be linked to community datasets and enriched with OWL inference.
//
// The example:
//
//  1. builds a tiny Twitter-like property graph whose nodes carry
//     #train and #Tampa tags, transformed with the NG scheme;
//  2. loads a bundled synthetic WordNet fragment (synsets with sense
//     labels: train/educate/prepare) and links it via owl:sameAs, then
//     answers "find nodes tagged with any synonym of 'train'" by query
//     term expansion — the paper finds 6 direct + 13 expanded results;
//  3. loads a synthetic CIA World Factbook fragment (USA borders
//     Canada/Mexico, Tampa is a US port), runs the paper's user-defined
//     rule to infer :hasTagR edges from tagged nodes to neighboring
//     countries, and queries the inferred model.
//
// Run with:
//
//	go run ./examples/linkeddata
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/inference"
	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

const (
	wnNS = "http://wordnet/"
	fbNS = "http://factbook/"
)

func main() {
	// --- 1. Property graph -> RDF (NG scheme). -----------------------
	g := pg.NewGraph()
	tags := map[int][]string{
		1: {"#train"}, 2: {"#train", "#Tampa"}, 3: {"#educate"},
		4: {"#prepare"}, 5: {"#Tampa"}, 6: {"#beach"},
	}
	for id := 1; id <= len(tags); id++ {
		v, err := g.AddVertexWithID(pg.ID(id))
		check(err)
		v.SetProperty("name", pg.S(fmt.Sprintf("user%d", id)))
		for _, tag := range tags[id] {
			v.AddProperty("hasTag", pg.S(tag))
		}
	}
	_, err := g.AddEdge(1, 2, "follows")
	check(err)

	st, err := pgrdf.NewStore(pgrdf.NG)
	check(err)
	conv := pgrdf.NewConverter(pgrdf.NG)
	ds := conv.Convert(g)
	_, err = pgrdf.LoadPartitioned(st, ds, "twitter")
	check(err)
	eng := sparql.NewEngine(st)

	// --- 2. WordNet linking + query term expansion. -------------------
	check2(st.Load("wordnet", wordnetFragment()))

	// The paper's query: tags matching any sense label in the synset of
	// the word "train".
	query := `
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX wn: <` + wnNS + `>
PREFIX k: <http://pg/k/>
SELECT ?n ?y WHERE {
  ?w wn:senseLabel "train"@en-us .
  ?w rdfs:label ?label .
  ?n k:hasTag ?y
  FILTER (STR(?y) = CONCAT("#", STR(?label)))
}`
	check2(0, queryAndPrint(eng, "", "nodes tagged with a synonym of 'train'", query))

	// --- 3. Factbook + user-defined rule (:hasTagR). ------------------
	check2(st.Load("factbook", factbookFragment()))

	inf := inference.New(st)
	for _, r := range inference.OWLRules() {
		check(inf.AddRule(r))
	}
	// The paper's rule: a node tagged #Tampa gets :hasTagR links to the
	// countries neighboring Tampa's country (via ports + nbr chain).
	check(inf.AddRule(inference.Rule{
		Name: "hasTagR",
		Body: []inference.TriplePattern{
			{S: "?n", P: "<http://pg/k/hasTag>", O: `"#Tampa"`},
			{S: "?c", P: "<" + fbNS + "ports>", O: "<" + fbNS + "Tampa>"},
			{S: "?c", P: "<" + fbNS + "nbr>", O: "?other"},
		},
		Head: []inference.TriplePattern{
			{S: "?n", P: "<http://pg/k/hasTagR>", O: "?other"},
		},
	}))
	n, err := inf.Run(context.Background(), "", "inferred", inference.Options{})
	check(err)
	fmt.Printf("inference: %d new triples\n\n", n)

	check2(0, queryAndPrint(eng, "", "inferred hasTagR links to neighboring countries", `
PREFIX k: <http://pg/k/>
SELECT ?n ?country WHERE { ?n k:hasTagR ?country }`))
}

// wordnetFragment is a bundled stand-in for the WordNet RDF dataset: one
// synset grouping train/educate/prepare under the sense label "train".
func wordnetFragment() []rdf.Quad {
	synset := rdf.NewIRI(wnNS + "synset-train-v-1")
	label := func(s string) rdf.Quad {
		return rdf.Quad{S: synset, P: rdf.NewIRI(rdf.RDFSLabel), O: rdf.NewLiteral(s)}
	}
	return []rdf.Quad{
		{S: synset, P: rdf.NewIRI(wnNS + "senseLabel"), O: rdf.NewLangLiteral("train", "en-us")},
		label("train"), label("educate"), label("prepare"),
	}
}

// factbookFragment is a bundled stand-in for the CIA World Factbook RDF:
// USA has port Tampa and borders Canada and Mexico.
func factbookFragment() []rdf.Quad {
	usa := rdf.NewIRI(fbNS + "USA")
	return []rdf.Quad{
		{S: usa, P: rdf.NewIRI(fbNS + "ports"), O: rdf.NewIRI(fbNS + "Tampa")},
		{S: usa, P: rdf.NewIRI(fbNS + "nbr"), O: rdf.NewIRI(fbNS + "Canada")},
		{S: usa, P: rdf.NewIRI(fbNS + "nbr"), O: rdf.NewIRI(fbNS + "Mexico")},
	}
}

func queryAndPrint(eng *sparql.Engine, model, what, q string) error {
	res, err := eng.QueryContext(context.Background(), model, q)
	if err != nil {
		return err
	}
	fmt.Printf("== %s (%d rows) ==\n", what, res.Len())
	for _, row := range res.Rows {
		for i, t := range row {
			if i > 0 {
				fmt.Print("  ")
			}
			fmt.Print(t.String())
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func check2(_ int, err error) { check(err) }
