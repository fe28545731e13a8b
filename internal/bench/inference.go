package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/inference"
	"repro/internal/rdf"
)

// InferenceExtension exercises §5.2 at dataset scale: map the
// property-graph relationship predicates into a small ontology
// (rel:follows and rel:knows are subproperties of rel:connectedTo),
// pre-compute the RDFS entailment with the forward-chaining engine into
// an "inferred" model — Oracle's native-inference workflow — and show
// that a single-predicate SPARQL query over the virtual (asserted +
// inferred) dataset replaces the alternation query EQ9/EQ10 use.
func InferenceExtension(ctx context.Context, env *Env) *Table {
	t := &Table{ID: "Extension: Inference", Title: "RDFS subproperty entailment over the transformed dataset (§5.2)",
		Head: []string{"quantity", "value"}}
	se := env.NG
	vocab := Vocab()
	connectedTo := rdf.NewIRI(vocab.RelNS + "connectedTo")
	subPropertyOf := rdf.NewIRI(rdf.RDFSSubPropertyOf)

	// The ontology: both PG edge labels are subproperties of connectedTo.
	ont := []rdf.Quad{
		{S: vocab.LabelIRI("follows"), P: subPropertyOf, O: connectedTo},
		{S: vocab.LabelIRI("knows"), P: subPropertyOf, O: connectedTo},
	}
	if _, err := se.Store.Load("ontology", ont); err != nil {
		t.AddNote("load error: %v", err)
		return t
	}

	eng := inference.New(se.Store)
	// Only the subproperty-usage rule is needed; restrict the rule set
	// so fixpoint iteration stays linear in the entailment size.
	if err := eng.AddRule(inference.Rule{
		Name: "subPropertyOf-usage",
		Body: []inference.TriplePattern{
			{S: "?p", P: "<" + rdf.RDFSSubPropertyOf + ">", O: "?q"},
			{S: "?s", P: "?p", O: "?o"},
		},
		Head: []inference.TriplePattern{{S: "?s", P: "?q", O: "?o"}},
	}); err != nil {
		t.AddNote("rule error: %v", err)
		return t
	}

	// The entailment source spans topology plus the ontology. Ignore
	// already-exists errors so the experiment is rerunnable on one env.
	if _, err := se.Store.View().ResolveDataset("topo_ont"); err != nil {
		if err := se.Store.CreateVirtualModel("topo_ont", se.Names.Topology, "ontology"); err != nil {
			t.AddNote("virtual model error: %v", err)
			return t
		}
	}
	start := time.Now()
	n, err := eng.Run("topo_ont", "inferred", inference.Options{})
	if err != nil {
		t.AddNote("run error: %v", err)
		return t
	}
	dur := time.Since(start)

	// Query the enriched dataset: one plain predicate instead of the
	// (knows|follows) alternation.
	if _, err := se.Store.View().ResolveDataset("topo_inferred"); err != nil {
		if err := se.Store.CreateVirtualModel("topo_inferred", se.Names.Topology, "inferred"); err != nil {
			t.AddNote("virtual model error: %v", err)
			return t
		}
	}
	q := `PREFIX rel: <` + vocab.RelNS + `>
SELECT (COUNT(*) AS ?c) WHERE { ?x rel:connectedTo ?y }`
	durQ, count, err := RunTimed(ctx, se.Engine, "topo_inferred", q)
	if err != nil {
		t.AddNote("query error: %v", err)
		return t
	}

	t.AddRow("topology edges", fmt.Sprint(env.GraphStats.Edges))
	t.AddRow("inferred triples", fmt.Sprint(n))
	t.AddRow("entailment time", dur.Round(time.Millisecond).String())
	t.AddRow("connectedTo count (asserted+inferred)", fmt.Sprint(count))
	t.AddRow("connectedTo query time", fmtDur(durQ))
	t.AddNote("inferred ≈ one rel:connectedTo triple per topology edge (vertex pairs linked by both labels dedupe)")
	return t
}
