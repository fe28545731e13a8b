// Socialnetwork: generate a synthetic Twitter-like ego-network dataset
// (the paper's §4.2 construction), load it under both the NG and SP
// schemes, and run a tour of the paper's experiment queries — node
// lookups, edge-KV access, degree aggregates, multi-hop path counting
// and triangle counting — reporting times and access plans.
//
// Run with:
//
//	go run ./examples/socialnetwork [-scale 0.02]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/pgrdf"
	"repro/internal/twitter"
)

func main() {
	scale := flag.Float64("scale", 0.02, "dataset scale relative to the paper's 973 egos")
	flag.Parse()

	cfg := twitter.PaperConfig().Scale(*scale)
	fmt.Printf("generating %d ego networks...\n", cfg.Egos)
	env, err := bench.Setup(cfg)
	if err != nil {
		log.Fatal(err)
	}
	st := env.GraphStats
	fmt.Printf("graph: %d nodes, %d edges, %d node KVs, %d edge KVs\n",
		st.Vertices, st.Edges, st.NodeKVs, st.EdgeKVs)
	fmt.Printf("tag analogue for #webseries: %s (%d nodes)\n", env.Tag, env.TagNodeCount)
	fmt.Printf("EQ11 start node: %s\n\n", env.StartNode)

	queries := env.Queries()

	// Node-centric: who carries the tag, who follows them (EQ1, EQ2).
	runBoth(env, queries, "EQ1", "nodes with the tag")
	runBoth(env, queries, "EQ2", "followers of tagged nodes")

	// Edge-centric: edges carrying the tag as an edge KV, in each
	// scheme's own formulation (EQ5a for NG, EQ5b for SP).
	runOne(env.NG, queries, "EQ5a", "NG: edges with the tag (named-graph access)")
	runOne(env.SP, queries, "EQ5b", "SP: edges with the tag (subproperty access)")
	runOne(env.NG, queries, "EQ8a", "NG: all KVs of tagged edges")
	runOne(env.SP, queries, "EQ8b", "SP: all KVs of tagged edges")

	// Aggregates: degree distributions (EQ9, EQ10).
	runBoth(env, queries, "EQ9", "in-degree distribution")
	runBoth(env, queries, "EQ10", "out-degree distribution")

	// Traversal: 1..3 hop path counts from the start node.
	for _, name := range []string{"EQ11a", "EQ11b", "EQ11c"} {
		runBoth(env, queries, name, "path counting "+name)
	}

	// Triangles (EQ12).
	runBoth(env, queries, "EQ12", "follows-triangle count")

	// Show an access plan the way Table 5 does.
	fmt.Println("== access plan for EQ1 (NG) ==")
	plan, err := env.NG.Engine.Explain(bench.TargetModelFor(env.NG, "EQ1"), queries["EQ1"])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)

	// Graph analytics (the workload the paper's §1 attributes to native
	// graph databases) straight off the RDF store: project the NG dataset
	// into a CSR and run the morsel-parallel algorithms that `pgrdf algo`
	// and POST /algo expose. Results are identical under any scheme and
	// any parallelism (see DESIGN.md §17).
	fmt.Println("== CSR analytics over the RDF store (pgrdf algo path) ==")
	start := time.Now()
	cs, err := graph.Project(context.Background(), env.NG.Store, graph.ProjectOptions{
		Model:   env.NG.Names.All,
		Scheme:  pgrdf.NG,
		Reverse: true,
	}, graph.Budget{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("projected %d vertices, %d edges in %s\n",
		cs.NumVertices(), cs.NumEdges(), time.Since(start).Round(time.Microsecond))
	runner := graph.Runner{}
	pr, err := runner.PageRank(context.Background(), cs, graph.PageRankOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range graph.TopScores(cs, pr.Scores, 3) {
		fmt.Printf("PageRank #%d: %s (%.5f)\n", i+1, r.Term, r.Score)
	}
	wcc, err := runner.WCC(context.Background(), cs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weakly connected components: %d\n", wcc.Components)
}

func runBoth(env *bench.Env, queries map[string]string, name, what string) {
	runOne(env.NG, queries, name, "NG: "+what)
	runOne(env.SP, queries, name, "SP: "+what)
}

func runOne(se *bench.SchemeEnv, queries map[string]string, name, what string) {
	model := bench.TargetModelFor(se, name)
	start := time.Now()
	res, err := se.Engine.Query(model, queries[name])
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	fmt.Printf("%-8s %-55s %7d rows in %8s\n", name, what, res.Len(), time.Since(start).Round(time.Microsecond))
}
