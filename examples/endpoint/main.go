// Endpoint: serve a PG-as-RDF dataset over the SPARQL 1.1 Protocol and
// query it as an HTTP client — the deployment shape an RDF-backed
// property graph service takes (the paper's §1: "RDF stores can serve as
// backend storage for large property graph datasets").
//
// The example:
//
//  1. generates a small ego-network dataset and loads it under NG,
//  2. starts the HTTP endpoint on an ephemeral port,
//  3. runs SELECT, ASK and update requests through the wire protocol,
//     decoding the SPARQL 1.1 JSON results format.
//
// Run with:
//
//	go run ./examples/endpoint
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"time"

	"repro/internal/bench"
	"repro/internal/guard"
	"repro/internal/httpapi"
	"repro/internal/sparql"
	"repro/internal/twitter"
)

func main() {
	// 1. Data: a small ego-network dataset under the NG scheme.
	env, err := bench.Setup(twitter.PaperConfig().Scale(0.01))
	check(err)
	fmt.Printf("dataset: %d nodes, %d edges; serving the NG store\n",
		env.GraphStats.Vertices, env.GraphStats.Edges)

	// 2. Serve on an ephemeral port, with explicit guardrails: a 5s
	// per-query deadline, a bounded admission queue, and a per-query
	// resource budget (see httpapi.Config for the knobs).
	cfg := httpapi.DefaultConfig()
	cfg.QueryTimeout = 5 * time.Second
	ln, err := net.Listen("tcp", "localhost:0")
	check(err)
	handler := httpapi.NewServerWithConfig(env.NG.Store, cfg)
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Println("endpoint:", base+"/sparql")

	// 3a. SELECT over the wire.
	q := `PREFIX k: <http://pg/k/>
SELECT ?n (COUNT(?t) AS ?tags) WHERE { ?n k:hasTag ?t } GROUP BY ?n ORDER BY DESC(?tags) LIMIT 3`
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(q) + "&model=" + env.NG.Names.NodeKV)
	check(err)
	res, _, err := httpapi.ParseResultsJSON(resp.Body)
	resp.Body.Close()
	check(err)
	fmt.Println("\nmost-tagged nodes (SELECT via HTTP):")
	for _, row := range res.Rows {
		fmt.Printf("  %s  %s tags\n", row[0].Value, row[1].Value)
	}

	// 3b. ASK over the wire.
	ask := `PREFIX r: <http://pg/r/> ASK { ?x r:follows ?y . ?y r:follows ?x }`
	resp, err = http.Get(base + "/sparql?query=" + url.QueryEscape(ask))
	check(err)
	_, mutualFollows, err := httpapi.ParseResultsJSON(resp.Body)
	resp.Body.Close()
	check(err)
	fmt.Printf("\nmutual follows exist (ASK via HTTP): %v\n", mutualFollows)

	// 3c. Update over the wire, then read it back. INSERT DATA runs as
	// INSERT { … } WHERE {} and must name a concrete model.
	resp, err = http.PostForm(base+"/update", url.Values{
		"update": {`INSERT DATA { <http://pg/n999999> <http://pg/k/name> "wire-inserted" }`},
		"model":  {env.NG.Names.NodeKV},
	})
	check(err)
	resp.Body.Close()
	verify := `SELECT ?s WHERE { ?s <http://pg/k/name> "wire-inserted" }`
	resp, err = http.Get(base + "/sparql?query=" + url.QueryEscape(verify))
	check(err)
	res, _, err = httpapi.ParseResultsJSON(resp.Body)
	resp.Body.Close()
	check(err)
	fmt.Printf("update visible over the wire: %d row(s)\n", res.Len())

	// 3d. Guardrails: an adversarial cross join is stopped by the
	// engine's budget/deadline instead of taking the endpoint down.
	handler.Config() // effective limits, if you want to inspect them
	eng := sparql.NewEngine(env.NG.Store)
	eng.Limits = guard.Budget{Timeout: 100 * time.Millisecond}
	_, err = eng.QueryContext(context.Background(), "", `SELECT * WHERE { ?a ?p ?b . ?c ?q ?d . ?e ?r ?f }`)
	fmt.Printf("unbounded cross join with 100ms budget: %v (timeout=%v)\n",
		err, errors.Is(err, guard.ErrTimeout))

	// 4. Graceful drain: shed new arrivals, let in-flight finish.
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	check(handler.Drain(dctx))
	check(srv.Close())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
