// Package repro is a from-scratch Go reproduction of "A Tale of Two
// Graphs: Property Graphs as RDF in Oracle" (Das, Srinivasan, Perry,
// Chong, Banerjee — EDBT 2014).
//
// The paper shows that RDF stores can serve as property-graph backends:
// it proposes three PG-as-RDF transformation schemes — reification (RF),
// named graphs (NG) and subproperties (SP) — and evaluates them on a
// Twitter social-network dataset inside Oracle Database 12c.
//
// This repository rebuilds the entire stack in Go:
//
//   - internal/rdf        — RDF 1.1 terms, triples, quads, XSD values
//   - internal/ntriples   — N-Triples / N-Quads parsing + serialization
//   - internal/store      — an Oracle-style ID-based quad store with
//     semantic-network indexes, models-as-partitions and virtual models
//   - internal/sparql     — a SPARQL 1.1 subset engine (BGPs, GRAPH,
//     FILTER, property paths, aggregates, sub-selects, updates) with
//     adaptive index nested-loop / hash join execution
//   - internal/pg         — the property graph model + relational form
//   - internal/pgrdf      — the paper's contribution: RF/NG/SP schemes,
//     cardinality formulas, partitioned loading, query formulation
//   - internal/inference  — RDFS/OWL-subset forward chaining (§5.2)
//   - internal/twitter    — synthetic ego-network dataset generator
//   - internal/bench      — harness checking the paper's shape claims
//     as exact-count predicates (claims.go, BENCH_paper.json)
//
// See README.md for a tour, DESIGN.md for the architecture and
// EXPERIMENTS.md for paper-vs-measured results. The root-level
// bench_test.go exposes one testing.B benchmark per query figure
// (Figures 5–9) plus the ablations.
package repro
