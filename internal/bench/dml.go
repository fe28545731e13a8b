package bench

import (
	"fmt"
	"time"

	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
)

// This file implements the DML study the paper defers (§2.1: "the key
// performance metric that distinguishes the three approaches is time
// taken to locate existing quads to delete... We will consequently focus
// on query performance and leave a detailed study of DML performance for
// future work").
//
// The experiment removes and re-adds a sample of edges (with their edge
// KVs) under each scheme through SPARQL Update, measuring per-edge cost.
// NG touches 1 topology quad + k KV quads per edge; SP touches 3 triples
// + k KVs; RF 4 triples + k KVs — the same per-edge multiplicities that
// drive the query results.

// DMLExtension measures edge delete+reinsert round-trips per scheme.
func DMLExtension(env *Env, sampleSize int) *Table {
	t := &Table{ID: "Extension: DML", Title: "Edge delete + reinsert round-trip (the paper's deferred DML study)",
		Head: []string{"scheme", "edges", "quads touched", "delete", "reinsert", "per edge"}}

	// Sample edges deterministically: every k-th edge.
	var sample []*pg.Edge
	stride := env.GraphStats.Edges / sampleSize
	if stride < 1 {
		stride = 1
	}
	i := 0
	env.Graph.Edges(func(e *pg.Edge) bool {
		if i%stride == 0 && len(sample) < sampleSize {
			sample = append(sample, e)
		}
		i++
		return len(sample) < sampleSize
	})

	for _, se := range env.SchemeEnvs() {
		conv := &pgrdf.Converter{Scheme: se.Scheme, Vocab: Vocab(), Opts: pgrdf.DefaultOptions()}
		// Build the per-edge quad groups using a single-edge graph each,
		// so the emitted shapes match exactly what was loaded. Each quad
		// is placed in the model of the partition Convert put it in.
		type placed struct {
			model string
			q     rdf.Quad
		}
		perEdge := make([][]placed, 0, len(sample))
		totalQuads := 0
		for _, e := range sample {
			ds := edgeDataset(conv, e)
			var quads []placed
			for _, q := range ds.Topology {
				quads = append(quads, placed{se.Names.Topology, q})
			}
			for _, q := range ds.EdgeKV {
				quads = append(quads, placed{se.Names.EdgeKV, q})
			}
			perEdge = append(perEdge, quads)
			totalQuads += len(quads)
		}

		start := time.Now()
		deleted := 0
		for _, quads := range perEdge {
			for _, p := range quads {
				ok, err := se.Store.Delete(p.model, p.q)
				if err != nil {
					t.AddNote("%s delete error: %v", se.Scheme, err)
					return t
				}
				if ok {
					deleted++
				}
			}
		}
		delDur := time.Since(start)

		start = time.Now()
		for _, quads := range perEdge {
			for _, p := range quads {
				if _, err := se.Store.Insert(p.model, p.q); err != nil {
					t.AddNote("%s insert error: %v", se.Scheme, err)
					return t
				}
			}
		}
		insDur := time.Since(start)
		se.Store.Compact()

		if deleted != totalQuads {
			t.AddNote("%s: deleted %d of %d quads (unexpected)", se.Scheme, deleted, totalQuads)
		}
		t.AddRow(se.Scheme.String(), fmt.Sprint(len(sample)), fmt.Sprint(totalQuads),
			fmtDur(delDur), fmtDur(insDur),
			fmt.Sprintf("%.1fµs", float64((delDur+insDur).Microseconds())/float64(len(sample))))
	}
	t.AddNote("NG touches 1+k quads per edge, SP 3+k (k = edge KVs): SP pays the same extra-triple tax on DML as on queries")
	return t
}

// edgeDataset converts a graph holding just edge e and its endpoints,
// without their KVs: its Topology and EdgeKV partitions are the quads e
// contributes (endpoints with an edge get no isolated-vertex marker).
func edgeDataset(conv *pgrdf.Converter, e *pg.Edge) *pgrdf.Dataset {
	tmp := pg.NewGraph()
	mustAdd := func(id pg.ID) {
		if tmp.Vertex(id) == nil {
			if _, err := tmp.AddVertexWithID(id); err != nil {
				panic(err)
			}
		}
	}
	mustAdd(e.Src)
	mustAdd(e.Dst)
	ne, err := tmp.AddEdgeWithID(e.ID, e.Src, e.Dst, e.Label)
	if err != nil {
		panic(err)
	}
	for _, k := range e.Keys() {
		for _, v := range e.Values(k) {
			ne.AddProperty(k, v)
		}
	}
	return conv.Convert(tmp)
}
