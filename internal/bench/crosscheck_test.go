package bench

import (
	"context"
	"testing"

	"repro/internal/pg"
)

// TestEQ12MatchesInMemoryTriangles cross-validates the SPARQL triangle
// count (EQ12) against the directed follows 3-cycles of the generated
// property graph, counted here over adjacency sets. Each cycle counts
// once per rotation, as EQ12's bindings do.
func TestEQ12MatchesInMemoryTriangles(t *testing.T) {
	env := sharedEnv(t)
	_, sparqlCount, err := RunTimed(context.Background(), env.NG.Engine, TargetModelFor(env.NG, "EQ12"), env.Queries()["EQ12"])
	if err != nil {
		t.Fatal(err)
	}
	follows := make(map[pg.ID]map[pg.ID]bool)
	env.Graph.Edges(func(e *pg.Edge) bool {
		if e.Label == "follows" {
			if follows[e.Src] == nil {
				follows[e.Src] = make(map[pg.ID]bool)
			}
			follows[e.Src][e.Dst] = true
		}
		return true
	})
	cycles := 0
	for x, xs := range follows {
		for y := range xs {
			for z := range follows[y] {
				if follows[z][x] {
					cycles++
				}
			}
		}
	}
	if sparqlCount != cycles {
		t.Fatalf("EQ12 = %d but in-memory count = %d", sparqlCount, cycles)
	}
}

// TestEQ9MatchesInMemoryDegrees cross-validates the EQ9 in-degree
// distribution row count against a direct computation.
func TestEQ9MatchesInMemoryDegrees(t *testing.T) {
	env := sharedEnv(t)
	_, rows, err := RunTimed(context.Background(), env.NG.Engine, TargetModelFor(env.NG, "EQ9"), env.Queries()["EQ9"])
	if err != nil {
		t.Fatal(err)
	}
	_, in := env.Graph.DegreeDistribution()
	distinct := 0
	for deg := range in {
		if deg > 0 {
			distinct++
		}
	}
	if rows != distinct {
		t.Fatalf("EQ9 rows = %d but distinct positive in-degrees = %d", rows, distinct)
	}
}
