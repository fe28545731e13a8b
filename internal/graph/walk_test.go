package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
)

// traversalGraph is a seeded random property graph holding every shape
// a traversal has to get right: parallel edges of one label, one pair
// under two labels, self-loops, edges with and without KVs, and
// isolated vertices.
func traversalGraph(t *testing.T, seed int64) *pg.Graph {
	t.Helper()
	const nv, isolated = 30, 3
	rng := rand.New(rand.NewSource(seed))
	g := pg.NewGraph()
	for i := 1; i <= nv+isolated; i++ {
		if _, err := g.AddVertexWithID(pg.ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	edge := func(src, dst pg.ID, label string) {
		e, err := g.AddEdge(src, dst, label)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			e.SetProperty("since", pg.I(int64(2000+rng.Intn(20))))
		}
	}
	for i := 0; i < 90; i++ {
		edge(pg.ID(rng.Intn(nv)+1), pg.ID(rng.Intn(nv)+1), []string{"follows", "knows"}[rng.Intn(2)])
	}
	edge(1, 2, "follows")
	edge(1, 2, "follows")
	edge(1, 2, "knows")
	edge(2, 3, "follows")
	edge(3, 3, "follows")
	return g
}

// nativeAdjacency reads g's edges with the label ("" = any) straight
// off the property graph, collapsed to distinct (src, dst) pairs: each
// vertex's out-neighbours in the canonical order of their IRIs.
func nativeAdjacency(g *pg.Graph, vocab pgrdf.Vocabulary, label string) map[pg.ID][]pg.ID {
	adj := map[pg.ID][]pg.ID{}
	g.Vertices(func(v *pg.Vertex) bool {
		var out []pg.ID
		for _, e := range g.OutEdges(v.ID) {
			if (label == "" || e.Label == label) && !slices.Contains(out, e.Dst) {
				out = append(out, e.Dst)
			}
		}
		slices.SortFunc(out, func(a, b pg.ID) int { return rdf.Compare(vocab.VertexIRI(a), vocab.VertexIRI(b)) })
		adj[v.ID] = out
		return true
	})
	return adj
}

// nativeWalk enumerates the paths of minLen..maxLen edges from start,
// depth first in adjacency order, rendered as vertex IRIs.
func nativeWalk(adj map[pg.ID][]pg.ID, vocab pgrdf.Vocabulary, start pg.ID, minLen, maxLen int) []string {
	var out []string
	path := []pg.ID{start}
	var walk func()
	walk = func() {
		n := len(path) - 1
		if n >= minLen {
			out = append(out, renderIDs(vocab, path))
		}
		if n == maxLen {
			return
		}
		for _, w := range adj[path[n]] {
			path = append(path, w)
			walk()
			path = path[:n+1]
		}
	}
	walk()
	return out
}

// nativeShortest is a breadth-first search expanding adjacency in order;
// "" when dst is unreachable.
func nativeShortest(adj map[pg.ID][]pg.ID, vocab pgrdf.Vocabulary, src, dst pg.ID) string {
	prev := map[pg.ID]pg.ID{src: src}
	for frontier := []pg.ID{src}; len(frontier) > 0; {
		var next []pg.ID
		for _, v := range frontier {
			for _, w := range adj[v] {
				if _, seen := prev[w]; !seen {
					prev[w] = v
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	if _, ok := prev[dst]; !ok {
		return ""
	}
	path := []pg.ID{dst}
	for v := dst; v != src; v = prev[v] {
		path = append(path, prev[v])
	}
	slices.Reverse(path)
	return renderIDs(vocab, path)
}

func renderIDs(vocab pgrdf.Vocabulary, path []pg.ID) string {
	parts := make([]string, len(path))
	for i, v := range path {
		parts[i] = vocab.VertexIRI(v).String()
	}
	return strings.Join(parts, " ")
}

func renderPath(cs *CSR, path []uint32) string {
	parts := make([]string, len(path))
	for i, v := range path {
		parts[i] = cs.Term(v).String()
	}
	return strings.Join(parts, " ")
}

// TestTraversalMatchesPropertyGraph: walks and shortest paths over the
// projection equal a native traversal of the property graph collapsed
// to distinct (src, dst) pairs per label filter, on every scheme with
// the -s-p-o triple asserted and not. Parallel edges, and unfiltered
// edges of two labels between one pair, are one step.
func TestTraversalMatchesPropertyGraph(t *testing.T) {
	g := traversalGraph(t, 11)
	vocab := pgrdf.DefaultVocabulary()
	rng := rand.New(rand.NewSource(5))
	starts := []pg.ID{1, 2, 3, 31}
	for len(starts) < 12 {
		starts = append(starts, pg.ID(rng.Intn(33)+1))
	}
	for _, s := range pgrdf.Schemes {
		for _, spo := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/ExplicitSPO=%v", s, spo), func(t *testing.T) {
				st, err := pgrdf.NewStore(s)
				if err != nil {
					t.Fatal(err)
				}
				conv := &pgrdf.Converter{Scheme: s, Vocab: vocab, Opts: pgrdf.Options{ExplicitSPO: spo}}
				names, err := pgrdf.LoadPartitioned(st, conv.Convert(g), "pg")
				if err != nil {
					t.Fatal(err)
				}
				for _, label := range []string{"follows", "knows", ""} {
					cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: s, Label: label})
					adj := nativeAdjacency(g, vocab, label)
					for _, a := range starts {
						want := nativeWalk(adj, vocab, a, 1, 3)
						va, ok := cs.Index(vocab.VertexIRI(a))
						if !ok {
							if len(want) > 0 {
								t.Fatalf("label %q: v%d is no vertex of the projection, natively it has %d paths", label, a, len(want))
							}
							continue
						}
						var got []string
						if err := cs.Walk(va, 1, 3, func(p []uint32) bool {
							got = append(got, renderPath(cs, p))
							return true
						}); err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("label %q: paths of 1-3 edges from v%d:\n got %d %q\nwant %d %q", label, a, len(got), got, len(want), want)
						}
						for _, b := range starts {
							want := nativeShortest(adj, vocab, a, b)
							got := ""
							if vb, ok := cs.Index(vocab.VertexIRI(b)); ok {
								if p := cs.ShortestPath(va, vb); p != nil {
									got = renderPath(cs, p)
								}
							}
							if got != want {
								t.Fatalf("label %q: shortest path v%d -> v%d = %q, want %q", label, a, b, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestWalkBounds: bounds are checked, minLen 0 yields the start alone,
// and fn returning false stops the walk.
func TestWalkBounds(t *testing.T) {
	cs := edgeCSR(3, [][2]uint32{{0, 1}, {1, 2}, {1, 0}})
	for _, b := range [][2]int{{-1, 2}, {2, 1}} {
		if err := cs.Walk(0, b[0], b[1], func([]uint32) bool { return true }); err == nil {
			t.Errorf("bounds [%d,%d] accepted", b[0], b[1])
		}
	}
	var got [][]uint32
	if err := cs.Walk(0, 0, 2, func(p []uint32) bool {
		got = append(got, slices.Clone(p))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := [][]uint32{{0}, {0, 1}, {0, 1, 0}, {0, 1, 2}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("paths of 0-2 edges from 0 = %v, want %v", got, want)
	}
	n := 0
	cs.Walk(0, 0, 3, func([]uint32) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("walk went on for %d paths after fn returned false at the second", n)
	}
	if p := cs.ShortestPath(2, 0); p != nil {
		t.Fatalf("2 has no out-edges, yet ShortestPath(2, 0) = %v", p)
	}
	if p := cs.ShortestPath(2, 2); !slices.Equal(p, []uint32{2}) {
		t.Fatalf("ShortestPath(2, 2) = %v, want [2]", p)
	}
}
