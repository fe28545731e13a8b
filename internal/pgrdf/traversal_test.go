package pgrdf

import (
	"testing"

	"repro/internal/pg"
	"repro/internal/rdf"
)

// chainGraph builds v1 -> v2 -> v3 -> v4 with a shortcut v2 -> v4 and a
// knows edge v1 -> v3.
func chainGraph(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.NewGraph()
	for i := 1; i <= 4; i++ {
		mustVertex(t, g, pg.ID(i), map[string]pg.Value{"name": pg.S("u")})
	}
	mustEdge(t, g, 10, 1, 2, "follows", nil)
	mustEdge(t, g, 11, 2, 3, "follows", nil)
	mustEdge(t, g, 12, 3, 4, "follows", nil)
	mustEdge(t, g, 13, 2, 4, "follows", nil)
	mustEdge(t, g, 14, 1, 3, "knows", nil)
	return g
}

func traverserFor(t *testing.T, s Scheme) (*Traverser, Vocabulary) {
	t.Helper()
	g := chainGraph(t)
	st, err := NewStore(s)
	if err != nil {
		t.Fatal(err)
	}
	conv := NewConverter(s)
	if _, err := LoadPartitioned(st, conv.Convert(g), "pg"); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraverser(st, conv.Vocab, "pg")
	if err != nil {
		t.Fatal(err)
	}
	return tr, conv.Vocab
}

func TestTraverserNeighborsAllSchemes(t *testing.T) {
	for _, s := range Schemes {
		tr, vocab := traverserFor(t, s)
		v1 := vocab.VertexIRI(1)
		out := tr.Out(v1, "follows")
		if len(out) != 1 || !out[0].To.Equal(vocab.VertexIRI(2)) {
			t.Errorf("%s: Out(v1, follows) = %v", s, out)
		}
		all := tr.Out(v1, "")
		if len(all) != 2 {
			t.Errorf("%s: Out(v1, any) = %v", s, all)
		}
		in := tr.In(vocab.VertexIRI(4), "follows")
		if len(in) != 2 {
			t.Errorf("%s: In(v4, follows) = %v", s, in)
		}
		if got := tr.Out(rdf.NewIRI("http://pg/v99"), "follows"); got != nil {
			t.Errorf("%s: neighbors of unknown vertex = %v", s, got)
		}
		if got := tr.Out(v1, "nope"); got != nil {
			t.Errorf("%s: neighbors over unknown label = %v", s, got)
		}
	}
}

func TestWalkBoundsAndPaths(t *testing.T) {
	tr, vocab := traverserFor(t, NG)
	v1 := vocab.VertexIRI(1)

	var paths []string
	err := tr.Walk(v1, "follows", 1, 3, func(p Path) bool {
		paths = append(paths, p.String())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Paths from v1: v2 (1), v2-v3 (2), v2-v4 (2), v2-v3-v4 (3) = 4.
	if len(paths) != 4 {
		t.Fatalf("paths = %v", paths)
	}

	// minLen filters short paths.
	n := 0
	tr.Walk(v1, "follows", 3, 3, func(p Path) bool {
		if p.Len() != 3 {
			t.Errorf("length bound violated: %s", p)
		}
		if !p.End().Equal(vocab.VertexIRI(4)) {
			t.Errorf("3-hop end = %v", p.End())
		}
		n++
		return true
	})
	if n != 1 {
		t.Errorf("3-hop paths = %d", n)
	}

	// Early stop.
	n = 0
	tr.Walk(v1, "follows", 0, 3, func(Path) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}

	if err := tr.Walk(v1, "follows", 2, 1, nil); err == nil {
		t.Error("invalid bounds accepted")
	}
}

func TestCountPathsMatchesSPARQLSemantics(t *testing.T) {
	tr, vocab := traverserFor(t, NG)
	v1 := vocab.VertexIRI(1)
	for hops, want := range map[int]int64{1: 1, 2: 2, 3: 1, 4: 0} {
		got, err := tr.CountPaths(v1, "follows", hops)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("CountPaths(%d) = %d, want %d", hops, got, want)
		}
	}
}

func TestShortestPath(t *testing.T) {
	tr, vocab := traverserFor(t, SP)
	v1, v4 := vocab.VertexIRI(1), vocab.VertexIRI(4)
	p, ok := tr.ShortestPath(v1, v4, "follows")
	if !ok || p.Len() != 2 {
		t.Fatalf("shortest v1->v4 = %v ok=%v", p, ok)
	}
	if !p.End().Equal(v4) {
		t.Errorf("end = %v", p.End())
	}
	// Unreachable in the follows direction.
	if _, ok := tr.ShortestPath(v4, v1, "follows"); ok {
		t.Error("v4 -> v1 should be unreachable")
	}
	// Identity.
	p, ok = tr.ShortestPath(v1, v1, "follows")
	if !ok || p.Len() != 0 {
		t.Errorf("identity path = %v ok=%v", p, ok)
	}
	// Any-label reaches via knows too.
	p, ok = tr.ShortestPath(v1, vocab.VertexIRI(3), "")
	if !ok || p.Len() != 1 || p.Steps[0].Label != "knows" {
		t.Errorf("any-label shortest = %v", p)
	}
}

func TestTraverserUnknownModel(t *testing.T) {
	st, _ := NewStore(NG)
	if _, err := NewTraverser(st, DefaultVocabulary(), "missing"); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestTraverserReadsOneVersion inserts the edge v1 -follows-> v4 into
// the topology after a traverser is built: that traverser reads the
// version it was built on and does not see the edge; a new one does.
func TestTraverserReadsOneVersion(t *testing.T) {
	for _, s := range Schemes {
		t.Run(s.String(), func(t *testing.T) {
			st, err := NewStore(s)
			if err != nil {
				t.Fatal(err)
			}
			conv := NewConverter(s)
			names, err := LoadPartitioned(st, conv.Convert(chainGraph(t)), "pg")
			if err != nil {
				t.Fatal(err)
			}
			tr, err := NewTraverser(st, conv.Vocab, "pg")
			if err != nil {
				t.Fatal(err)
			}
			g := pg.NewGraph()
			mustVertex(t, g, 1, nil)
			mustVertex(t, g, 4, nil)
			mustEdge(t, g, 15, 1, 4, "follows", nil)
			for _, q := range conv.Convert(g).Topology {
				if _, err := st.Insert(names.Topology, q); err != nil {
					t.Fatal(err)
				}
			}
			v1 := conv.Vocab.VertexIRI(1)
			if out := tr.Out(v1, "follows"); len(out) != 1 {
				t.Errorf("traverser built before the insert: Out(v1, follows) = %v, want only v2", out)
			}
			fresh, err := NewTraverser(st, conv.Vocab, "pg")
			if err != nil {
				t.Fatal(err)
			}
			if out := fresh.Out(v1, "follows"); len(out) != 2 {
				t.Errorf("traverser built after the insert: Out(v1, follows) = %v, want v2 and v4", out)
			}
		})
	}
}
