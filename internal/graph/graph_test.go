package graph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/store"
)

// figure1 rebuilds the paper's Figure 1 sample graph.
func figure1(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.NewGraph()
	v1, err := g.AddVertexWithID(1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := g.AddVertexWithID(2)
	if err != nil {
		t.Fatal(err)
	}
	v1.SetProperty("name", pg.S("Amy"))
	v1.SetProperty("age", pg.I(23))
	v2.SetProperty("name", pg.S("Mira"))
	v2.SetProperty("age", pg.I(22))
	e3, err := g.AddEdgeWithID(3, 1, 2, "follows")
	if err != nil {
		t.Fatal(err)
	}
	e3.SetProperty("since", pg.I(2007))
	e4, err := g.AddEdgeWithID(4, 1, 2, "knows")
	if err != nil {
		t.Fatal(err)
	}
	e4.SetProperty("firstMetAt", pg.S("MIT"))
	return g
}

// randomGraph builds a seeded random property graph: nv vertices, ne
// random edges over two labels with a float "weight" on half of them,
// plus a few isolated vertices.
func randomGraph(t *testing.T, seed int64, nv, ne int) *pg.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := pg.NewGraph()
	for i := 1; i <= nv; i++ {
		if _, err := g.AddVertexWithID(pg.ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	labels := []string{"follows", "knows"}
	for i := 0; i < ne; i++ {
		src := pg.ID(rng.Intn(nv) + 1)
		dst := pg.ID(rng.Intn(nv) + 1)
		e, err := g.AddEdge(src, dst, labels[rng.Intn(len(labels))])
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			e.SetProperty("weight", pg.F(float64(rng.Intn(9)+1)))
		}
	}
	return g
}

// loadScheme converts g under scheme s and loads it partitioned into a
// fresh store with the recommended indexes.
func loadScheme(t *testing.T, g *pg.Graph, s pgrdf.Scheme) (*store.Store, pgrdf.ModelNames) {
	t.Helper()
	st, err := pgrdf.NewStore(s)
	if err != nil {
		t.Fatal(err)
	}
	conv := pgrdf.NewConverter(s)
	names, err := pgrdf.LoadPartitioned(st, conv.Convert(g), "pg")
	if err != nil {
		t.Fatal(err)
	}
	return st, names
}

func mustProject(t *testing.T, st *store.Store, opts ProjectOptions) *CSR {
	t.Helper()
	cs, err := Project(context.Background(), st, opts, Budget{})
	if err != nil {
		t.Fatalf("Project(%+v): %v", opts, err)
	}
	return cs
}

// csrEqual asserts two CSRs are bit-identical.
func csrEqual(t *testing.T, want, got *CSR, label string) {
	t.Helper()
	if len(want.terms) != len(got.terms) {
		t.Fatalf("%s: vertices %d != %d", label, len(got.terms), len(want.terms))
	}
	for i := range want.terms {
		if !want.terms[i].Equal(got.terms[i]) {
			t.Fatalf("%s: term[%d] %v != %v", label, i, got.terms[i], want.terms[i])
		}
	}
	eqU32 := func(name string, a, b []uint32) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d != %d", label, name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] %d != %d", label, name, i, b[i], a[i])
			}
		}
	}
	eqU32("off", want.off, got.off)
	eqU32("dst", want.dst, got.dst)
	eqU32("roff", want.roff, got.roff)
	eqU32("rsrc", want.rsrc, got.rsrc)
	if len(want.w) != len(got.w) {
		t.Fatalf("%s: weights length %d != %d", label, len(got.w), len(want.w))
	}
	for i := range want.w {
		if math.Float64bits(want.w[i]) != math.Float64bits(got.w[i]) {
			t.Fatalf("%s: w[%d] %v != %v", label, i, got.w[i], want.w[i])
		}
	}
}

func TestProjectFigure1(t *testing.T) {
	g := figure1(t)
	for _, s := range pgrdf.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			st, names := loadScheme(t, g, s)
			cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: s, Reverse: true})
			if cs.NumVertices() != 2 {
				t.Fatalf("vertices = %d, want 2", cs.NumVertices())
			}
			// follows and knows connect the same pair: one projected edge.
			if cs.NumEdges() != 1 {
				t.Fatalf("edges = %d, want 1", cs.NumEdges())
			}
			if cs.Term(0).Value != "http://pg/v1" || cs.Term(1).Value != "http://pg/v2" {
				t.Fatalf("terms = %v %v", cs.Term(0), cs.Term(1))
			}
			if nb := cs.Neighbors(0); len(nb) != 1 || nb[0] != 1 {
				t.Fatalf("Neighbors(0) = %v", nb)
			}
			if in := cs.InNeighbors(1); len(in) != 1 || in[0] != 0 {
				t.Fatalf("InNeighbors(1) = %v", in)
			}

			one := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: s, Label: "follows"})
			if one.NumEdges() != 1 || one.NumVertices() != 2 {
				t.Fatalf("follows projection: V=%d E=%d", one.NumVertices(), one.NumEdges())
			}
			none := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: s, Label: "blocks"})
			if none.NumEdges() != 0 || none.NumVertices() != 0 {
				t.Fatalf("blocks projection: V=%d E=%d", none.NumVertices(), none.NumEdges())
			}
		})
	}
}

func TestProjectIsolatedAndOptionVariants(t *testing.T) {
	g := figure1(t)
	if _, err := g.AddVertexWithID(9); err != nil { // isolated, no KVs
		t.Fatal(err)
	}
	for _, s := range pgrdf.Schemes {
		for _, opts := range []pgrdf.Options{
			{ExplicitSPO: true},
			{ExplicitSPO: false},
			{ExplicitSPO: true, SingleTripleWhenNoKVs: true},
		} {
			name := fmt.Sprintf("%s/spo=%v/single=%v", s, opts.ExplicitSPO, opts.SingleTripleWhenNoKVs)
			t.Run(name, func(t *testing.T) {
				st, err := pgrdf.NewStore(s)
				if err != nil {
					t.Fatal(err)
				}
				conv := pgrdf.NewConverter(s)
				conv.Opts = opts
				names, err := pgrdf.LoadPartitioned(st, conv.Convert(g), "pg")
				if err != nil {
					t.Fatal(err)
				}
				cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: s, Reverse: true})
				if cs.NumVertices() != 3 {
					t.Fatalf("vertices = %d, want 3 (v9 isolated)", cs.NumVertices())
				}
				if cs.NumEdges() != 1 {
					t.Fatalf("edges = %d, want 1", cs.NumEdges())
				}
				if cs.Term(2).Value != "http://pg/v9" {
					t.Fatalf("term[2] = %v", cs.Term(2))
				}
				if cs.OutDegree(2) != 0 || cs.InDegree(2) != 0 {
					t.Fatalf("v9 degrees = %d/%d", cs.OutDegree(2), cs.InDegree(2))
				}
			})
		}
	}
}

// TestProjectCrossSchemeIdentity is the heart of the determinism
// contract: the same property graph loaded under RF, NG and SP must
// project to bit-identical CSRs.
func TestProjectCrossSchemeIdentity(t *testing.T) {
	for _, cfg := range []struct {
		seed   int64
		nv, ne int
		label  string
		weight string
	}{
		{seed: 1, nv: 40, ne: 120},
		{seed: 2, nv: 200, ne: 900},
		{seed: 3, nv: 200, ne: 900, label: "follows"},
		{seed: 4, nv: 120, ne: 500, weight: "weight"},
	} {
		g := randomGraph(t, cfg.seed, cfg.nv, cfg.ne)
		var ref *CSR
		for _, s := range pgrdf.Schemes {
			st, names := loadScheme(t, g, s)
			cs := mustProject(t, st, ProjectOptions{
				Model: names.All, Scheme: s, Label: cfg.label,
				WeightKey: cfg.weight, Reverse: true,
			})
			if ref == nil {
				ref = cs
				continue
			}
			csrEqual(t, ref, cs, fmt.Sprintf("seed %d scheme %s", cfg.seed, s))
		}
	}
}

func TestDetectScheme(t *testing.T) {
	g := randomGraph(t, 7, 30, 80)
	for _, s := range pgrdf.Schemes {
		st, names := loadScheme(t, g, s)
		got, err := DetectScheme(st, names.All, pgrdf.Vocabulary{})
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("DetectScheme = %v, want %v", got, s)
		}
	}
}

// TestResolveScheme: /algo and pgrdf algo read a scheme name alike —
// "" and "auto" in any case and spacing sniff the model (SP here), any
// other name is parsed, and an unknown one is refused.
func TestResolveScheme(t *testing.T) {
	st, names := loadScheme(t, randomGraph(t, 7, 30, 80), pgrdf.SP)
	for name, want := range map[string]pgrdf.Scheme{"": pgrdf.SP, "auto": pgrdf.SP, " AUTO ": pgrdf.SP, "ng": pgrdf.NG} {
		got, err := ResolveScheme(st, names.All, name)
		if err != nil || got != want {
			t.Errorf("ResolveScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ResolveScheme(st, names.All, "bogus"); !errors.Is(err, pgrdf.ErrUnknownScheme) {
		t.Errorf("ResolveScheme(\"bogus\") err = %v, want ErrUnknownScheme", err)
	}
}

func TestProjectUnknownModel(t *testing.T) {
	st := store.New()
	if _, err := Project(context.Background(), st, ProjectOptions{Model: "nope"}, Budget{}); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestTopScoresAndComponents(t *testing.T) {
	g := figure1(t)
	st, names := loadScheme(t, g, pgrdf.NG)
	cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG, Reverse: true})
	pr, err := Runner{Parallelism: 1}.PageRank(context.Background(), cs, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	top := TopScores(cs, pr.Scores, 1)
	if len(top) != 1 || top[0].Term != "http://pg/v2" {
		t.Fatalf("top = %+v, want v2 first (it has the in-edge)", top)
	}
	wcc, err := Runner{Parallelism: 1}.WCC(context.Background(), cs)
	if err != nil {
		t.Fatal(err)
	}
	comps := TopComponents(cs, wcc, 0)
	if len(comps) != 1 || comps[0].Size != 2 || comps[0].Term != "http://pg/v1" {
		t.Fatalf("components = %+v", comps)
	}
}
