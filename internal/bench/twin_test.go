package bench

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/twitter"
)

// twinIndexes are the indexes benchmark/run.go builds, under which the
// serving benchmark loads its graph and its twin.
var twinIndexes = []string{"PCSGM", "PSCGM", "SPCGM", "GSPCM"}

// twinStore loads one encoding of g, all of it in one model, the way
// the serving benchmark's server and its twin hold it.
func twinStore(t *testing.T, g *pg.Graph, scheme pgrdf.Scheme) (*store.Store, []rdf.Quad) {
	t.Helper()
	st, err := store.NewWithIndexes(twinIndexes)
	if err != nil {
		t.Fatal(err)
	}
	conv := &pgrdf.Converter{Scheme: scheme, Vocab: pgrdf.DefaultVocabulary(), Opts: pgrdf.DefaultOptions()}
	quads := conv.Convert(g).All()
	if _, err := st.Load("data", quads); err != nil {
		t.Fatal(err)
	}
	return st, quads
}

// solutionSet renders an answer's solutions as a multiset: the
// variables, then the rows sorted.
func solutionSet(res *sparql.Results) string {
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = fmt.Sprint(row)
	}
	sort.Strings(rows)
	return fmt.Sprint(res.Vars, rows)
}

// twinTexts instantiates the scheme-independent classes the serving
// benchmark's twin check compares: EQ1–EQ4 over tags, EQ11b and EQ11d
// over start nodes, EQ9, EQ10 and EQ12 as they are.
func twinTexts(tags, starts []string) []string {
	qs := sparql.PaperQueries()
	var out []string
	for _, class := range []string{"EQ1", "EQ2", "EQ3", "EQ4"} {
		for _, tag := range tags {
			out = append(out, strings.ReplaceAll(qs[class], "#webseries", tag))
		}
	}
	for _, class := range []string{"EQ11b", "EQ11d"} {
		for _, n := range starts {
			out = append(out, strings.ReplaceAll(qs[class], "http://pg/n6160742", n))
		}
	}
	return append(out, qs["EQ9"], qs["EQ10"], qs["EQ12"])
}

// TestTwinSchemesAgree is the serving benchmark's twin check as a
// fixed-seed test: one generated graph loaded as NG and as SP under the
// served indexes gives the same solutions on every shared class over
// many tags and start nodes — once as loaded, and once after a delta
// that inserts edges and node tags and tombstones others, left unmerged
// beside the base rows.
func TestTwinSchemesAgree(t *testing.T) {
	g := twitter.Generate(twitter.TestConfig())
	vocab := pgrdf.DefaultVocabulary()
	counts := map[string]int{}
	var nodes []pg.ID
	g.Vertices(func(v *pg.Vertex) bool {
		nodes = append(nodes, v.ID)
		for _, val := range v.Values("hasTag") {
			counts[val.Str]++
		}
		return true
	})
	var tags []string
	for tag := range counts {
		tags = append(tags, tag)
	}
	sort.Slice(tags, func(i, j int) bool {
		if counts[tags[i]] != counts[tags[j]] {
			return counts[tags[i]] > counts[tags[j]]
		}
		return tags[i] < tags[j]
	})
	// The 24 most frequent tags, every 50th of the rest, and one no
	// node carries.
	picked := slices.Clone(tags[:min(24, len(tags))])
	for i := 24; i < len(tags); i += 50 {
		picked = append(picked, tags[i])
	}
	picked = append(picked, "#no-such-tag")
	rng := rand.New(rand.NewSource(1))
	var starts []string
	for i := 0; i < 40; i++ {
		starts = append(starts, vocab.VertexIRI(nodes[rng.Intn(len(nodes))]).Value)
	}
	texts := twinTexts(picked, starts)

	ng, ngQuads := twinStore(t, g, pgrdf.NG)
	sp, spQuads := twinStore(t, g, pgrdf.SP)
	compare := func(stage string) {
		t.Helper()
		ngEng, spEng := sparql.NewEngine(ng), sparql.NewEngine(sp)
		rows := 0
		defer func() { t.Logf("%s: %d texts, %d solutions each side", stage, len(texts), rows) }()
		for _, text := range texts {
			a, err := ngEng.QueryContext(context.Background(), "", text)
			if err != nil {
				t.Fatalf("%s NG: %v\n%s", stage, err, text)
			}
			b, err := spEng.QueryContext(context.Background(), "", text)
			if err != nil {
				t.Fatalf("%s SP: %v\n%s", stage, err, text)
			}
			rows += len(a.Rows)
			if x, y := solutionSet(a), solutionSet(b); x != y {
				t.Fatalf("%s: NG and SP answers differ on\n%s\nNG: %.400s\nSP: %.400s", stage, text, x, y)
			}
		}
	}
	compare("loaded")

	// The delta: every ninth follows edge removed, 60 new follows edges
	// tagged with frequent tags, and every seventh node trading its
	// first tag for the most frequent one.
	var follows []pg.ID
	g.Edges(func(e *pg.Edge) bool {
		if e.Label == "follows" {
			follows = append(follows, e.ID)
		}
		return true
	})
	for i := 0; i < len(follows); i += 9 {
		if err := g.RemoveEdge(follows[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		e, err := g.AddEdge(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], "follows")
		if err != nil {
			t.Fatal(err)
		}
		e.AddProperty("hasTag", pg.S(tags[i%5]))
	}
	for i := 0; i < len(nodes); i += 7 {
		v := g.Vertex(nodes[i])
		vals := slices.Clone(v.Values("hasTag"))
		v.RemoveProperty("hasTag")
		for _, val := range vals[min(1, len(vals)):] {
			v.AddProperty("hasTag", val)
		}
		v.AddProperty("hasTag", pg.S(tags[0]))
	}
	for _, side := range []struct {
		st     *store.Store
		scheme pgrdf.Scheme
		before []rdf.Quad
	}{{ng, pgrdf.NG, ngQuads}, {sp, pgrdf.SP, spQuads}} {
		conv := &pgrdf.Converter{Scheme: side.scheme, Vocab: vocab, Opts: pgrdf.DefaultOptions()}
		ops := quadDiff(side.before, conv.Convert(g).All())
		if _, _, err := side.st.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if ws := side.st.WriteStats(); ws.DeltaRows < 50 || ws.Tombstones < 50 || ws.Compactions != 0 {
			t.Fatalf("%s: the delta holds %d rows and %d tombstones after %d compactions; want dozens of each, unmerged",
				side.scheme, ws.DeltaRows, ws.Tombstones, ws.Compactions)
		}
	}
	compare("after a delta")
}

// quadDiff returns the ops that turn the quad set before into after in
// the model "data": deletes of the quads only before holds, inserts of
// those only after holds.
func quadDiff(before, after []rdf.Quad) []store.Op {
	in := func(qs []rdf.Quad) map[string]rdf.Quad {
		m := make(map[string]rdf.Quad, len(qs))
		for _, q := range qs {
			m[q.String()] = q
		}
		return m
	}
	was, is := in(before), in(after)
	var ops []store.Op
	for _, k := range sortedKeys(was) {
		if _, ok := is[k]; !ok {
			ops = append(ops, store.Op{Delete: true, Model: "data", Quad: was[k]})
		}
	}
	for _, k := range sortedKeys(is) {
		if _, ok := was[k]; !ok {
			ops = append(ops, store.Op{Model: "data", Quad: is[k]})
		}
	}
	return ops
}
