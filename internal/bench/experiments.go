package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/pg"
	"repro/internal/pgrdf"
)

// Paper constants for side-by-side comparison columns.
var (
	paperTable6 = map[string]int{
		"Nodes": 76245, "Edges": 1796085, "Node KVs": 1218763, "Edge KVs": 3345982,
	}
	paperTable7 = map[string]int{
		"follows": 1667885, "knows": 128200, "refs": 3771755, "hasTag": 792990,
		"NG total": 6360830, "SP total": 9953000,
	}
	paperTable9MB = map[string]map[string]float64{
		"NG": {"Triples Table": 248, "Values Table": 56, "PCSGM Index": 259, "PSCGM Index": 338, "GPSCM Index": 366, "SPCGM Index": 358, "Total": 1625},
		"SP": {"Triples Table": 329, "Values Table": 57, "PCSGM Index": 398, "PSCGM Index": 504, "SPCGM Index": 506, "Total": 1794},
	}
	// Paper result counts for EQ1–EQ12 (Table 10), at full scale.
	paperResults = map[string]int{
		"EQ1": 251, "EQ2": 1249, "EQ3": 11440, "EQ4": 3011,
		"EQ5a": 206, "EQ5b": 206, "EQ6a": 13012, "EQ6b": 13012,
		"EQ7a": 11440, "EQ7b": 11440, "EQ8a": 1269, "EQ8b": 1269,
		"EQ9": 580, "EQ10": 412,
		"EQ11a": 21, "EQ11b": 900, "EQ11c": 52540, "EQ11d": 3573916, "EQ11e": 257861728,
		"EQ12": 20211887,
	}
)

// Table1 renders the RDF representation of the three models on the
// Figure 1 sample graph (the content of Table 1).
func Table1() *Table {
	t := &Table{ID: "Table 1", Title: "RDF representation for three models (Figure 1 graph)",
		Head: []string{"model", "partition", "quad/triple"}}
	g := figure1Graph()
	for _, s := range pgrdf.Schemes {
		ds := pgrdf.NewConverter(s).Convert(g)
		for _, q := range ds.Topology {
			t.AddRow(s.String(), "topology", q.String())
		}
		for _, q := range ds.EdgeKV {
			t.AddRow(s.String(), "edge-KV", q.String())
		}
		for _, q := range ds.NodeKV {
			t.AddRow(s.String(), "node-KV", q.String())
		}
	}
	return t
}

func figure1Graph() *pg.Graph {
	g := pg.NewGraph()
	v1, _ := g.AddVertexWithID(1)
	v2, _ := g.AddVertexWithID(2)
	v1.SetProperty("name", pg.S("Amy"))
	v1.SetProperty("age", pg.I(23))
	v2.SetProperty("name", pg.S("Mira"))
	v2.SetProperty("age", pg.I(22))
	e3, _ := g.AddEdgeWithID(3, 1, 2, "follows")
	e3.SetProperty("since", pg.I(2007))
	e4, _ := g.AddEdgeWithID(4, 1, 2, "knows")
	e4.SetProperty("firstMetAt", pg.S("MIT"))
	return g
}

// Table2 compares predicted vs measured cardinalities on the generated
// dataset for all three models.
func Table2(env *Env) *Table {
	t := &Table{ID: "Table 2", Title: "Property graph vs RDF cardinalities (predicted = formula, measured = generated)",
		Head: []string{"model", "quantity", "predicted", "measured"}}
	vocab := Vocab()
	for _, s := range pgrdf.Schemes {
		conv := &pgrdf.Converter{Scheme: s, Vocab: vocab, Opts: pgrdf.DefaultOptions()}
		ds := conv.Convert(env.Graph)
		pred := pgrdf.PredictCardinalities(env.GraphStats, s)
		meas := pgrdf.MeasureCardinalities(ds)
		add := func(q string, p, m int) { t.AddRow(s.String(), q, fmt.Sprint(p), fmt.Sprint(m)) }
		add("named graphs", pred.NamedGraphs, meas.NamedGraphs)
		add("obj-prop triples/quads", pred.ObjPropQuads, meas.ObjPropQuads)
		add("data-prop triples", pred.DataPropTriples, meas.DataPropTriples)
		add("distinct subjects", pred.DistinctSubjects, meas.DistinctSubjects)
		add("distinct obj-properties", pred.DistinctObjProps, meas.DistinctObjProps)
		add("distinct data-properties", pred.DistinctDataProps, meas.DistinctDataProps)
	}
	return t
}

// Table5 regenerates the index-based access plans for the Table 5
// queries under both schemes.
func Table5(env *Env) *Table {
	t := &Table{ID: "Table 5", Title: "Property graph query execution using indexes (EXPLAIN output)",
		Head: []string{"query", "scheme", "plan"}}
	queries := env.Queries()
	for _, name := range []string{"EQ1", "EQ8a", "EQ8b", "EQ4"} {
		q, ok := queries[name]
		if !ok {
			continue
		}
		for _, se := range env.SchemeEnvs() {
			if schemeVariant(name) == "a" && se.Scheme != pgrdf.NG {
				continue
			}
			if schemeVariant(name) == "b" && se.Scheme != pgrdf.SP {
				continue
			}
			plan, err := se.Engine.Explain(TargetModelFor(se, name), q)
			if err != nil {
				plan = "ERROR: " + err.Error()
			}
			for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
				t.AddRow(name, se.Scheme.String(), line)
			}
		}
	}
	return t
}

// Table6 reports the generated dataset characteristics next to the
// paper's.
func Table6(env *Env) *Table {
	t := &Table{ID: "Table 6", Title: "Twitter dataset characteristics",
		Head: []string{"quantity", "generated", "paper (full scale)", "generated/paper"}}
	st := env.GraphStats
	rows := []struct {
		name string
		val  int
	}{
		{"Nodes", st.Vertices},
		{"Edges", st.Edges},
		{"Node KVs", st.NodeKVs},
		{"Edge KVs", st.EdgeKVs},
	}
	for _, r := range rows {
		ref := paperTable6[r.name]
		t.AddRow(r.name, fmt.Sprint(r.val), fmt.Sprint(ref), fmt.Sprintf("%.3f", float64(r.val)/float64(ref)))
	}
	t.AddNote("generated at scale factor %.3f (%d egos vs the paper's 973)", float64(env.Config.Egos)/973, env.Config.Egos)
	return t
}

// Table7 reports transformed RDF triple counts per label/key and the
// NG/SP totals.
func Table7(env *Env) *Table {
	t := &Table{ID: "Table 7", Title: "Transformed RDF dataset characteristics: triples",
		Head: []string{"quantity", "generated", "paper (full scale)"}}
	tc := pgrdf.CountTriples(env.NG.Dataset, Vocab())
	for _, label := range []string{"follows", "knows"} {
		t.AddRow("edges "+label, fmt.Sprint(tc.ByLabel[label]), fmt.Sprint(paperTable7[label]))
	}
	for _, key := range []string{"refs", "hasTag"} {
		t.AddRow("KVs "+key, fmt.Sprint(tc.ByKey[key]), fmt.Sprint(paperTable7[key]))
	}
	t.AddRow("NG total", fmt.Sprint(env.NG.Dataset.Len()), fmt.Sprint(paperTable7["NG total"]))
	t.AddRow("SP total", fmt.Sprint(env.SP.Dataset.Len()), fmt.Sprint(paperTable7["SP total"]))
	t.AddNote("SP exceeds NG by 2*E = %d triples (-e-sPO-p and -s-e-o per edge)", 2*env.GraphStats.Edges)
	return t
}

// Table8 reports distinct resources per position for NG vs SP.
func Table8(env *Env) *Table {
	t := &Table{ID: "Table 8", Title: "Transformed RDF dataset characteristics: resources",
		Head: []string{"quantity", "NG", "SP", "paper NG", "paper SP"}}
	ngStats, err := env.NG.Store.View().Stats(env.NG.Names.All)
	if err != nil {
		t.AddNote("NG stats error: %v", err)
		return t
	}
	spStats, err := env.SP.Store.View().Stats(env.SP.Names.All)
	if err != nil {
		t.AddNote("SP stats error: %v", err)
		return t
	}
	t.AddRow("Quads/Triples", fmt.Sprint(ngStats.Quads), fmt.Sprint(spStats.Quads), "6360830", "9953000")
	t.AddRow("Subjects", fmt.Sprint(ngStats.Subjects), fmt.Sprint(spStats.Subjects), "1019549", "1866182")
	t.AddRow("Predicates", fmt.Sprint(ngStats.Predicates), fmt.Sprint(spStats.Predicates), "4", "1796090")
	t.AddRow("Objects", fmt.Sprint(ngStats.Objects), fmt.Sprint(spStats.Objects), "288392", "288394")
	t.AddRow("Named Graphs", fmt.Sprint(ngStats.NamedGraphs), fmt.Sprint(spStats.NamedGraphs), "1796085", "0")
	return t
}

// Table9 reports estimated physical storage for both schemes.
func Table9(env *Env) *Table {
	t := &Table{ID: "Table 9", Title: "Physical storage characteristics (estimated MB)",
		Head: []string{"object", "NG MB", "SP MB", "paper NG MB", "paper SP MB"}}
	ngRep := env.NG.Store.View().Storage()
	spRep := env.SP.Store.View().Storage()
	objects := []string{"Triples Table", "Values Table", "PCSGM Index", "PSCGM Index", "GPSCM Index", "SPCGM Index"}
	fmtMB := func(v float64) string {
		if v == 0 {
			return "NA"
		}
		return fmt.Sprintf("%.1f", v)
	}
	for _, name := range objects {
		t.AddRow(name, fmtMB(ngRep.MB(name)), fmtMB(spRep.MB(name)),
			fmtMB(paperTable9MB["NG"][name]), fmtMB(paperTable9MB["SP"][name]))
	}
	t.AddRow("Total", fmtMB(ngRep.TotalMB()), fmtMB(spRep.TotalMB()),
		fmtMB(paperTable9MB["NG"]["Total"]), fmtMB(paperTable9MB["SP"]["Total"]))
	t.AddNote("load time: NG %s, SP %s (paper: 5m16s / 6m01s at full scale)", env.NG.LoadDur, env.SP.LoadDur)
	t.AddNote("shape checks: SP triples table > NG; SP has no G index; totals similar")
	return t
}

// Figure4 reports the out-/in-degree distributions of the transformed
// RDF graph (NG model): out-degree counts triples per subject, in-degree
// triples per object. The paper notes "the in-degrees are generally
// higher than out-degrees as the same literal values are often shared
// between many KVs" — which only holds over the RDF graph, where
// popular tag/keyword literals are objects of thousands of KV triples.
func Figure4(env *Env) *Table {
	t := &Table{ID: "Figure 4", Title: "Out-degree and in-degree distribution (RDF graph, NG model)",
		Head: []string{"degree", "#nodes (out)", "#nodes (in)"}}
	out, in := rdfDegreeDistribution(env.NG.Dataset)
	degrees := make(map[int]struct{})
	for d := range out {
		degrees[d] = struct{}{}
	}
	for d := range in {
		degrees[d] = struct{}{}
	}
	var sorted []int
	for d := range degrees {
		sorted = append(sorted, d)
	}
	sort.Ints(sorted)
	// Log-scale buckets to keep the table small.
	buckets := []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 1 << 20}
	outB := make([]int, len(buckets))
	inB := make([]int, len(buckets))
	for _, d := range sorted {
		for i := len(buckets) - 1; i >= 0; i-- {
			if d >= buckets[i] {
				outB[i] += out[d]
				inB[i] += in[d]
				break
			}
		}
	}
	for i := 0; i < len(buckets)-1; i++ {
		label := fmt.Sprintf("[%d,%d)", buckets[i], buckets[i+1])
		t.AddRow(label, fmt.Sprint(outB[i]), fmt.Sprint(inB[i]))
	}
	maxOut, maxIn := 0, 0
	for d := range out {
		if d > maxOut {
			maxOut = d
		}
	}
	for d := range in {
		if d > maxIn {
			maxIn = d
		}
	}
	t.AddNote("max out-degree %d, max in-degree %d (paper: in-degree tail is heavier — shared literal values)", maxOut, maxIn)
	return t
}

// rdfDegreeDistribution histograms triples-per-subject (out) and
// triples-per-object (in) over a transformed dataset.
func rdfDegreeDistribution(ds *pgrdf.Dataset) (out, in map[int]int) {
	outDeg := make(map[string]int)
	inDeg := make(map[string]int)
	for _, q := range ds.All() {
		outDeg[q.S.String()]++
		inDeg[q.O.String()]++
	}
	out = make(map[int]int)
	in = make(map[int]int)
	for _, d := range outDeg {
		out[d]++
	}
	for _, d := range inDeg {
		in[d]++
	}
	return out, in
}

// schemeVariant returns "a" (NG formulation) or "b" (SP formulation)
// for the EQ5–EQ8 scheme-specific query pairs, and "" for queries whose
// trailing letter is not a scheme marker (EQ11a–e are hop variants).
func schemeVariant(name string) string {
	switch name {
	case "EQ5a", "EQ6a", "EQ7a", "EQ8a":
		return "a"
	case "EQ5b", "EQ6b", "EQ7b", "EQ8b":
		return "b"
	default:
		return ""
	}
}

// queryFigure runs a set of queries on the applicable schemes and
// renders times + result counts.
func queryFigure(ctx context.Context, env *Env, id, title string, names []string) *Table {
	t := &Table{ID: id, Title: title,
		Head: []string{"query", "scheme", "time", "results", "paper results (full scale)"}}
	queries := env.Queries()
	for _, name := range names {
		q := queries[name]
		for _, se := range env.SchemeEnvs() {
			if schemeVariant(name) == "a" && se.Scheme != pgrdf.NG {
				continue
			}
			if schemeVariant(name) == "b" && se.Scheme != pgrdf.SP {
				continue
			}
			model := TargetModelFor(se, name)
			dur, n, err := RunTimed(ctx, se.Engine, model, q)
			if err != nil {
				t.AddRow(name, se.Scheme.String(), "ERROR", err.Error(), "")
				continue
			}
			t.AddRow(name, se.Scheme.String(), fmtDur(dur), fmt.Sprint(n), fmt.Sprint(paperResults[name]))
		}
	}
	return t
}

// Figure5 runs the node-centric queries EQ1–EQ4.
func Figure5(ctx context.Context, env *Env) *Table {
	t := queryFigure(ctx, env, "Figure 5", "Execution time for node-centric queries", []string{"EQ1", "EQ2", "EQ3", "EQ4"})
	t.AddNote("expected shape: NG ≈ SP (same node-KV triples, index NLJ both)")
	return t
}

// Figure6 runs the edge-centric queries EQ5–EQ8 (a = NG, b = SP).
func Figure6(ctx context.Context, env *Env) *Table {
	t := queryFigure(ctx, env, "Figure 6", "Execution time for edge-centric queries",
		[]string{"EQ5a", "EQ5b", "EQ6a", "EQ6b", "EQ7a", "EQ7b", "EQ8a", "EQ8b"})
	t.AddNote("expected shape: NG < SP on edge-KV access (2 quads vs 3 triples per edge); gap widest at EQ7")
	return t
}

// Figure7 runs the aggregate queries EQ9–EQ10.
func Figure7(ctx context.Context, env *Env) *Table {
	t := queryFigure(ctx, env, "Figure 7", "Execution time for aggregate queries", []string{"EQ9", "EQ10"})
	t.AddNote("expected shape: NG ≈ SP (same topology structures)")
	return t
}

// Figure8 runs the graph traversal queries EQ11a–e.
func Figure8(ctx context.Context, env *Env) *Table {
	t := queryFigure(ctx, env, "Figure 8", "Execution time for graph traversal queries (1..5 hops, path counting)",
		[]string{"EQ11a", "EQ11b", "EQ11c", "EQ11d", "EQ11e"})
	t.AddNote("expected shape: ~exponential growth with hops; NG slightly faster (smaller scan table)")
	t.AddNote("start node: %s (follows out-degree ~21, as in the paper)", env.StartNode)
	return t
}

// Figure9 runs the triangle counting query EQ12.
func Figure9(ctx context.Context, env *Env) *Table {
	t := queryFigure(ctx, env, "Figure 9", "Execution time for triangle counting", []string{"EQ12"})
	t.AddNote("expected shape: hash joins with full scans; NG slightly faster")
	return t
}

// AllExperiments runs everything in paper order, plus the DML
// extension.
func AllExperiments(ctx context.Context, env *Env) []*Table {
	return []*Table{
		Table1(), Table2(env), Table5(env), Table6(env), Table7(env),
		Table8(env), Table9(env), Figure4(env), Figure5(ctx, env), Figure6(ctx, env),
		Figure7(ctx, env), Figure8(ctx, env), Figure9(ctx, env), DMLExtension(env, 200),
		InferenceExtension(ctx, env),
	}
}

// Experiment looks up one experiment by id ("table1".."table9",
// "fig4".."fig9").
func Experiment(ctx context.Context, env *Env, id string) (*Table, error) {
	switch strings.ToLower(id) {
	case "table1", "1":
		return Table1(), nil
	case "table2", "2":
		return Table2(env), nil
	case "table5", "5":
		return Table5(env), nil
	case "table6", "6":
		return Table6(env), nil
	case "table7", "7":
		return Table7(env), nil
	case "table8", "8":
		return Table8(env), nil
	case "table9", "9":
		return Table9(env), nil
	case "fig4":
		return Figure4(env), nil
	case "fig5":
		return Figure5(ctx, env), nil
	case "fig6":
		return Figure6(ctx, env), nil
	case "fig7":
		return Figure7(ctx, env), nil
	case "fig8":
		return Figure8(ctx, env), nil
	case "fig9":
		return Figure9(ctx, env), nil
	case "dml":
		return DMLExtension(env, 200), nil
	case "inference", "inf":
		return InferenceExtension(ctx, env), nil
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q", id)
	}
}

// Sanity cross-checks used by tests: the NG and SP answers to every
// experiment query must match.
func CrossSchemeCheck(ctx context.Context, env *Env) error {
	queries := env.Queries()
	pairs := [][2]string{
		{"EQ5a", "EQ5b"}, {"EQ6a", "EQ6b"}, {"EQ7a", "EQ7b"}, {"EQ8a", "EQ8b"},
	}
	for _, p := range pairs {
		_, nNG, err := RunTimed(ctx, env.NG.Engine, TargetModelFor(env.NG, p[0]), queries[p[0]])
		if err != nil {
			return fmt.Errorf("%s: %w", p[0], err)
		}
		_, nSP, err := RunTimed(ctx, env.SP.Engine, TargetModelFor(env.SP, p[1]), queries[p[1]])
		if err != nil {
			return fmt.Errorf("%s: %w", p[1], err)
		}
		if nNG != nSP {
			return fmt.Errorf("%s/%s disagree: NG=%d SP=%d", p[0], p[1], nNG, nSP)
		}
	}
	for _, name := range []string{"EQ1", "EQ2", "EQ3", "EQ4", "EQ9", "EQ10", "EQ12"} {
		_, nNG, err := RunTimed(ctx, env.NG.Engine, TargetModelFor(env.NG, name), queries[name])
		if err != nil {
			return fmt.Errorf("NG %s: %w", name, err)
		}
		_, nSP, err := RunTimed(ctx, env.SP.Engine, TargetModelFor(env.SP, name), queries[name])
		if err != nil {
			return fmt.Errorf("SP %s: %w", name, err)
		}
		if nNG != nSP {
			return fmt.Errorf("%s disagrees: NG=%d SP=%d", name, nNG, nSP)
		}
	}
	return nil
}
