package bench

// The paper's shape claims (EXPERIMENTS.md) as predicates over exact
// counts: cardinalities, store statistics and the Table 9 storage
// model, query answers, and the rows, guard ticks and indexes of
// executed-plan profiles. No predicate reads a clock, so a claim holds
// or fails alike on every host and run, and BENCH_paper.json — the
// values each claim read — is the same file every time.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/inference"
	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// Claim is one shape claim: Row names the EXPERIMENTS.md row it
// checks and Says states it. check records the values it reads in v
// and fails when the claim does not hold.
type Claim struct {
	Name, Row, Says string
	check           func(p *probe, v Values) error
}

// Values are the counts (and index names) a claim read, by name.
type Values map[string]any

// ClaimResult is one evaluated claim, a row of BENCH_paper.json.
type ClaimResult struct {
	Name    string `json:"name"`
	Row     string `json:"row"`
	Says    string `json:"says"`
	Holds   bool   `json:"holds"`
	Failure string `json:"failure,omitempty"`
	Values  Values `json:"values"`
}

// PaperReport is the payload of BENCH_paper.json.
type PaperReport struct {
	Egos      int           `json:"egos"`
	Vertices  int           `json:"vertices"`
	Edges     int           `json:"edges"`
	Tag       string        `json:"tag"`
	StartNode string        `json:"start_node"`
	Claims    []ClaimResult `json:"claims"`
}

// Claims is the table of shape claims. A claim that changes env's
// stores restores them (DML).
var Claims = []Claim{
	{"Table2_cardinalities", "Table 2", "the Table 2 formulas predict RF's, NG's and SP's cardinalities exactly", claimTable2},
	{"Table5_indexes", "Table 5", "EQ1's and EQ4's tag lookups use PCSGM, EQ4's ?n ?k ?v SPCGM, NG's EQ8a ?g1 ?k ?v a G-leading index and SP's anchor PCSGM", claimTable5},
	{"Table6_shape", "Table 6", "E/V is within [15, 30], edge KVs outnumber node KVs, and knows < follows / 5", claimTable6},
	{"Table7_8_triples_and_resources", "Table 7 / Table 8", "SP - NG = 2E triples; NG has E named graphs and SP none; SP predicates = E + NG predicates + 1; SP - NG subjects = E - E1", claimTable78},
	{"Table9_storage", "Table 9", "the storage model orders RF > SP > NG, SP's triples table is larger than NG's, only NG has a GPSCM index, and SP/NG is within [0.8, 1.4]", claimTable9},
	{"Figure4_in_degree_tail", "Figure 4", "on NG's RDF graph more nodes have in-degree >= 64 than out-degree >= 64 (shared literal values)", claimFigure4},
	{"Figures5789_NG_matches_SP", "Figures 5, 7, 8, 9", "EQ1-4, EQ9-10, EQ11a-d and EQ12 answer alike on NG and SP, NG/SP rows within [0.8, 1.25]; EQ9 has a row per distinct positive in-degree", claimNGMatchesSP},
	{"Figure6_NG_below_SP", "Figure 6", "EQ5-8 answer alike on NG and SP, NG's plan moves no more rows than SP's, and the least relative to SP on EQ7", claimFigure6},
	{"Figure8_enumerating_grows", "Figure 8", "enumerating paths, rows grow >= 10x per hop for hops 2-4; the counting plan moves fewer rows at every hop, under a fifth at hop 4", claimFigure8},
	{"Figure9_EQ12", "Figure 9", "EQ12 counts the property graph's directed follows 3-cycles, and its plan moves fewer rows than index NLJ alone", claimFigure9},
	{"DML_round_trip", "Extension — DML study", "deleting and reinserting sampled edges touches 2 quads more per edge on SP than on NG and leaves each store as it was", claimDML},
	{"Inference_connectedTo", "Extension — RDFS inference", "rel:connectedTo entailed from follows and knows counts each linked vertex pair once", claimInference},
	{"Ablation_partitioning", "Ablations", "EQ8a on its Table 4 target ticks fewer index rows than on the whole dataset, for one answer", claimPartitioning},
	{"Ablation_RF_SP_NG", "Ablations", "Q2's plan moves rows RF > SP > NG, for one answer", claimEdgeKVSchemes},
}

// Eval checks the claim on env.
func (c Claim) Eval(ctx context.Context, env *Env) ClaimResult {
	r := ClaimResult{Name: c.Name, Row: c.Row, Says: c.Says, Values: Values{}}
	if err := c.check(&probe{ctx: ctx, env: env}, r.Values); err != nil {
		r.Failure = err.Error()
	}
	r.Holds = r.Failure == ""
	return r
}

// PaperClaims checks every claim on env, in table order.
func PaperClaims(ctx context.Context, env *Env) *PaperReport {
	rep := &PaperReport{Egos: env.Config.Egos, Vertices: env.GraphStats.Vertices,
		Edges: env.GraphStats.Edges, Tag: env.Tag, StartNode: env.StartNode}
	for _, c := range Claims {
		rep.Claims = append(rep.Claims, c.Eval(ctx, env))
	}
	return rep
}

// probe runs a claim's queries. After the first error it runs nothing
// more, and done reports that error instead of the claim's checks.
type probe struct {
	ctx context.Context
	env *Env
	err error
}

func (p *probe) done(checks ...error) error {
	if p.err != nil {
		return p.err
	}
	return errors.Join(checks...)
}

// want is nil when ok holds and the formatted failure otherwise.
func want(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// measured is one profiled query run: its answer as sorted rows, its
// Table 10 result count, and its plan's rows out and guard ticks
// summed over every operator.
type measured struct {
	answer      string
	count       int
	rows, ticks int64
	prof        *sparql.Profile
}

func (p *probe) run(eng *sparql.Engine, model, query string) (m measured) {
	if p.err != nil {
		return m
	}
	res, prof, err := eng.QueryProfiledContext(p.ctx, model, query)
	if err != nil {
		p.err = fmt.Errorf("%s: %w", model, err)
		return m
	}
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		lines[i] = fmt.Sprint(row)
	}
	sort.Strings(lines)
	m = measured{answer: strings.Join(lines, "\n"), count: resultCount(res), prof: prof}
	walkProfile(prof.Plan, func(n *sparql.ProfileNode) {
		m.rows += n.RowsOut
		m.ticks += n.GuardTicks
	})
	return m
}

// eq runs the named paper query on se's Table 4 target.
func (p *probe) eq(se *SchemeEnv, name string) measured {
	return p.run(se.Engine, TargetModelFor(se, name), p.env.Queries()[name])
}

// pair runs ngName on NG and spName on SP, which must answer alike.
func (p *probe) pair(ngName, spName string) (ng, sp measured) {
	ng, sp = p.eq(p.env.NG, ngName), p.eq(p.env.SP, spName)
	if p.err == nil && ng.answer != sp.answer {
		p.err = fmt.Errorf("%s on NG and %s on SP answer differently (%d vs %d results)", ngName, spName, ng.count, sp.count)
	}
	return ng, sp
}

func walkProfile(nodes []*sparql.ProfileNode, fn func(*sparql.ProfileNode)) {
	for _, n := range nodes {
		fn(n)
		walkProfile(n.Children, fn)
	}
}

// stepIndex returns the index used by the first BGP step whose
// pattern starts with prefix, "" when no step does.
func stepIndex(m measured, prefix string) string {
	idx := ""
	if m.prof != nil {
		walkProfile(m.prof.Plan, func(n *sparql.ProfileNode) {
			if _, pat, ok := strings.Cut(n.Label, ": "); ok && idx == "" && strings.HasPrefix(pat, prefix) {
				idx = n.Index
			}
		})
	}
	return idx
}

// ratio is a/b to three decimals, finite when a failed run left b = 0.
func ratio(a, b int64) float64 { return math.Round(float64(a)/float64(max(b, 1))*1000) / 1000 }

// edgePairs returns the distinct (src, dst) pairs of g's edges that
// carry one of labels.
func edgePairs(g *pg.Graph, labels ...string) map[[2]pg.ID]bool {
	pairs := map[[2]pg.ID]bool{}
	g.Edges(func(e *pg.Edge) bool {
		if slices.Contains(labels, e.Label) {
			pairs[[2]pg.ID{e.Src, e.Dst}] = true
		}
		return true
	})
	return pairs
}

func claimTable2(p *probe, v Values) error {
	st := p.env.GraphStats
	v["E1"], v["V'"] = st.EdgesWithKVs, st.SubjectVertices
	var checks []error
	for _, se := range p.env.AllSchemes() {
		pred, meas, s := pgrdf.PredictCardinalities(st, se.Scheme), pgrdf.MeasureCardinalities(se.Dataset), se.Scheme.String()
		v[s+".named_graphs"], v[s+".obj_prop_quads"] = meas.NamedGraphs, meas.ObjPropQuads
		v[s+".distinct_subjects"], v[s+".distinct_obj_props"] = meas.DistinctSubjects, meas.DistinctObjProps
		checks = append(checks, want(pred == meas, "%s: predicted %+v, measured %+v", s, pred, meas))
	}
	return p.done(checks...)
}

func claimTable5(p *probe, v Values) error {
	const tag, anchor = "?n <http://pg/k/hasTag> ", "?p <" + rdf.RDFSSubPropertyOf + "> <http://pg/r/follows> "
	ng, sp := p.env.NG, p.env.SP
	var checks []error
	for _, c := range []struct {
		se                   *SchemeEnv
		query, prefix, index string
	}{
		{ng, "EQ1", tag, "PCSGM"}, {sp, "EQ1", tag, "PCSGM"}, {ng, "EQ4", tag, "PCSGM"}, {sp, "EQ4", tag, "PCSGM"},
		{ng, "EQ4", "?n ?k ?v ", "SPCGM"}, {sp, "EQ4", "?n ?k ?v ", "SPCGM"},
		{ng, "EQ8a", "?g1 ?k ?v ", "G"}, {sp, "EQ8b", anchor, "PCSGM"},
	} {
		idx := stepIndex(p.eq(c.se, c.query), c.prefix)
		v[fmt.Sprintf("%s.%s.%s", c.se.Scheme, c.query, strings.TrimSpace(c.prefix))] = idx
		checks = append(checks, want(idx != "" && strings.HasPrefix(idx, c.index),
			"%s %s: %q uses index %q, want %s", c.se.Scheme, c.query, c.prefix, idx, c.index))
	}
	return p.done(checks...)
}

func claimTable6(p *probe, v Values) error {
	st, tc := p.env.GraphStats, pgrdf.CountTriples(p.env.NG.Dataset, Vocab())
	follows, knows, perNode := tc.ByLabel["follows"], tc.ByLabel["knows"], float64(st.Edges)/float64(st.Vertices)
	v["nodes"], v["edges"], v["node_kvs"], v["edge_kvs"] = st.Vertices, st.Edges, st.NodeKVs, st.EdgeKVs
	v["follows"], v["knows"] = follows, knows
	return p.done(
		want(perNode >= 15 && perNode <= 30, "E/V = %.1f, want within [15, 30]", perNode),
		want(st.EdgeKVs > st.NodeKVs, "edge KVs %d <= node KVs %d", st.EdgeKVs, st.NodeKVs),
		want(5*knows < follows, "knows %d not below follows/5 (%d)", knows, follows))
}

func claimTable78(p *probe, v Values) error {
	var st [2]store.DatasetStats
	for i, se := range p.env.SchemeEnvs() {
		var err error
		st[i], err = se.Store.View().Stats(se.Names.All)
		p.err = errors.Join(p.err, err)
		s := se.Scheme.String()
		v[s+".quads"], v[s+".subjects"], v[s+".predicates"] = st[i].Quads, st[i].Subjects, st[i].Predicates
		v[s+".objects"], v[s+".named_graphs"] = st[i].Objects, st[i].NamedGraphs
	}
	ng, sp, e, e1 := st[0], st[1], p.env.GraphStats.Edges, p.env.GraphStats.EdgesWithKVs
	v["E"], v["E1"] = e, e1
	return p.done(
		want(sp.Quads-ng.Quads == 2*e, "SP - NG = %d, want 2E = %d", sp.Quads-ng.Quads, 2*e),
		want(ng.NamedGraphs == e && sp.NamedGraphs == 0, "named graphs NG %d SP %d, want E = %d and 0", ng.NamedGraphs, sp.NamedGraphs, e),
		want(sp.Predicates == e+ng.Predicates+1, "SP predicates %d, want E + NG predicates + 1 = %d", sp.Predicates, e+ng.Predicates+1),
		want(sp.Subjects-ng.Subjects == e-e1, "SP - NG subjects = %d, want E - E1 = %d", sp.Subjects-ng.Subjects, e-e1))
}

func claimTable9(p *probe, v Values) error {
	var rep [3]store.StorageReport
	for i, se := range p.env.AllSchemes() {
		rep[i] = se.Store.View().Storage()
		for _, o := range rep[i].Objects {
			v[se.Scheme.String()+"."+o.Name+" MB"] = math.Round(float64(o.Bytes)/(1<<20)*10) / 10
		}
	}
	rf, ng, sp := rep[0], rep[1], rep[2]
	r := ratio(sp.Total, ng.Total)
	v["RF total"], v["NG total"], v["SP total"], v["SP/NG"] = rf.Total, ng.Total, sp.Total, r
	return p.done(
		want(rf.Total > sp.Total && sp.Total > ng.Total, "totals RF %d SP %d NG %d, want RF > SP > NG", rf.Total, sp.Total, ng.Total),
		want(sp.MB("Triples Table") > ng.MB("Triples Table"), "triples table SP %.1f MB, NG %.1f MB; want SP larger", sp.MB("Triples Table"), ng.MB("Triples Table")),
		want(sp.MB("GPSCM Index") == 0 && ng.MB("GPSCM Index") > 0, "GPSCM: SP %.1f MB, NG %.1f MB; want SP none and NG some", sp.MB("GPSCM Index"), ng.MB("GPSCM Index")),
		want(r >= 0.8 && r <= 1.4, "SP/NG total = %v, want within [0.8, 1.4]", r))
}

func claimFigure4(p *probe, v Values) error {
	out, in, nOut, nIn := map[rdf.Term]int{}, map[rdf.Term]int{}, 0, 0
	for _, q := range p.env.NG.Dataset.All() {
		if out[q.S]++; out[q.S] == 64 {
			nOut++
		}
		if in[q.O]++; in[q.O] == 64 {
			nIn++
		}
	}
	v["out_degree_ge_64"], v["in_degree_ge_64"] = nOut, nIn
	return want(nIn > nOut, "%d nodes with in-degree >= 64, %d with out-degree >= 64; want more in", nIn, nOut)
}

func claimNGMatchesSP(p *probe, v Values) error {
	var checks []error
	for _, name := range []string{"EQ1", "EQ2", "EQ3", "EQ4", "EQ9", "EQ10", "EQ11a", "EQ11b", "EQ11c", "EQ11d", "EQ12"} {
		ng, sp := p.pair(name, name)
		r := ratio(ng.rows, sp.rows)
		v[name+".results"], v[name+".NG/SP rows"] = ng.count, r
		checks = append(checks, want(r >= 0.8 && r <= 1.25, "%s: NG/SP rows = %v, want within [0.8, 1.25]", name, r))
	}
	_, in := p.env.Graph.DegreeDistribution()
	delete(in, 0)
	v["distinct in-degrees"] = len(in)
	return p.done(append(checks, want(v["EQ9.results"] == len(in), "EQ9 rows = %v, distinct positive in-degrees = %d", v["EQ9.results"], len(in)))...)
}

func claimFigure6(p *probe, v Values) error {
	var checks []error
	minQ, minR := "", math.Inf(1)
	for _, q := range []string{"EQ5", "EQ6", "EQ7", "EQ8"} {
		ng, sp := p.pair(q+"a", q+"b")
		r := ratio(ng.rows, sp.rows)
		v[q+".results"], v[q+".NG rows"], v[q+".SP rows"], v[q+".NG/SP"] = ng.count, ng.rows, sp.rows, r
		checks = append(checks, want(ng.rows <= sp.rows, "%s: NG rows %d > SP rows %d", q, ng.rows, sp.rows))
		if r < minR {
			minQ, minR = q, r
		}
	}
	return p.done(append(checks, want(minQ == "EQ7", "smallest NG/SP is %s's %v, want EQ7's", minQ, minR))...)
}

// Enumerating rewrites a path-count query to enumerate: the pattern
// moves into a SELECT * sub-select, which materializes every path the
// COUNT then counts (DESIGN.md §22).
func Enumerating(query string) string {
	i := strings.Index(query, "WHERE {") + len("WHERE {")
	return query[:i] + " { SELECT * WHERE {" + query[i:len(query)-1] + "} } }"
}

func claimFigure8(p *probe, v Values) error {
	var checks []error
	for _, se := range p.env.SchemeEnvs() {
		prev := int64(0)
		for hop, name := range []string{"EQ11a", "EQ11b", "EQ11c", "EQ11d"} {
			q, key := p.env.Queries()[name], fmt.Sprintf("%s.hop%d.", se.Scheme, hop+1)
			enum, count := p.run(se.Engine, TargetModelFor(se, name), Enumerating(q)), p.eq(se, name)
			v[key+"paths"], v[key+"enumerating rows"], v[key+"counting rows"] = count.count, enum.rows, count.rows
			checks = append(checks,
				want(enum.count == count.count, "%s: enumerating counts %d paths, counting %d", key, enum.count, count.count),
				want(hop == 0 || enum.rows >= 10*prev, "%s: enumerating rows %d < 10 × the last hop's %d", key, enum.rows, prev),
				want(count.rows < enum.rows && (hop < 3 || 5*count.rows < enum.rows), "%s: counting rows %d not below enumerating rows %d (a fifth at hop 4)", key, count.rows, enum.rows))
			prev = enum.rows
		}
	}
	return p.done(checks...)
}

func claimFigure9(p *probe, v Values) error {
	// Rows, not guard ticks: the fused intersection ticks per seek, so
	// ticks rank the default plan above index NLJ.
	nlj := sparql.NewEngine(p.env.NG.Store)
	nlj.NestedLoopsOnly = true
	def, only := p.eq(p.env.NG, "EQ12"), p.run(nlj, TargetModelFor(p.env.NG, "EQ12"), p.env.Queries()["EQ12"])
	follows, out, cycles := edgePairs(p.env.Graph, "follows"), map[pg.ID][]pg.ID{}, 0
	for e := range follows {
		out[e[0]] = append(out[e[0]], e[1])
	}
	for e := range follows {
		for _, z := range out[e[1]] {
			if follows[[2]pg.ID{z, e[0]}] {
				cycles++
			}
		}
	}
	v["EQ12"], v["3-cycles"], v["default rows"], v["NLJ rows"], v["default ticks"], v["NLJ ticks"] = def.count, cycles, def.rows, only.rows, def.ticks, only.ticks
	return p.done(
		want(def.count == cycles, "EQ12 = %d, property graph has %d directed 3-cycles", def.count, cycles),
		want(def.answer == only.answer, "EQ12: default plan counts %d, NLJ %d", def.count, only.count),
		want(def.rows < only.rows, "EQ12 default plan rows %d >= NLJ rows %d", def.rows, only.rows))
}

// claimDML runs the DML study the paper defers (§2.1: "the key
// performance metric that distinguishes the three approaches is time
// taken to locate existing quads to delete") by counting what it
// touches: every k-th edge, 200 in all, is deleted with its KVs in one
// Apply and reinserted in another.
func claimDML(p *probe, v Values) error {
	sample, stride, i := pg.NewGraph(), max(1, p.env.GraphStats.Edges/200), 0
	p.env.Graph.Edges(func(e *pg.Edge) bool {
		if i%stride == 0 {
			for _, id := range []pg.ID{e.Src, e.Dst} {
				if sample.Vertex(id) == nil {
					sample.AddVertexWithID(id) //nolint — absent, so added
				}
			}
			se, _ := sample.AddEdgeWithID(e.ID, e.Src, e.Dst, e.Label) // endpoints present, ID fresh
			for _, k := range e.Keys() {
				for _, val := range e.Values(k) {
					se.AddProperty(k, val)
				}
			}
		}
		i++
		return sample.NumEdges() < 200
	})
	n := sample.NumEdges()
	touched, checks := map[pgrdf.Scheme]int{}, []error{}
	for _, se := range p.env.SchemeEnvs() {
		before := sha256.Sum256([]byte(storetest.Fingerprint(se.Store.View())))
		// The sample's endpoints carry no KVs and have an edge each, so
		// its topology and edge-KV partitions are the sampled edges'.
		ds := (&pgrdf.Converter{Scheme: se.Scheme, Vocab: Vocab(), Opts: pgrdf.DefaultOptions()}).Convert(sample)
		ops := edgeOps(se, ds, true)
		_, deleted, err := se.Store.Apply(ops)
		inserted, _, err2 := se.Store.Apply(edgeOps(se, ds, false))
		se.Store.Compact()
		touched[se.Scheme], v[se.Scheme.String()+".quads touched"] = len(ops), len(ops)
		p.err = errors.Join(p.err, err, err2)
		checks = append(checks,
			want(deleted == len(ops) && inserted == len(ops), "%s: deleted %d and reinserted %d of %d quads", se.Scheme, deleted, inserted, len(ops)),
			want(sha256.Sum256([]byte(storetest.Fingerprint(se.Store.View()))) == before, "%s: delete + reinsert changed the store", se.Scheme))
	}
	v["sampled edges"] = n
	d := touched[pgrdf.SP] - touched[pgrdf.NG]
	return p.done(append(checks, want(d == 2*n, "SP - NG quads touched = %d, want 2 × %d sampled edges", d, n))...)
}

func claimInference(p *probe, v Values) error {
	vocab, st := Vocab(), store.New()
	connectedTo, sub := rdf.NewIRI(vocab.RelNS+"connectedTo"), rdf.NewIRI(rdf.RDFSSubPropertyOf)
	eng, inferred := inference.New(st), 0
	_, err := st.Load("asserted", append([]rdf.Quad{
		{S: vocab.LabelIRI("follows"), P: sub, O: connectedTo}, {S: vocab.LabelIRI("knows"), P: sub, O: connectedTo},
	}, p.env.NG.Dataset.Topology...))
	for _, r := range inference.RDFSRules() {
		err = errors.Join(err, eng.AddRule(r))
	}
	if err == nil {
		inferred, err = eng.Run(p.ctx, "", "inferred", inference.Options{})
	}
	p.err = err
	// The default dataset is every model: asserted and inferred.
	m := p.run(sparql.NewEngine(st), "", `SELECT (COUNT(*) AS ?c) WHERE { ?x <`+connectedTo.Value+`> ?y }`)
	pairs := len(edgePairs(p.env.Graph, "follows", "knows"))
	v["inferred"], v["connectedTo"], v["linked pairs"] = inferred, m.count, pairs
	return p.done(want(m.count == pairs, "connectedTo count %d, distinct follows ∪ knows pairs %d", m.count, pairs))
}

func claimPartitioning(p *probe, v Values) error {
	part, full := p.eq(p.env.NG, "EQ8a"), p.run(p.env.NG.Engine, p.env.NG.Names.All, p.env.Queries()["EQ8a"])
	v["partitioned ticks"], v["full-dataset ticks"] = part.ticks, full.ticks
	return p.done(
		want(part.answer == full.answer, "EQ8a answers differ: %d partitioned, %d full", part.count, full.count),
		want(part.ticks < full.ticks, "EQ8a ticks: partitioned %d >= full dataset %d", part.ticks, full.ticks))
}

// EdgeKVQuery is Q2 (every KV of every follows edge) formulated for s.
func EdgeKVQuery(s pgrdf.Scheme) string {
	qb := &pgrdf.QueryBuilder{Scheme: s, Vocab: Vocab()}
	return qb.Select([]string{"x", "y", "k", "v"}, qb.EdgeKVPattern("x", "y", "e", "follows", "k", "v"))
}

func claimEdgeKVSchemes(p *probe, v Values) error {
	var ms [3]measured
	for i, se := range p.env.AllSchemes() {
		ms[i] = p.run(se.Engine, se.Names.TopoEdgeKV, EdgeKVQuery(se.Scheme))
		v[se.Scheme.String()+" rows"] = ms[i].rows
	}
	rf, ng, sp := ms[0], ms[1], ms[2]
	return p.done(
		want(rf.answer == ng.answer && sp.answer == ng.answer, "answers differ: RF %d, NG %d, SP %d results", rf.count, ng.count, sp.count),
		want(rf.rows > sp.rows && sp.rows > ng.rows, "rows RF %d SP %d NG %d, want RF > SP > NG", rf.rows, sp.rows, ng.rows))
}
