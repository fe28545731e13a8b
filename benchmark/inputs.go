package main

// Inputs: one generated property graph per run, converted to the
// workload's encoding, and one seeded request list per pass.
//
// The graph comes from the paper-shaped generator at its fixed seed, so
// every run of a workload serves the same dataset; -seed draws the
// request parameters, their order and the updated edges. Parameters are
// stratified rather than sampled: each tag appears exactly as often as
// Zipf(1.0) predicts for the list length, and the scan classes walk a
// fixed pool of tags and start nodes. The work in a pass is then the
// same for every seed, and what the seed changes is the interleaving —
// which plans the 256-entry cache holds when a text comes round again.

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/twitter"
)

// request is one HTTP call of a pass.
type request struct {
	Class string // EQ1 … EQ12, insert, delete, update, project, pagerank, wcc, triangles
	Path  string // /sparql, /update or /algo
	Body  string // form-encoded or JSON request body
	JSON  bool   // body is JSON (POST /algo)
	Text  string // SPARQL text, or the algorithm name on /algo
	Edge  int    // updated edge number on /update, else -1
	Reply string // the exact body /update must answer with
}

func (r request) contentType() string {
	if r.JSON {
		return "application/json"
	}
	return "application/x-www-form-urlencoded"
}

// inputs is everything derived from the graph that request building needs.
type inputs struct {
	graph   *pg.Graph
	vocab   pgrdf.Vocabulary
	tags    []string // by node count, most frequent first
	nodes   []string // vertex IRIs in id order
	ids     []pg.ID  // vertex ids, parallel to nodes
	starts  []string // EQ11d start nodes: follows out-degree nearest the paper's 21
	queries map[string]string

	generateMS float64
}

// startPool is how many distinct EQ11d start nodes a scan list walks;
// 4-hop path counts differ by orders of magnitude between nodes, so the
// pool is pinned to nodes shaped like the paper's start node.
const startPool = 16

func newInputs(scale float64) *inputs {
	in := &inputs{vocab: pgrdf.DefaultVocabulary(), queries: sparql.PaperQueries()}
	start := time.Now()
	in.graph = twitter.Generate(twitter.PaperConfig().Scale(scale))
	in.generateMS = msSince(start)

	counts := map[string]int{}
	type degree struct {
		id  pg.ID
		off int
	}
	var degrees []degree
	in.graph.Vertices(func(v *pg.Vertex) bool {
		in.nodes = append(in.nodes, in.vocab.VertexIRI(v.ID).Value)
		in.ids = append(in.ids, v.ID)
		for _, val := range v.Values("hasTag") {
			counts[val.Str]++
		}
		d := 0
		for _, e := range in.graph.OutEdges(v.ID) {
			if e.Label == "follows" {
				d++
			}
		}
		degrees = append(degrees, degree{v.ID, abs(d - 21)})
		return true
	})
	for t := range counts {
		in.tags = append(in.tags, t)
	}
	sort.Slice(in.tags, func(i, j int) bool {
		a, b := in.tags[i], in.tags[j]
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		return a < b
	})
	sort.Slice(degrees, func(i, j int) bool {
		if degrees[i].off != degrees[j].off {
			return degrees[i].off < degrees[j].off
		}
		return degrees[i].id < degrees[j].id
	})
	for i := 0; i < len(degrees) && i < startPool; i++ {
		in.starts = append(in.starts, in.vocab.VertexIRI(degrees[i].id).Value)
	}
	return in
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// convert encodes the graph under the workload's scheme.
func (in *inputs) convert(scheme pgrdf.Scheme) *pgrdf.Dataset {
	conv := &pgrdf.Converter{Scheme: scheme, Vocab: in.vocab, Opts: pgrdf.DefaultOptions()}
	return conv.Convert(in.graph)
}

// queryText instantiates a Table 10 query for a tag or start node.
func (in *inputs) queryText(class, param string) string {
	q := in.queries[class]
	q = strings.ReplaceAll(q, "#webseries", param)
	return strings.ReplaceAll(q, "http://pg/n6160742", param)
}

func readRequest(class, text string) request {
	return request{Class: class, Path: "/sparql", Text: text, Edge: -1,
		Body: url.Values{"query": {text}}.Encode()}
}

// zipfCounts splits n draws over k ranks in proportion to 1/rank,
// rounding by largest remainder so the counts sum to n exactly.
func zipfCounts(n, k int) []int {
	if k == 0 {
		return nil
	}
	h := 0.0
	for r := 1; r <= k; r++ {
		h += 1 / float64(r)
	}
	counts := make([]int, k)
	type rem struct {
		rank int
		frac float64
	}
	rems := make([]rem, k)
	left := n
	for r := 0; r < k; r++ {
		exact := float64(n) / (float64(r+1) * h)
		counts[r] = int(exact)
		left -= counts[r]
		rems[r] = rem{r, exact - float64(counts[r])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; i < left; i++ {
		counts[rems[i].rank]++
	}
	return counts
}

// lookupReads returns n read requests over the seven lookup classes in
// equal shares: tags in exact Zipf(1.0) proportion, EQ11b start nodes
// drawn uniformly.
func (in *inputs) lookupReads(rng *rand.Rand, n int) []request {
	out := make([]request, 0, n)
	for ci, class := range lookupClasses {
		share := n / len(lookupClasses)
		if ci < n%len(lookupClasses) {
			share++
		}
		if class == "EQ11b" {
			for i := 0; i < share; i++ {
				out = append(out, readRequest(class, in.queryText(class, in.nodes[rng.Intn(len(in.nodes))])))
			}
			continue
		}
		for rank, c := range zipfCounts(share, len(in.tags)) {
			text := in.queryText(class, in.tags[rank])
			for i := 0; i < c; i++ {
				out = append(out, readRequest(class, text))
			}
		}
	}
	return out
}

// scanReads returns n requests: 10% EQ3 over the 20 most frequent tags,
// 10% EQ12, and EQ9, EQ10 and EQ11d sharing the rest.
func (in *inputs) scanReads(n int) []request {
	out := make([]request, 0, n)
	tenth := max(n/10, 1)
	top := min(20, len(in.tags))
	for i := 0; i < tenth; i++ {
		out = append(out, readRequest("EQ3", in.queryText("EQ3", in.tags[i%top])))
	}
	for i := 0; i < tenth; i++ {
		out = append(out, readRequest("EQ12", in.queryText("EQ12", "")))
	}
	rest := []string{"EQ9", "EQ10", "EQ11d"}
	for i := 0; len(out) < n; i++ {
		class := rest[i%len(rest)]
		param := in.starts[(i/len(rest))%len(in.starts)]
		out = append(out, readRequest(class, in.queryText(class, param)))
	}
	return out
}

// Updated edges live beside the dataset: fresh edge IRIs between a
// fixed pool of writer nodes, tagged with values no read asks for, so
// every read has one right answer whatever the interleaving with
// writes, and the dictionary grows by one term per insert.
const (
	writerNodes = 1000
	writerTags  = 64
	benchMarker = "@bench"
)

// edgeQuads returns the three NG quads of updated edge i: the edge quad
// and two edge-KV quads, all in the edge's named graph.
func (in *inputs) edgeQuads(i int) []rdf.Quad {
	e := rdf.NewIRI(fmt.Sprintf("%sew%d", in.vocab.EdgeNS, i))
	s := rdf.NewIRI(fmt.Sprintf("%snw%d", in.vocab.VertexNS, i%writerNodes))
	o := rdf.NewIRI(fmt.Sprintf("%snw%d", in.vocab.VertexNS, (i*7+1)%writerNodes))
	return []rdf.Quad{
		rdf.NewQuad(s, in.vocab.LabelIRI("follows"), o, e),
		rdf.NewQuad(e, in.vocab.KeyIRI("hasTag"), rdf.NewLiteral(fmt.Sprintf("#w%d", i%writerTags)), e),
		rdf.NewQuad(e, in.vocab.KeyIRI("refs"), rdf.NewLiteral(benchMarker), e),
	}
}

// updateText renders INSERT DATA or DELETE DATA for quads, each inside
// its GRAPH block when it has one.
func updateText(verb string, quads []rdf.Quad) string {
	var b strings.Builder
	b.WriteString(verb)
	b.WriteString(" DATA {")
	for _, q := range quads {
		if q.G.IsZero() {
			fmt.Fprintf(&b, " %s %s %s .", q.S, q.P, q.O)
		} else {
			fmt.Fprintf(&b, " GRAPH %s { %s %s %s }", q.G, q.S, q.P, q.O)
		}
	}
	b.WriteString(" }")
	return b.String()
}

func updateRequest(class, verb string, edge int, quads []rdf.Quad) request {
	text := updateText(verb, quads)
	reply := fmt.Sprintf("{\"inserted\":%d,\"deleted\":0}\n", len(quads))
	if verb == "DELETE" {
		reply = fmt.Sprintf("{\"inserted\":0,\"deleted\":%d}\n", len(quads))
	}
	return request{Class: class, Path: "/update", Text: text, Edge: edge, Reply: reply,
		Body: url.Values{"update": {text}, "model": {"data"}}.Encode()}
}

// mixedList is pass p of mixed-rw-ng: 80% lookups, 10% inserts of fresh
// edges, 10% deletes of the edges the previous pass inserted (pass 0
// deletes edges from the prepared WAL tail), so the store stays level
// and every pass does the same work. Reads and positions are identical
// across passes; only the edge numbers move.
func (in *inputs) mixedList(rng *rand.Rand, n, pass, prepared int) []request {
	w := max(n/10, 1)
	out := in.lookupReads(rng, n-2*w)
	for j := 0; j < w; j++ {
		ins := prepared + pass*w + j
		del := prepared + (pass-1)*w + j
		if pass == 0 {
			del = j
		}
		out = append(out,
			updateRequest("insert", "INSERT", ins, in.edgeQuads(ins)),
			updateRequest("delete", "DELETE", del, in.edgeQuads(del)))
	}
	return out
}

// follows reports whether the graph has a follows edge from node a to node b.
func (in *inputs) follows(a, b int) bool {
	for _, e := range in.graph.OutEdges(in.ids[a]) {
		if e.Label == "follows" && e.Dst == in.ids[b] {
			return true
		}
	}
	return false
}

// toggleQuads is the reified edge algo-rf inserts and deletes in turn
// (any change of the store invalidates the server's cached CSR): a
// follows edge between two seeded nodes that have none yet, so deleting
// it takes nothing of the dataset along.
func (in *inputs) toggleQuads(rng *rand.Rand) []rdf.Quad {
	a, b := rng.Intn(len(in.nodes)), rng.Intn(len(in.nodes))
	for a == b || in.follows(a, b) {
		a, b = rng.Intn(len(in.nodes)), rng.Intn(len(in.nodes))
	}
	e := rdf.NewIRI(in.vocab.EdgeNS + "et0")
	s, o := rdf.NewIRI(in.nodes[a]), rdf.NewIRI(in.nodes[b])
	p := in.vocab.LabelIRI("follows")
	return []rdf.Quad{
		{S: e, P: rdf.NewIRI(rdf.RDFSubject), O: s},
		{S: e, P: rdf.NewIRI(rdf.RDFPredicate), O: p},
		{S: e, P: rdf.NewIRI(rdf.RDFObject), O: o},
		{S: s, P: p, O: o},
	}
}

func algoRequest(class, algo string) request {
	return request{Class: class, Path: "/algo", JSON: true, Text: algo, Edge: -1,
		Body: fmt.Sprintf(`{"algo":%q,"k":10}`, algo)}
}

// algoCycle is the number of requests in one algo-rf cycle: a toggle
// update, the PageRank that pays for projection, then 13 calls on the
// cached CSR (5 PageRank, 6 WCC, 2 triangles) in seeded order.
const algoCycle = 15

// algoList is one pass of algo-rf. A pass holds an even number of
// cycles and toggles one edge in and out, so the store is level between
// passes.
func (in *inputs) algoList(rng *rand.Rand, n int) []request {
	cycles := max(n/algoCycle/2, 1) * 2
	toggle := in.toggleQuads(rng)
	var out []request
	for c := 0; c < cycles; c++ {
		verb := "INSERT"
		if c%2 == 1 {
			verb = "DELETE"
		}
		out = append(out, updateRequest("update", verb, 0, toggle), algoRequest("project", "pagerank"))
		cached := make([]request, 0, algoCycle-2)
		for i := 0; i < 5; i++ {
			cached = append(cached, algoRequest("pagerank", "pagerank"))
		}
		for i := 0; i < 6; i++ {
			cached = append(cached, algoRequest("wcc", "wcc"))
		}
		for i := 0; i < 2; i++ {
			cached = append(cached, algoRequest("triangles", "triangles"))
		}
		rng.Shuffle(len(cached), func(i, j int) { cached[i], cached[j] = cached[j], cached[i] })
		out = append(out, cached...)
	}
	return out
}

// passList builds the request list of one pass of a workload.
func (in *inputs) passList(w workload, seed int64, n, pass, prepared int) []request {
	rng := rand.New(rand.NewSource(seed))
	var out []request
	switch w.Name {
	case "lookup-ng":
		out = in.lookupReads(rng, n)
	case "scan-sp":
		out = in.scanReads(n)
	case "mixed-rw-ng":
		out = in.mixedList(rng, n, pass, prepared)
	default:
		return in.algoList(rng, n) // cycles keep their order
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }
