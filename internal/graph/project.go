package graph

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/guard"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
)

// ProjectOptions selects which edge relation to extract from the store.
type ProjectOptions struct {
	// Model is a model or virtual-model name; "" means every model.
	Model string
	// Scheme is the PG-as-RDF model the dataset was transformed under.
	// Use DetectScheme when the caller does not know.
	Scheme pgrdf.Scheme
	// Vocab controls the IRI namespaces; zero value = paper defaults.
	Vocab pgrdf.Vocabulary
	// Label restricts the projection to edges with this label (a rel:
	// predicate local name); "" projects every relationship predicate.
	Label string
	// WeightKey names an edge property to project as the edge weight.
	// Parallel identified edges sum their weights; an identified edge
	// without the key weighs 1. "" projects an unweighted graph.
	WeightKey string
	// Reverse also builds the in-adjacency (required by PageRank).
	Reverse bool
}

// vocabOrDefault fills in the paper's namespaces for a zero Vocabulary.
func vocabOrDefault(v pgrdf.Vocabulary) pgrdf.Vocabulary {
	if v == (pgrdf.Vocabulary{}) {
		return pgrdf.DefaultVocabulary()
	}
	return v
}

// Projection is a CSR together with what Patch needs to carry it to a
// later version of the store it was projected from. It is immutable.
type Projection struct {
	CSR *CSR
	// Version is the store version the CSR reflects — exactly: it was
	// read under the same lock as every quad the CSR was decoded from.
	Version uint64
	// QuadsScanned and EdgesEmitted account for the scan that built the
	// CSR: quads drained from the store, and edge occurrences decoded
	// before parallel edges collapsed. Patch carries them over unchanged.
	QuadsScanned, EdgesEmitted int64

	st     *store.Store
	opts   ProjectOptions // Vocab filled in
	models dataset        // what opts.Model resolved to
	occ    []uint32       // occurrences per edge, parallel to CSR.dst
}

// tmpl is a pgrdf.Template over store IDs. pat holds its S, P, O and G
// slots in columns S, P, C and G: constants bound, the default graph as
// NoID, roles open; col says where each of roles sits, -1 if nowhere.
type tmpl struct {
	pat         [4]store.ID
	col         [len(roles)]int
	dead, named bool // a constant the dictionary never saw; a role in the graph slot
	val         int  // the role whose least value a functional template keeps
}

// roles are the template roles the decoders read. The first three are
// an edge's ends, which vals holds.
var roles = [...]pgrdf.Slot{pgrdf.Src, pgrdf.Dst, pgrdf.Label, pgrdf.Edge, pgrdf.Node, pgrdf.Key, pgrdf.Value}

const (
	rLabel = iota + 2
	rEdge
	rNode
	rKey
	rValue
)

// vals is what an edge decodes to: its source, destination and label,
// NoID while missing.
type vals [3]store.ID

func compile(dict *store.Dict, t pgrdf.Template) tmpl {
	c := tmpl{col: [len(roles)]int{-1, -1, -1, -1, -1, -1, -1}}
	for i, s := range t.Slots() {
		c.pat[i] = store.Any
		switch {
		case s == pgrdf.Default: // a default graph, or else an absent template
			c.pat[i], c.dead = store.NoID, c.dead || i != int(store.ColG)
		case !s.IsRole():
			c.pat[i] = dict.Lookup(rdf.NewIRI(string(s)))
			c.dead = c.dead || c.pat[i] == store.NoID
		default:
			c.named = c.named || i == int(store.ColG)
			if k := slices.Index(roles[:], s); k >= 0 && c.col[k] < 0 {
				c.col[k] = i
				if k <= rLabel || k == rValue {
					c.val = k
				}
			}
		}
	}
	return c
}

// pattern returns the template's pattern, with role k bound to id if k >= 0.
func (c *tmpl) pattern(k int, id store.ID) store.Pattern {
	p := c.pat
	if k >= 0 {
		p[c.col[k]] = id
	}
	return store.Pattern{S: p[0], P: p[1], C: p[2], G: p[3], M: store.Any}
}

func (c *tmpl) matches(q store.IDQuad) bool {
	return !c.dead && c.pattern(-1, 0).Matches(q) && (!c.named || q.G != store.NoID)
}

// at returns the term ID that q holds for role k.
func (c *tmpl) at(q *store.IDQuad, k int) store.ID { return q.Get(store.Col(c.col[k])) }

// decoder is what Project, Patch and DetectScheme test quads against: the
// scheme's templates (pgrdf.Encoding) compiled to dictionary IDs, and the
// label filter. Every identified edge decodes by one rule:
//
//   - a template with a constant predicate is functional: per edge
//     resource, the value of its rdf.Compare-least row wins;
//   - the template with a variable predicate, if any, is the carrier:
//     each of its rows is one occurrence;
//   - an edge resource yields one occurrence per carrier row — exactly
//     one when there is no carrier (RF) — when its source, destination
//     and label are all present and the label passes the filter.
//
// Each row of the plain -s-p-o template is an occurrence too; the CSR
// collapses it with its identified twin.
type decoder struct {
	dict  *store.Dict
	relNS string
	// byLabel: the projection is restricted to labelID's edges.
	byLabel           bool
	labelID, weightID store.ID

	marker, weight tmpl
	functional     []tmpl
	rows           []tmpl // the plain template, then the carrier
	carrier        *tmpl  // nil without one

	isRel map[store.ID]bool // predicate ID -> is a rel: IRI
}

func newDecoder(dict *store.Dict, opts ProjectOptions) *decoder {
	enc := opts.Scheme.Encoding()
	d := &decoder{
		dict:    dict,
		relNS:   opts.Vocab.RelNS,
		byLabel: opts.Label != "",
		marker:  compile(dict, enc.Marker),
		weight:  compile(dict, enc.EdgeKV),
		rows:    []tmpl{compile(dict, enc.Plain)},
		isRel:   make(map[store.ID]bool),
	}
	for _, t := range enc.Edge {
		if t.P.IsRole() {
			d.rows = append(d.rows, compile(dict, t))
			d.carrier = &d.rows[1]
		} else {
			d.functional = append(d.functional, compile(dict, t))
		}
	}
	if d.byLabel {
		// The label narrows the row scans; not a functional one, whose
		// least value is taken before the filter.
		d.labelID = dict.Lookup(opts.Vocab.LabelIRI(opts.Label))
		for i := range d.rows {
			if c := &d.rows[i]; c.col[rLabel] >= 0 {
				c.pat[c.col[rLabel]] = d.labelID
			}
		}
	}
	if opts.WeightKey != "" {
		d.weightID = dict.Lookup(opts.Vocab.KeyIRI(opts.WeightKey))
	}
	d.weight.pat[d.weight.col[rKey]] = d.weightID
	d.weight.dead = d.weightID == store.NoID
	return d
}

// relPred reports whether predicate ID pid is a relationship IRI,
// caching the dictionary round-trip per distinct predicate.
func (d *decoder) relPred(pid store.ID) bool {
	if is, ok := d.isRel[pid]; ok {
		return is
	}
	t := d.dict.Term(pid)
	is := t.IsIRI() && strings.HasPrefix(t.Value, d.relNS)
	d.isRel[pid] = is
	return is
}

// matchLabel applies the label filter to a label predicate ID.
func (d *decoder) matchLabel(lbl store.ID) bool {
	if d.byLabel {
		return lbl == d.labelID
	}
	return d.relPred(lbl)
}

// occurrence completes v with the ends that row q of template c holds (c
// nil: none) and reports whether the result is an edge passing the label
// filter.
func (d *decoder) occurrence(v vals, c *tmpl, q *store.IDQuad) (vals, bool) {
	for k := range v {
		if c != nil && c.col[k] >= 0 {
			v[k] = c.at(q, k)
		}
	}
	return v, v[0] != store.NoID && v[1] != store.NoID && v[rLabel] != store.NoID && d.matchLabel(v[rLabel])
}

// least picks the rdf.Compare-least of two term IDs, NoID standing for
// none. Wherever the encodings allow several values but the decoders
// need one (an edge resource with two rdf:subject quads, two
// subPropertyOf anchors, two weight literals) the least one wins, so a
// projection is a function of the store's contents and not of its scan
// order.
func (d *decoder) least(a, b store.ID) store.ID {
	if a == b || b == store.NoID || a != store.NoID && rdf.Compare(d.dict.Term(a), d.dict.Term(b)) <= 0 {
		return a
	}
	return b
}

// dataset is the set of models a projection reads; nil is every model.
// Scans leave the model column open and filter on membership, so a
// dataset of several partitions is still one pass over each index range.
type dataset []store.ModelID

func resolveDataset(v *store.View, model string) (dataset, error) {
	if model == "" {
		return nil, nil
	}
	return v.ResolveDataset(model)
}

func (d dataset) has(m store.ModelID) bool {
	for _, dm := range d {
		if dm == m {
			return true
		}
	}
	return d == nil
}

// reader is the row source of projector and patcher: one consistent
// view of the store, narrowed to the dataset.
type reader struct {
	view    *store.View
	models  dataset
	guard   *guard.Guard
	scanned int64 // quads drained
}

// drain feeds fn every quad of the dataset matching pat (whose model
// column is left open), batch-at-a-time straight from the index runs,
// ticking the guard one work unit per drained quad — the only way
// internal/graph reads the store, so every scan is a cancellation point
// by construction. It reports false when the guard tripped.
func (r *reader) drain(pat store.Pattern, fn func(store.IDQuad)) bool {
	pat.M = store.Any
	ok := true
	r.view.ScanBatch(pat, store.DefaultBatchRows, func(batch []store.IDQuad) bool {
		if ok = r.guard.TickN(len(batch)); !ok {
			return false
		}
		r.scanned += int64(len(batch))
		for _, q := range batch {
			if r.models.has(q.M) {
				fn(q)
			}
		}
		return true
	})
	return ok
}

// projector carries the per-run state of one projection: the functional
// templates' values and the accumulating vertex/edge sets (all in
// store-ID space until the final canonical renumbering).
type projector struct {
	*decoder
	reader
	opts ProjectOptions

	vertices map[store.ID]struct{}
	edges    []idEdge

	// fn holds, per functional template, each edge resource's least value.
	fn []map[store.ID]store.ID
	// weights: edge resource ID -> its least weight literal.
	weights map[store.ID]store.ID
}

// idEdge is an edge occurrence in store-ID space. edge is the edge
// resource ID (reified statement, named graph, or subproperty
// predicate) used for weight lookup; NoID for plain triples.
type idEdge struct {
	src, dst, edge store.ID
}

// Project extracts the edge relation selected by opts from one
// consistent state of the store and assembles it into a CSR. It honors
// ctx cancellation and the budget; every drained quad costs one work
// unit.
func Project(ctx context.Context, st *store.Store, opts ProjectOptions, b Budget) (*CSR, error) {
	pr, err := NewProjection(ctx, st, opts, b)
	if err != nil {
		return nil, err
	}
	return pr.CSR, nil
}

// NewProjection is Project keeping what Patch needs to follow the store
// afterwards. The scan reads one pinned store.View, so the projection's
// Version labels exactly the contents it was built from.
func NewProjection(ctx context.Context, st *store.Store, opts ProjectOptions, b Budget) (pr *Projection, err error) {
	defer guard.Recover(&err)
	g, cancel, err := guard.Start(ctx, b)
	if err != nil {
		return nil, err
	}
	defer cancel()
	opts.Vocab = vocabOrDefault(opts.Vocab)

	p := &projector{
		decoder:  newDecoder(st.Dict(), opts),
		reader:   reader{guard: g},
		opts:     opts,
		vertices: make(map[store.ID]struct{}),
		weights:  make(map[store.ID]store.ID),
	}
	for range p.functional {
		p.fn = append(p.fn, make(map[store.ID]store.ID))
	}
	p.view = st.View()
	pr = &Projection{st: st, opts: opts, Version: p.view.Version}
	if pr.models, err = resolveDataset(p.view, opts.Model); err != nil {
		return nil, fmt.Errorf("graph: project: %w", err)
	}
	p.models = pr.models
	p.scan()
	if err := g.Err(); err != nil {
		return nil, err
	}
	pr.QuadsScanned, pr.EdgesEmitted = p.scanned, int64(len(p.edges))
	pr.CSR, pr.occ = p.assemble()
	return pr, nil
}

// scan decodes the dataset's edges, isolated vertices and weights. It
// reports false when the guard tripped.
func (p *projector) scan() bool {
	// A label the dictionary has never seen matches no edge in any
	// scheme, but isolated vertices are still part of the projection.
	if p.byLabel && p.labelID == store.NoID {
		return p.scanIsolated()
	}
	for k := range p.functional {
		if !p.collect(&p.functional[k], p.fn[k]) {
			return false
		}
	}
	return p.collect(&p.weight, p.weights) && p.decodeRows() && p.scanIsolated()
}

// collect gathers template f's least value per edge resource: the build
// sides of the joins (RF's components, SP's anchors), or the weights.
func (p *projector) collect(f *tmpl, into map[store.ID]store.ID) bool {
	return f.dead || p.drain(f.pattern(-1, 0), func(q store.IDQuad) {
		if f.matches(q) {
			into[f.at(&q, rEdge)] = p.least(into[f.at(&q, rEdge)], f.at(&q, f.val))
		}
	})
}

// valsOf returns what edge resource e's functional templates decoded to.
func (p *projector) valsOf(e store.ID) (v vals) {
	for k := range p.functional {
		v[p.functional[k].val] = p.fn[k][e]
	}
	return v
}

// decodeRows drains the plain and the carrier template; without a
// carrier, it joins the functional values.
func (p *projector) decodeRows() bool {
	// With a functional template that has no rows, no carrier row is an edge.
	incomplete := slices.ContainsFunc(p.fn, func(m map[store.ID]store.ID) bool { return len(m) == 0 })
	for i := range p.rows {
		c := &p.rows[i]
		if c.dead || c == p.carrier && incomplete {
			continue
		}
		if !p.drain(c.pattern(-1, 0), func(q store.IDQuad) {
			if !c.matches(q) {
				return
			}
			var v vals
			e := store.NoID
			if c == p.carrier {
				e = c.at(&q, rEdge)
				v = p.valsOf(e)
			}
			if v, ok := p.occurrence(v, c, &q); ok {
				p.addEdge(v, e)
			}
		}) {
			return false
		}
	}
	if p.carrier != nil || len(p.fn) == 0 {
		return true
	}
	for e := range p.fn[0] {
		if v, ok := p.occurrence(p.valsOf(e), nil, nil); ok {
			p.addEdge(v, e)
		}
	}
	return p.guard.TickN(len(p.fn[0]))
}

// scanIsolated adds the marker vertices.
func (p *projector) scanIsolated() bool {
	m := &p.marker
	return m.dead || p.drain(m.pattern(-1, 0), func(q store.IDQuad) {
		if m.matches(q) {
			p.vertices[m.at(&q, rNode)] = struct{}{}
		}
	})
}

func (p *projector) addEdge(v vals, edge store.ID) {
	p.vertices[v[0]] = struct{}{}
	p.vertices[v[1]] = struct{}{}
	p.edges = append(p.edges, idEdge{src: v[0], dst: v[1], edge: edge})
}

// assemble renumbers the vertex set into canonical term order and
// builds the CSR and its per-edge occurrence counts.
func (p *projector) assemble() (*CSR, []uint32) {
	type vertex struct {
		id   store.ID
		term rdf.Term
	}
	vs := make([]vertex, 0, len(p.vertices))
	for id := range p.vertices {
		vs = append(vs, vertex{id, p.dict.Term(id)})
	}
	sort.Slice(vs, func(i, j int) bool { return rdf.Compare(vs[i].term, vs[j].term) < 0 })
	sorted := make([]rdf.Term, len(vs))
	vertexOf := make(map[store.ID]uint32, len(vs))
	for i, v := range vs {
		sorted[i], vertexOf[v.id] = v.term, uint32(i)
	}

	weighted := p.opts.WeightKey != ""
	raw := make([]rawEdge, len(p.edges))
	for i, e := range p.edges {
		re := rawEdge{src: vertexOf[e.src], dst: vertexOf[e.dst]}
		if e.edge != store.NoID {
			re.identified = true
			if weighted {
				re.w = 1
				if lit, ok := p.weights[e.edge]; ok {
					if val, ok := rdf.LiteralValue(p.dict.Term(lit)); ok && val.IsNumeric() {
						re.w = val.Float()
					}
				}
			}
		}
		raw[i] = re
	}
	return buildCSR(sorted, raw, weighted, p.opts.Reverse)
}

// ResolveScheme maps a scheme name onto a scheme the way /algo and
// pgrdf algo read one: "" and "auto" (any case and spacing) sniff the
// model with DetectScheme under the default vocabulary, and anything
// else goes to pgrdf.ParseScheme.
func ResolveScheme(st *store.Store, model, name string) (pgrdf.Scheme, error) {
	if n := strings.TrimSpace(name); n == "" || strings.EqualFold(n, "auto") {
		return DetectScheme(st, model, pgrdf.Vocabulary{})
	}
	return pgrdf.ParseScheme(name)
}

// DetectScheme sniffs which PG-as-RDF scheme a model was transformed
// under by probing for a row of each scheme's first functional template
// (see decoder): an rdf:subject triple (RF), an rdfs:subPropertyOf anchor
// on a relationship IRI (SP). Without either it reports the scheme that
// has none (NG), also for plain s-p-o triples only, which decode alike
// under every scheme.
func DetectScheme(st *store.Store, model string, vocab pgrdf.Vocabulary) (pgrdf.Scheme, error) {
	view := st.View()
	models, err := view.ResolveDataset(model)
	if err != nil {
		return 0, fmt.Errorf("graph: detect scheme: %w", err)
	}
	var fallback pgrdf.Scheme
	for _, s := range pgrdf.Schemes {
		d := newDecoder(st.Dict(), ProjectOptions{Scheme: s, Vocab: vocabOrDefault(vocab)})
		if len(d.functional) == 0 {
			fallback = s
			continue
		}
		f, hit := &d.functional[0], false
		view.Scan(f.pattern(-1, 0), func(q store.IDQuad) bool {
			hit = dataset(models).has(q.M) && f.matches(q) && (f.val != rLabel || d.relPred(f.at(&q, rLabel)))
			return !hit
		})
		if hit {
			return s, nil
		}
	}
	return fallback, nil
}
