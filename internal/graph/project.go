package graph

import (
	"context"
	"fmt"
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

// decoder is what Project and Patch both test quads against: the
// dictionary IDs of the scheme vocabulary and the label filter. An ID is
// NoID while the dictionary has never seen the term, in which case no
// stored quad can carry it.
type decoder struct {
	dict   *store.Dict
	scheme pgrdf.Scheme
	relNS  string
	// byLabel: the projection is restricted to labelID's edges.
	byLabel bool
	labelID, typeID, resourceID,
	subjID, predID, objID,
	spoID, weightID store.ID

	isRel map[store.ID]bool // predicate ID -> is a rel: IRI
}

func newDecoder(dict *store.Dict, opts ProjectOptions) *decoder {
	lookup := func(iri string) store.ID { return dict.Lookup(rdf.NewIRI(iri)) }
	d := &decoder{
		dict:       dict,
		scheme:     opts.Scheme,
		relNS:      opts.Vocab.RelNS,
		byLabel:    opts.Label != "",
		typeID:     lookup(rdf.RDFType),
		resourceID: lookup(rdf.RDFSResource),
		subjID:     lookup(rdf.RDFSubject),
		predID:     lookup(rdf.RDFPredicate),
		objID:      lookup(rdf.RDFObject),
		spoID:      lookup(rdf.RDFSSubPropertyOf),
		isRel:      make(map[store.ID]bool),
	}
	if d.byLabel {
		d.labelID = dict.Lookup(opts.Vocab.LabelIRI(opts.Label))
	}
	if opts.WeightKey != "" {
		d.weightID = dict.Lookup(opts.Vocab.KeyIRI(opts.WeightKey))
	}
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

// plainEdge reports whether q is a plain s-p-o relationship triple in
// the default graph: the ExplicitSPO triples of RF/SP and the
// SingleTripleWhenNoKVs optimization of every scheme. Deduplication
// collapses them with their identified counterparts, so accepting them
// under every scheme keeps the projection correct across every Options
// combination.
func (d *decoder) plainEdge(q store.IDQuad) bool {
	return q.G == store.NoID && q.P != d.spoID && d.matchLabel(q.P)
}

// namedEdge reports whether q is an NG edge quad: a relationship triple
// in a named graph, whose graph term is the edge resource (§2.3 NG).
func (d *decoder) namedEdge(q store.IDQuad) bool {
	return q.G != store.NoID && d.matchLabel(q.P)
}

// marker reports whether q is a -v-rdf:type-rdfs:Resource quad, which
// every scheme emits for a vertex with no KVs and no incident edges.
func (d *decoder) marker(q store.IDQuad) bool {
	return q.P == d.typeID && q.C == d.resourceID && d.typeID != store.NoID && d.resourceID != store.NoID
}

// least picks the rdf.Compare-least of two term IDs. Wherever the
// encodings allow several values but the decoders need one (an edge
// resource with two rdf:subject quads, two subPropertyOf anchors, two
// weight literals) the least one wins, so a projection is a function of
// the store's contents and not of its scan order.
func (d *decoder) least(a, b store.ID) store.ID {
	if a == b || rdf.Compare(d.dict.Term(a), d.dict.Term(b)) <= 0 {
		return a
	}
	return b
}

// keepLeast records v under k unless a smaller value is already there.
func (d *decoder) keepLeast(into map[store.ID]store.ID, k, v store.ID) {
	if old, ok := into[k]; ok {
		v = d.least(old, v)
	}
	into[k] = v
}

// rfEdge decodes one reified statement from its three components
// (NoID = missing).
func (d *decoder) rfEdge(subj, pred, obj store.ID) bool {
	return subj != store.NoID && pred != store.NoID && obj != store.NoID && d.matchLabel(pred)
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

// projector carries the per-run state of one projection: the scheme
// decoders' intermediate maps and the accumulating vertex/edge sets (all
// in store-ID space until the final canonical renumbering).
type projector struct {
	*decoder
	reader
	opts ProjectOptions

	vertices map[store.ID]struct{}
	edges    []idEdge

	// RF join state: reified statement resource -> components.
	rfSubj, rfObj, rfPred map[store.ID]store.ID
	// SP state: edge predicate -> label predicate.
	spLabel map[store.ID]store.ID
	// Weight state: edge resource/predicate ID -> its weight literal.
	weights map[store.ID]weightVal
}

// idEdge is an edge occurrence in store-ID space. edge is the edge
// resource ID (reified statement, named graph, or subproperty
// predicate) used for weight lookup; NoID for plain triples.
type idEdge struct {
	src, dst, edge store.ID
}

// weightVal is a numeric weight literal and its parsed value.
type weightVal struct {
	lit store.ID
	w   float64
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
		rfSubj:   make(map[store.ID]store.ID),
		rfObj:    make(map[store.ID]store.ID),
		rfPred:   make(map[store.ID]store.ID),
		spLabel:  make(map[store.ID]store.ID),
		weights:  make(map[store.ID]weightVal),
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
	return p.collectJoinKeys() && p.decodeEdges() && p.scanWeights() && p.scanIsolated() &&
		(p.scheme != pgrdf.RF || p.joinRF())
}

// collectJoinKeys gathers, per edge resource, the e-rdf:subject-s /
// e-rdf:predicate-p / e-rdf:object-o components of the reification
// scheme (§2.3 RF) or the e-rdfs:subPropertyOf-p anchors (§2.3 SP): the
// build sides of the joins, over the whole dataset before any probe.
func (p *projector) collectJoinKeys() bool {
	collect := func(pred store.ID, into map[store.ID]store.ID) bool {
		if pred == store.NoID {
			return true
		}
		pat := store.Pattern{S: store.Any, P: pred, C: store.Any, G: store.Any}
		return p.drain(pat, func(q store.IDQuad) { p.keepLeast(into, q.S, q.C) })
	}
	switch p.scheme {
	case pgrdf.RF:
		return collect(p.subjID, p.rfSubj) && collect(p.predID, p.rfPred) && collect(p.objID, p.rfObj)
	case pgrdf.SP:
		return collect(p.spoID, p.spLabel)
	}
	return true
}

// decodeEdges runs the plain-triple decoder and the scan side of the
// scheme-specific decoder.
func (p *projector) decodeEdges() bool {
	defaultGraph := store.Pattern{S: store.Any, P: store.Any, C: store.Any, G: store.NoID}
	plain := defaultGraph
	if p.byLabel {
		plain.P = p.labelID
	}
	ok := p.drain(plain, func(q store.IDQuad) {
		if p.plainEdge(q) {
			p.addEdge(q.S, q.C, store.NoID)
		}
	})
	if !ok {
		return false
	}
	switch p.scheme {
	case pgrdf.NG:
		pat := store.Pattern{S: store.Any, P: store.Any, C: store.Any, G: store.Any}
		if p.byLabel {
			pat.P = p.labelID
		}
		return p.drain(pat, func(q store.IDQuad) {
			if p.namedEdge(q) {
				p.addEdge(q.S, q.C, q.G)
			}
		})
	case pgrdf.SP:
		// s-e-o triples whose predicate is an anchored edge predicate.
		if len(p.spLabel) == 0 {
			return true
		}
		return p.drain(defaultGraph, func(q store.IDQuad) {
			if lbl, isEdge := p.spLabel[q.P]; isEdge && p.matchLabel(lbl) {
				p.addEdge(q.S, q.C, q.P)
			}
		})
	}
	return true
}

// joinRF emits one edge per statement resource whose three components
// are all present.
func (p *projector) joinRF() bool {
	for e, s := range p.rfSubj {
		if p.rfEdge(s, p.rfPred[e], p.rfObj[e]) {
			p.addEdge(s, p.rfObj[e], e)
		}
	}
	return p.guard.TickN(len(p.rfSubj))
}

// scanIsolated adds the marker vertices.
func (p *projector) scanIsolated() bool {
	if p.typeID == store.NoID || p.resourceID == store.NoID {
		return true
	}
	pat := store.Pattern{S: store.Any, P: p.typeID, C: p.resourceID, G: store.Any}
	return p.drain(pat, func(q store.IDQuad) { p.vertices[q.S] = struct{}{} })
}

// scanWeights collects -e-key-V literals for the weight key. The edge
// resource is the subject in every scheme (in SP the same resource is
// the edge predicate of the anchor triple).
func (p *projector) scanWeights() bool {
	if p.weightID == store.NoID {
		return true
	}
	pat := store.Pattern{S: store.Any, P: p.weightID, C: store.Any, G: store.Any}
	return p.drain(pat, func(q store.IDQuad) {
		if old, seen := p.weights[q.S]; seen && p.least(old.lit, q.C) == old.lit {
			return
		}
		if val, ok := rdf.LiteralValue(p.dict.Term(q.C)); ok && val.IsNumeric() {
			p.weights[q.S] = weightVal{lit: q.C, w: val.Float()}
		}
	})
}

func (p *projector) addEdge(src, dst, edge store.ID) {
	p.vertices[src] = struct{}{}
	p.vertices[dst] = struct{}{}
	p.edges = append(p.edges, idEdge{src: src, dst: dst, edge: edge})
}

// assemble renumbers the vertex set into canonical term order and
// builds the CSR and its per-edge occurrence counts.
func (p *projector) assemble() (*CSR, []uint32) {
	terms := make([]rdf.Term, 0, len(p.vertices))
	ids := make([]store.ID, 0, len(p.vertices))
	for id := range p.vertices {
		ids = append(ids, id)
		terms = append(terms, p.dict.Term(id))
	}
	// Sort ids by their terms' canonical order, then derive the ID ->
	// vertex-index map from the sorted positions.
	idx := make([]int, len(ids))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return rdf.Compare(terms[idx[i]], terms[idx[j]]) < 0 })
	sorted := make([]rdf.Term, len(ids))
	vertexOf := make(map[store.ID]uint32, len(ids))
	for v, i := range idx {
		sorted[v] = terms[i]
		vertexOf[ids[i]] = uint32(v)
	}

	weighted := p.opts.WeightKey != ""
	raw := make([]rawEdge, len(p.edges))
	for i, e := range p.edges {
		re := rawEdge{src: vertexOf[e.src], dst: vertexOf[e.dst]}
		if e.edge != store.NoID {
			re.identified = true
			if weighted {
				if w, ok := p.weights[e.edge]; ok {
					re.w = w.w
				} else {
					re.w = 1
				}
			}
		}
		raw[i] = re
	}
	return buildCSR(sorted, raw, weighted, p.opts.Reverse)
}

// DetectScheme sniffs which PG-as-RDF scheme a model was transformed
// under by probing for each scheme's signature quads: rdf:subject
// reification triples (RF), rdfs:subPropertyOf edge anchors (SP), and
// relationship quads in named graphs (NG). Datasets holding only plain
// s-p-o relationship triples (the SingleTripleWhenNoKVs degenerate
// case) decode identically under every scheme; NG is reported.
func DetectScheme(st *store.Store, model string, vocab pgrdf.Vocabulary) (pgrdf.Scheme, error) {
	view := st.View()
	models, err := view.ResolveDataset(model)
	if err != nil {
		return pgrdf.NG, fmt.Errorf("graph: detect scheme: %w", err)
	}
	vocab = vocabOrDefault(vocab)
	dict := st.Dict()
	probe := func(pat store.Pattern, accept func(store.IDQuad) bool) bool {
		found := false
		for _, m := range models {
			pat.M = store.ID(m)
			view.Scan(pat, func(q store.IDQuad) bool {
				if accept == nil || accept(q) {
					found = true
					return false
				}
				return true
			})
			if found {
				break
			}
		}
		return found
	}
	if id := dict.Lookup(rdf.NewIRI(rdf.RDFSubject)); id != store.NoID {
		pat := store.Pattern{S: store.Any, P: id, C: store.Any, G: store.Any}
		if probe(pat, nil) {
			return pgrdf.RF, nil
		}
	}
	if id := dict.Lookup(rdf.NewIRI(rdf.RDFSSubPropertyOf)); id != store.NoID {
		pat := store.Pattern{S: store.Any, P: id, C: store.Any, G: store.Any}
		relNS := vocab.RelNS
		if probe(pat, func(q store.IDQuad) bool {
			t := dict.Term(q.C)
			return t.IsIRI() && strings.HasPrefix(t.Value, relNS)
		}) {
			return pgrdf.SP, nil
		}
	}
	return pgrdf.NG, nil
}
