package graph

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
)

// The incremental ≡ from-scratch differential: after every update a
// patched projection must equal a fresh one — terms, offsets, both
// adjacencies, weights, the occurrence counts the next patch builds on,
// the version label — and the three algorithms must agree on it.

// placed is a quad and the partition model it belongs in.
type placed struct {
	model string
	q     rdf.Quad
}

// edgeQuads converts one edge the way the bulk converter would and
// places its quads in their partitions.
func edgeQuads(t *testing.T, conv *pgrdf.Converter, names pgrdf.ModelNames, id, src, dst pg.ID, label string, weight float64) []placed {
	t.Helper()
	g := pg.NewGraph()
	for _, v := range []pg.ID{src, dst} {
		if g.Vertex(v) == nil {
			if _, err := g.AddVertexWithID(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	e, err := g.AddEdgeWithID(id, src, dst, label)
	if err != nil {
		t.Fatal(err)
	}
	if weight != 0 {
		e.SetProperty("weight", pg.F(weight))
	}
	return place(conv.Convert(g), names)
}

func place(ds *pgrdf.Dataset, names pgrdf.ModelNames) []placed {
	var out []placed
	for _, q := range ds.Topology {
		out = append(out, placed{names.Topology, q})
	}
	for _, q := range ds.NodeKV {
		out = append(out, placed{names.NodeKV, q})
	}
	for _, q := range ds.EdgeKV {
		out = append(out, placed{names.EdgeKV, q})
	}
	return out
}

func markerQuad(names pgrdf.ModelNames, v pg.ID) placed {
	return placed{names.Topology, rdf.Quad{
		S: pgrdf.DefaultVocabulary().VertexIRI(v), P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(rdf.RDFSResource)}}
}

func fingerprint(t *testing.T, cs *CSR) string {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	r := Runner{Parallelism: 1}
	ctx := context.Background()
	if cs.HasReverse() {
		pr, err := r.PageRank(ctx, cs, PageRankOptions{Weighted: cs.Weighted()})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range pr.Scores {
			put(math.Float64bits(s))
		}
	}
	wcc, err := r.WCC(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range wcc.Labels {
		put(uint64(l))
	}
	tri, err := r.Triangles(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	put(uint64(tri.Count))
	return fmt.Sprintf("%016x", h.Sum64())
}

// follower applies updates to a store and keeps one projection patched
// behind it, checking it against a from-scratch projection every time.
type follower struct {
	t    *testing.T
	st   *store.Store
	pr   *Projection
	name string

	patches, relabels int
	rebuilds          map[string]int
}

func newFollower(t *testing.T, st *store.Store, opts ProjectOptions, name string) *follower {
	t.Helper()
	pr, err := NewProjection(context.Background(), st, opts, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	return &follower{t: t, st: st, pr: pr, name: name, rebuilds: map[string]int{}}
}

func (f *follower) apply(p placed, insert bool) {
	f.t.Helper()
	var changed bool
	var err error
	if insert {
		changed, err = f.st.Insert(p.model, p.q)
	} else {
		changed, err = f.st.Delete(p.model, p.q)
	}
	if err != nil || !changed {
		f.t.Fatalf("%s: update (insert=%v) of %v: changed=%v err=%v", f.name, insert, p.q, changed, err)
	}
}

// catchUp patches the projection to the store's version and checks it.
func (f *follower) catchUp(step string) PatchInfo {
	f.t.Helper()
	ctx := context.Background()
	next, info, err := f.pr.Patch(ctx, Budget{})
	if err != nil {
		f.t.Fatalf("%s %s: Patch: %v", f.name, step, err)
	}
	fresh, err := NewProjection(ctx, f.st, f.pr.opts, Budget{})
	if err != nil {
		f.t.Fatal(err)
	}
	if info.Rebuild != "" {
		if next != nil {
			f.t.Fatalf("%s %s: rebuild %q came with a projection", f.name, step, info.Rebuild)
		}
		f.rebuilds[info.Rebuild]++
		f.pr = fresh
		return info
	}
	if info.Copied {
		f.patches++
	} else {
		f.relabels++
		if next.CSR != f.pr.CSR {
			f.t.Fatalf("%s %s: an empty patch must share the CSR", f.name, step)
		}
	}
	if next.Version != f.st.Version() || next.Version != fresh.Version {
		f.t.Fatalf("%s %s: version label %d, store at %d", f.name, step, next.Version, f.st.Version())
	}
	if !reflect.DeepEqual(next.CSR, fresh.CSR) {
		csrEqual(f.t, fresh.CSR, next.CSR, f.name+" "+step) // says where
		f.t.Fatalf("%s %s: patched CSR differs from a fresh projection", f.name, step)
	}
	if !reflect.DeepEqual(next.occ, fresh.occ) {
		f.t.Fatalf("%s %s: occurrence counts %v, fresh %v", f.name, step, next.occ, fresh.occ)
	}
	if got, want := fingerprint(f.t, next.CSR), fingerprint(f.t, fresh.CSR); got != want {
		f.t.Fatalf("%s %s: algorithm fingerprint %s, fresh %s", f.name, step, got, want)
	}
	f.pr = next
	return info
}

type diffConfig struct {
	scheme pgrdf.Scheme
	opts   pgrdf.Options
	label  string
	weight string
}

func (c diffConfig) String() string {
	return fmt.Sprintf("%s/spo=%v/single=%v/label=%q/weight=%q",
		c.scheme, c.opts.ExplicitSPO, c.opts.SingleTripleWhenNoKVs, c.label, c.weight)
}

func diffConfigs() []diffConfig {
	var out []diffConfig
	for _, s := range pgrdf.Schemes {
		for _, o := range []pgrdf.Options{
			{ExplicitSPO: true},
			{ExplicitSPO: false},
			{ExplicitSPO: true, SingleTripleWhenNoKVs: true},
		} {
			out = append(out,
				diffConfig{scheme: s, opts: o},
				diffConfig{scheme: s, opts: o, label: "follows"},
				diffConfig{scheme: s, opts: o, weight: "weight"})
		}
	}
	return out
}

// loadConfig loads a seeded random graph under cfg and returns the
// store, its partition names, the converter, and every loaded quad.
func loadConfig(t *testing.T, cfg diffConfig, seed int64, nv, ne int) (*store.Store, pgrdf.ModelNames, *pgrdf.Converter, []placed) {
	t.Helper()
	st, err := pgrdf.NewStore(cfg.scheme)
	if err != nil {
		t.Fatal(err)
	}
	conv := pgrdf.NewConverter(cfg.scheme)
	conv.Opts = cfg.opts
	g := randomGraph(t, seed, nv, ne)
	ds := conv.Convert(g)
	names, err := pgrdf.LoadPartitioned(st, ds, "pg")
	if err != nil {
		t.Fatal(err)
	}
	return st, names, conv, place(ds, names)
}

// TestPatchDifferentialRandom drives seeded single-quad updates — so
// every partial state of an edge's encoding is visited — and patches
// after every one to four of them.
func TestPatchDifferentialRandom(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 120
	}
	for i, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			const nv = 14
			st, names, conv, loaded := loadConfig(t, cfg, int64(100+i), nv, 40)
			f := newFollower(t, st, ProjectOptions{
				Model: names.All, Scheme: cfg.scheme, Label: cfg.label, WeightKey: cfg.weight, Reverse: true,
			}, cfg.String())
			rng := rand.New(rand.NewSource(int64(7 + i)))

			var present, absent []placed // quads of known edges in and not in the store
			has := map[placed]bool{}
			for _, p := range loaded { // parallel edges share their plain triple
				if !has[p] {
					has[p] = true
					present = append(present, p)
				}
			}
			nextEdge := pg.ID(100000)
			labels := []string{"follows", "knows"}
			pending := 0
			for step := 0; step < steps; step++ {
				switch r := rng.Intn(100); {
				case r < 20 || len(absent) == 0 && r < 45:
					// A new edge enters the pool: among old vertices, or to a
					// vertex the graph has never seen.
					src, dst := pg.ID(rng.Intn(nv+4)+1), pg.ID(rng.Intn(nv+4)+1)
					w := 0.0
					if rng.Intn(2) == 0 {
						w = float64(rng.Intn(9) + 1)
					}
					for _, p := range edgeQuads(t, conv, names, nextEdge, src, dst, labels[rng.Intn(2)], w) {
						if !has[p] {
							absent = append(absent, p)
						}
					}
					nextEdge++
					continue
				case r < 45:
					k := rng.Intn(len(absent))
					p := absent[k]
					absent = append(absent[:k], absent[k+1:]...)
					if has[p] {
						continue
					}
					f.apply(p, true)
					has[p] = true
					present = append(present, p)
				case r < 80:
					if len(present) == 0 {
						continue
					}
					k := rng.Intn(len(present))
					p := present[k]
					present = append(present[:k], present[k+1:]...)
					f.apply(p, false)
					delete(has, p)
					absent = append(absent, p)
				case r < 90:
					m := markerQuad(names, pg.ID(rng.Intn(nv+6)+1))
					if has[m] {
						continue // it is in present and will be deleted from there
					}
					f.apply(m, true)
					has[m] = true
					present = append(present, m)
				default:
					kv := placed{names.NodeKV, rdf.Quad{
						S: conv.Vocab.VertexIRI(pg.ID(rng.Intn(nv) + 1)),
						P: conv.Vocab.KeyIRI("name"),
						O: rdf.NewLiteral(fmt.Sprintf("n%d", step)),
					}}
					f.apply(kv, true)
					has[kv] = true
					present = append(present, kv)
				}
				if pending++; pending >= 1+rng.Intn(4) {
					f.catchUp(fmt.Sprintf("step %d", step))
					pending = 0
				}
			}
			f.catchUp("end")
			t.Logf("%d patches, %d relabels, rebuilds %v; V=%d E=%d", f.patches, f.relabels, f.rebuilds, f.pr.CSR.NumVertices(), f.pr.CSR.NumEdges())
			if f.patches == 0 {
				t.Fatalf("no patch was ever applied (relabels %d, rebuilds %v)", f.relabels, f.rebuilds)
			}
			for reason, n := range f.rebuilds {
				if cfg.weight == "" || reason != RebuildUnclassified {
					t.Fatalf("%d unexpected %q rebuilds", n, reason)
				}
			}
		})
	}
}

// TestPatchScenarios walks the cases the random walk only hits by luck.
func TestPatchScenarios(t *testing.T) {
	voc := pgrdf.DefaultVocabulary()
	v := func(id pg.ID) rdf.Term { return voc.VertexIRI(id) }
	follows := voc.LabelIRI("follows")
	iri := rdf.NewIRI

	for _, s := range pgrdf.Schemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := diffConfig{scheme: s, opts: pgrdf.DefaultOptions()}
			st, names, conv, _ := loadConfig(t, cfg, 11, 10, 25)
			f := newFollower(t, st, ProjectOptions{Model: names.All, Scheme: s, Reverse: true}, s.String())
			one := func(p placed, insert bool, step string) PatchInfo {
				t.Helper()
				f.apply(p, insert)
				info := f.catchUp(step)
				if info.Rebuild != "" || info.Changes != 1 {
					t.Fatalf("%s: %+v", step, info)
				}
				return info
			}

			// An edge between two vertices the graph has never seen: the
			// ordinary way a graph grows is a patch, and so is shrinking back.
			e1 := edgeQuads(t, conv, names, 9001, 501, 502, "follows", 0)
			before := f.pr.CSR.NumVertices()
			for i, p := range e1 {
				one(p, true, fmt.Sprintf("grow %d", i))
			}
			if got := f.pr.CSR.NumVertices(); got != before+2 {
				t.Fatalf("vertices %d, want %d after an edge between two new ones", got, before+2)
			}
			// A second, parallel edge on the same pair, then one of the two
			// goes: the pair must survive with one occurrence less.
			e2 := edgeQuads(t, conv, names, 9002, 501, 502, "knows", 0)
			edges := f.pr.CSR.NumEdges()
			for i, p := range e2 {
				one(p, true, fmt.Sprintf("parallel %d", i))
			}
			for i := len(e1) - 1; i >= 0; i-- {
				one(e1[i], false, fmt.Sprintf("unparallel %d", i))
			}
			if f.pr.CSR.NumEdges() != edges {
				t.Fatalf("edges %d, want %d: deleting one of two parallel edges keeps the pair", f.pr.CSR.NumEdges(), edges)
			}
			// The last edge leaves, and its vertices with it.
			for i, p := range e2 {
				one(p, false, fmt.Sprintf("shrink %d", i))
			}
			if got := f.pr.CSR.NumVertices(); got != before {
				t.Fatalf("vertices %d, want %d after the new vertices lost their last edge", got, before)
			}

			// A marker holds a vertex that has no edge; an edge holds one
			// whose marker goes.
			m := markerQuad(names, 777)
			if info := one(m, true, "marker in"); !info.Copied {
				t.Fatal("a marker on a new vertex must change the CSR")
			}
			e3 := edgeQuads(t, conv, names, 9003, 777, 1, "follows", 0)
			for i, p := range e3 {
				one(p, true, fmt.Sprintf("marked gains edge %d", i))
			}
			one(m, false, "marker out, edge holds")
			for i, p := range e3 {
				one(p, false, fmt.Sprintf("marked loses edge %d", i))
			}
			if got := f.pr.CSR.NumVertices(); got != before {
				t.Fatalf("vertices %d, want %d", got, before)
			}

			// KV-only updates never copy and never rebuild.
			patches := f.patches
			kv := placed{names.NodeKV, rdf.Quad{S: v(1), P: voc.KeyIRI("name"), O: rdf.NewLiteral("kv")}}
			if info := one(kv, true, "kv in"); info.Copied {
				t.Fatal("a KV insert copied the CSR")
			}
			if info := one(kv, false, "kv out"); info.Copied {
				t.Fatal("a KV delete copied the CSR")
			}
			if f.patches != patches || len(f.rebuilds) != 0 {
				t.Fatalf("KV-only updates: %d patches, rebuilds %v", f.patches-patches, f.rebuilds)
			}

			// The plain s-p-o triple without its identified encoding, then
			// the encoding without the triple.
			plain := placed{names.Topology, rdf.Quad{S: v(601), P: follows, O: v(602)}}
			one(plain, true, "plain alone in")
			one(plain, false, "plain alone out")

			switch s {
			case pgrdf.RF:
				// Reification triples arriving one per update and leaving
				// in a different order; the edge exists only while all three
				// do.
				e := iri(voc.EdgeNS + "x1")
				subj := placed{names.EdgeKV, rdf.Quad{S: e, P: iri(rdf.RDFSubject), O: v(701)}}
				pred := placed{names.EdgeKV, rdf.Quad{S: e, P: iri(rdf.RDFPredicate), O: follows}}
				obj := placed{names.EdgeKV, rdf.Quad{S: e, P: iri(rdf.RDFObject), O: v(702)}}
				if one(obj, true, "rf obj").Copied || one(subj, true, "rf subj").Copied {
					t.Fatal("an incomplete reification is no edge")
				}
				if !one(pred, true, "rf pred").Copied {
					t.Fatal("the third reification triple completes the edge")
				}
				// A second rdf:subject: the rdf.Compare-least one decodes.
				subj2 := placed{names.EdgeKV, rdf.Quad{S: e, P: iri(rdf.RDFSubject), O: v(700)}}
				if !one(subj2, true, "rf smaller subject").Copied {
					t.Fatal("a smaller rdf:subject value must move the edge")
				}
				if one(subj, false, "rf larger subject out").Copied {
					t.Fatal("removing the losing rdf:subject value changes nothing")
				}
				if !one(subj2, false, "rf subj out").Copied {
					t.Fatal("losing rdf:subject dissolves the edge")
				}
				one(pred, false, "rf pred out")
				one(obj, false, "rf obj out")
			case pgrdf.SP:
				// The s-e-o triple before its anchor, the anchor toggling
				// the whole ? e ? range, and a second anchor deciding the
				// label.
				e := iri(voc.EdgeNS + "x1")
				t1 := placed{names.EdgeKV, rdf.Quad{S: v(701), P: e, O: v(702)}}
				t2 := placed{names.EdgeKV, rdf.Quad{S: v(703), P: e, O: v(704)}}
				anchor := placed{names.EdgeKV, rdf.Quad{S: e, P: iri(rdf.RDFSSubPropertyOf), O: follows}}
				if one(t1, true, "sp triple unanchored").Copied {
					t.Fatal("an unanchored s-e-o triple is no edge")
				}
				one(t2, true, "sp second triple")
				vs := f.pr.CSR.NumVertices()
				if !one(anchor, true, "sp anchor in").Copied || f.pr.CSR.NumVertices() != vs+4 {
					t.Fatal("the anchor must bring in every triple of its predicate")
				}
				other := placed{names.EdgeKV, rdf.Quad{S: e, P: iri(rdf.RDFSSubPropertyOf), O: iri("http://elsewhere/p")}}
				if !one(other, true, "sp smaller non-rel anchor").Copied || f.pr.CSR.NumVertices() != vs {
					t.Fatal("a smaller anchor outside the relationship namespace must take the edges out")
				}
				one(other, false, "sp non-rel anchor out")
				one(t1, false, "sp triple out under anchor")
				one(anchor, false, "sp anchor out")
				one(t2, false, "sp last triple out")
			}
			if len(f.rebuilds) != 0 {
				t.Fatalf("rebuilds %v, want none", f.rebuilds)
			}
		})
	}
}

// TestPatchFallsBack covers what forces a rebuild: a Load barrier, ring
// overflow, and an edge or weight change under a weighted projection.
func TestPatchFallsBack(t *testing.T) {
	cfg := diffConfig{scheme: pgrdf.NG, opts: pgrdf.DefaultOptions()}
	st, names, conv, _ := loadConfig(t, cfg, 5, 10, 25)
	f := newFollower(t, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG, Reverse: true}, "fallback")

	if _, err := st.Load(names.Topology, []rdf.Quad{edgeQuads(t, conv, names, 9100, 1, 2, "follows", 0)[0].q}); err != nil {
		t.Fatal(err)
	}
	if info := f.catchUp("load"); info.Rebuild != RebuildBarrier {
		t.Fatalf("after Load: %+v, want a barrier rebuild", info)
	}
	kv := placed{names.NodeKV, rdf.Quad{S: conv.Vocab.VertexIRI(1), P: conv.Vocab.KeyIRI("name"), O: rdf.NewLiteral("x")}}
	for i := 0; i < store.ChangeLogSize/2; i++ {
		f.apply(kv, true)
		f.apply(kv, false)
	}
	if info := f.catchUp("exactly the ring"); info.Rebuild != "" || info.Changes != store.ChangeLogSize {
		t.Fatalf("a projection exactly ChangeLogSize behind must patch: %+v", info)
	}
	for i := 0; i <= store.ChangeLogSize/2; i++ {
		f.apply(kv, true)
		f.apply(kv, false)
	}
	if info := f.catchUp("overflow"); info.Rebuild != RebuildOverflow {
		t.Fatalf("past the ring: %+v, want an overflow rebuild", info)
	}
	if f.rebuilds[RebuildBarrier] != 1 || f.rebuilds[RebuildOverflow] != 1 || len(f.rebuilds) != 2 {
		t.Fatalf("rebuilds %v, want exactly one barrier and one overflow", f.rebuilds)
	}

	// A virtual model redefined under the projection: the log says
	// nothing about it, so the patcher must notice by itself.
	if err := st.CreateVirtualModel("some", names.Topology); err != nil {
		t.Fatal(err)
	}
	g := newFollower(t, st, ProjectOptions{Model: "some", Scheme: pgrdf.NG}, "redefined")
	if err := st.CreateVirtualModel("some", names.Topology, names.NodeKV); err != nil {
		t.Fatal(err)
	}
	if info := g.catchUp("redefined"); info.Rebuild != RebuildUnclassified {
		t.Fatalf("after redefining the virtual model: %+v", info)
	}

	// Weighted: markers and KVs patch, an edge or a weight literal
	// does not (the pair's float sum cannot be adjusted in place).
	w := newFollower(t, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG, WeightKey: "weight", Reverse: true}, "weighted")
	w.apply(markerQuad(names, 888), true)
	if info := w.catchUp("weighted marker"); info.Rebuild != "" || !info.Copied {
		t.Fatalf("a marker under a weighted projection: %+v", info)
	}
	w.apply(kv, true)
	if info := w.catchUp("weighted kv"); info.Rebuild != "" || info.Copied {
		t.Fatalf("a KV under a weighted projection: %+v", info)
	}
	for _, p := range edgeQuads(t, conv, names, 9101, 2, 3, "follows", 4) {
		w.apply(p, true)
		if info := w.catchUp("weighted edge"); info.Rebuild != RebuildUnclassified {
			t.Fatalf("%v under a weighted projection: %+v", p.q, info)
		}
	}
}

// TestProjectionIgnoresCompaction: a projection is a function of the
// store's contents, not of which rows sit in the sorted base and which in
// the unsorted delta tail — also when an edge resource has two values
// where the decoders want one.
func TestProjectionIgnoresCompaction(t *testing.T) {
	voc := pgrdf.DefaultVocabulary()
	iri := rdf.NewIRI
	for _, s := range []pgrdf.Scheme{pgrdf.RF, pgrdf.SP} {
		t.Run(s.String(), func(t *testing.T) {
			cfg := diffConfig{scheme: s, opts: pgrdf.DefaultOptions()}
			st, names, _, _ := loadConfig(t, cfg, 3, 10, 25)
			e := iri(voc.EdgeNS + "twice")
			follows, knows := voc.LabelIRI("follows"), voc.LabelIRI("knows")
			var extra []rdf.Quad
			if s == pgrdf.RF {
				// Inserted largest-first, so scan order (delta tail) and
				// sorted order (after Compact) disagree about the last one.
				extra = []rdf.Quad{
					{S: e, P: iri(rdf.RDFSubject), O: voc.VertexIRI(909)},
					{S: e, P: iri(rdf.RDFSubject), O: voc.VertexIRI(903)},
					{S: e, P: iri(rdf.RDFPredicate), O: follows},
					{S: e, P: iri(rdf.RDFObject), O: voc.VertexIRI(908)},
					{S: e, P: iri(rdf.RDFObject), O: voc.VertexIRI(902)},
				}
			} else {
				extra = []rdf.Quad{
					{S: voc.VertexIRI(903), P: e, O: voc.VertexIRI(902)},
					{S: e, P: iri(rdf.RDFSSubPropertyOf), O: knows},
					{S: e, P: iri(rdf.RDFSSubPropertyOf), O: follows},
				}
			}
			for _, q := range extra {
				if _, err := st.Insert(names.EdgeKV, q); err != nil {
					t.Fatal(err)
				}
			}
			// The least value wins: v903 -> v902 labelled follows, whatever
			// order the rows are scanned in.
			want := map[string]bool{"": true, "follows": true, "knows": false}
			for label, present := range want {
				opts := ProjectOptions{Model: names.All, Scheme: s, Label: label, Reverse: true}
				pre := mustProject(t, st, opts)
				st.Compact()
				post := mustProject(t, st, opts)
				if !reflect.DeepEqual(pre, post) {
					csrEqual(t, pre, post, "label "+label)
					t.Fatalf("label %q: projection changed across Compact()", label)
				}
				if got := hasEdge(post, voc.VertexIRI(903), voc.VertexIRI(902)); got != present {
					t.Fatalf("label %q: edge v903->v902 present=%v, want %v", label, got, present)
				}
				// Back to a delta tail for the next label.
				for _, q := range extra {
					if _, err := st.Delete(names.EdgeKV, q); err != nil {
						t.Fatal(err)
					}
				}
				for _, q := range extra {
					if _, err := st.Insert(names.EdgeKV, q); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

func hasEdge(cs *CSR, src, dst rdf.Term) bool {
	for u := 0; u < cs.NumVertices(); u++ {
		if !cs.Term(uint32(u)).Equal(src) {
			continue
		}
		for _, d := range cs.Neighbors(uint32(u)) {
			if cs.Term(d).Equal(dst) {
				return true
			}
		}
	}
	return false
}
