package store

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// Raw scan kernels: per-row callback dispatch vs batched runs over the
// same index. The delta is pure iteration overhead — no binding or
// query machinery on top. Run via `make bench-micro`.

func benchScanStore(b *testing.B) *Store {
	s := synthTestStore(b, 20000)
	s.Compact()
	return s
}

func BenchmarkScanRow(b *testing.B) {
	s := benchScanStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Scan(AnyPattern(), func(q IDQuad) bool {
			n++
			return true
		})
		if n == 0 {
			b.Fatal("empty scan")
		}
	}
}

func BenchmarkScanBatch(b *testing.B) {
	s := benchScanStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.View().ScanBatch(AnyPattern(), DefaultBatchRows, func(run []IDQuad) bool {
			n += len(run)
			return true
		})
		if n == 0 {
			b.Fatal("empty scan")
		}
	}
}

// The serving benchmark's NG store in outline: 3 765 nodes, 79 712
// edges, each edge a follows quad in its own named graph plus an edge
// KV, node KVs making up the rest of 219 084 quads, under the four
// indexes of the data dir benchmark/run.go prepares, which mixed-rw-ng's
// server recovers.
const (
	ngNodes = 3765
	ngEdges = 79712
	ngQuads = 219084
)

var benchSink int

func ngEdge(i int) (topo, kv rdf.Quad) {
	g := iri(fmt.Sprintf("e%d", i))
	topo = rdf.Quad{S: iri(fmt.Sprintf("v%d", i%ngNodes)), P: iri("follows"), O: iri(fmt.Sprintf("v%d", (i*7+1)%ngNodes)), G: g}
	kv = rdf.Quad{S: g, P: iri("since"), O: rdf.NewLiteral(fmt.Sprintf("%d", 2000+i%20))}
	return topo, kv
}

// ngStore builds the store and leaves inserts unmerged inserted quads
// and tombs tombstoned base rows on top of the compacted base.
func ngStore(b *testing.B, inserts, tombs int) *Store {
	b.Helper()
	s, err := NewWithIndexes([]string{"PCSGM", "PSCGM", "SPCGM", "GSPCM"})
	if err != nil {
		b.Fatal(err)
	}
	quads := make([]rdf.Quad, 0, ngQuads)
	for i := 0; i < ngEdges; i++ {
		topo, kv := ngEdge(i)
		quads = append(quads, topo, kv)
	}
	for i := 0; len(quads) < ngQuads; i++ {
		quads = append(quads, rdf.Quad{S: iri(fmt.Sprintf("v%d", i%ngNodes)), P: iri(fmt.Sprintf("k%d", i/ngNodes)), O: rdf.NewLiteral(fmt.Sprintf("x%d", i))})
	}
	if _, err := s.Load("data", quads); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < inserts; i++ {
		topo, _ := ngEdge(ngEdges + i)
		if ok, err := s.Insert("data", topo); err != nil || !ok {
			b.Fatalf("insert %d: %v %v", i, ok, err)
		}
	}
	for i := 0; i < tombs; i++ {
		topo, _ := ngEdge(i * 19)
		if ok, err := s.Delete("data", topo); err != nil || !ok {
			b.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	return s
}

// BenchmarkScanThroughDelta times what a lookup does 50 times per
// request — a bound-prefix range scan (one node's out-edges) and the
// optimizer's EstimateCount of the same pattern — at growing amounts of
// unmerged delta. The cost must not depend on the delta.
func BenchmarkScanThroughDelta(b *testing.B) {
	for _, c := range []struct{ inserts, tombs int }{{0, 0}, {4500, 0}, {8000, 0}, {0, 4000}, {8000, 4000}} {
		s := ngStore(b, c.inserts, c.tombs)
		p := AnyPattern()
		p.P = s.Dict().Lookup(iri("follows"))
		nodes := make([]ID, ngNodes)
		for i := range nodes {
			nodes[i] = s.Dict().Lookup(iri(fmt.Sprintf("v%d", (i*31)%ngNodes)))
		}
		node := func(i int) ID { return nodes[i%ngNodes] }
		name := fmt.Sprintf("inserts=%d/tombs=%d", c.inserts, c.tombs)
		b.Run(name+"/scan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.S = node(i)
				s.View().ScanBatch(p, DefaultBatchRows, func(run []IDQuad) bool {
					benchSink += len(run)
					return true
				})
			}
		})
		b.Run(name+"/estimate", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.S = node(i)
				benchSink += s.View().EstimateCount(p)
			}
		})
	}
}

// sparseStore holds ngEdges rows of predicate p, each of whose subjects
// is interned after two subjects of predicate q, so that p's subjects
// span three IDs per row. It returns them in row order too.
func sparseStore(b *testing.B) (*Store, []ID) {
	b.Helper()
	s, err := NewWithIndexes([]string{"PCSGM", "PSCGM", "SPCGM", "GSPCM"})
	if err != nil {
		b.Fatal(err)
	}
	quads := make([]rdf.Quad, 0, 3*ngEdges)
	for i := 0; i < ngEdges; i++ {
		for _, sp := range [][2]string{{"f", "q"}, {"g", "q"}, {"s", "p"}} {
			quads = append(quads, rdf.Quad{S: iri(fmt.Sprintf("%s%d", sp[0], i)), P: iri(sp[1]), O: iri("o")})
		}
	}
	if _, err := s.Load("data", quads); err != nil {
		b.Fatal(err)
	}
	subjects := make([]ID, ngEdges)
	for i := range subjects {
		subjects[i] = s.Dict().Lookup(iri(fmt.Sprintf("s%d", i)))
	}
	return s, subjects
}

// BenchmarkSeek times what a sorted intersection join does per input
// row and side: one Seek narrowing the follows range of PSCGM (79 712
// rows) to a node's out-edges, with no delta and with 4 500 unmerged
// inserts spread over the nodes (so most ranges take the merge path),
// plus one SeekCol into the rows. Those legs run one seeker for all b.N
// seeks, so it builds its directory early (DirPayback); dir/op is the
// share of seeks the directory answered. The few and payback legs open
// a fresh seeker every 8 and every 2 048 seeks: the first never builds
// a directory, the second builds it at its 1 246th narrow and stops
// soon after — the most a seeker can lose to the build. The sparse leg
// narrows a 79 712-row range of sparseStore's, whose values span three
// IDs per row, more than DirSpan: its seeker declines to build and every
// narrow searches the rows.
func BenchmarkSeek(b *testing.B) {
	for _, inserts := range []int{0, 4500} {
		s := ngStore(b, inserts, 0)
		v := s.View()
		konst := AnyPattern()
		konst.P = s.Dict().Lookup(iri("follows"))
		ix := v.SeekIndex([]Col{ColP, ColS}, ColC)
		nodes := make([]ID, ngNodes)
		for i := range nodes {
			nodes[i] = s.Dict().Lookup(iri(fmt.Sprintf("v%d", (i*31)%ngNodes)))
		}
		b.Run(fmt.Sprintf("delta=%d", inserts), func(b *testing.B) {
			sk := v.Seeker(ix, konst)
			p := konst
			dirs := 0
			for i := 0; i < b.N; i++ {
				p.S = nodes[i%ngNodes]
				rows := sk.Seek(p)
				benchSink += SeekCol(rows, 0, ColC, nodes[(i*7)%ngNodes])
				if _, dir := sk.LastSeek(); dir {
					dirs++
				}
			}
			b.ReportMetric(float64(dirs)/float64(b.N), "dir/op")
		})
		if inserts > 0 {
			continue
		}
		sparse, subjects := sparseStore(b)
		b.Run("sparse", func(b *testing.B) {
			v := sparse.View()
			konst := AnyPattern()
			konst.P = sparse.Dict().Lookup(iri("p"))
			o := sparse.Dict().Lookup(iri("o"))
			sk := v.Seeker(v.SeekIndex([]Col{ColP}, ColS), konst)
			p := konst
			for i := 0; i < b.N; i++ {
				p.S = subjects[(i*31)%len(subjects)]
				rows := sk.Seek(p)
				benchSink += SeekCol(rows, 0, ColC, o)
				if _, dir := sk.LastSeek(); dir {
					b.Fatal("a range spanning three IDs per row built a directory")
				}
			}
		})
		for _, leg := range []struct {
			name  string
			seeks int
		}{{"few", 8}, {"payback", 2048}} {
			b.Run(leg.name, func(b *testing.B) {
				var sk *Seeker
				p := konst
				for i := 0; i < b.N; i++ {
					if i%leg.seeks == 0 {
						sk = v.Seeker(ix, konst)
					}
					p.S = nodes[i%ngNodes]
					rows := sk.Seek(p)
					benchSink += SeekCol(rows, 0, ColC, nodes[(i*7)%ngNodes])
				}
			})
		}
	}
}

// BenchmarkApply times one write operation — a set of 1, 3 (one NG
// edge) or 300 quads inserted and, in a second operation, deleted
// again — on a store carrying no delta and one carrying 4 000 inserts
// and 4 000 tombstones.
func BenchmarkApply(b *testing.B) {
	for _, delta := range []int{0, 8000} {
		s := ngStore(b, delta/2, delta/2)
		pool := make([]rdf.Quad, 50000)
		for i := range pool {
			pool[i], _ = ngEdge(ngEdges + 100000 + i)
		}
		for _, n := range []int{1, 3, 300} {
			b.Run(fmt.Sprintf("delta=%d/ops=%d", delta, n), func(b *testing.B) {
				ins, del := make([]Op, n), make([]Op, n)
				for i := 0; i < b.N; i++ {
					for j := range ins {
						q := pool[(i*n+j)%len(pool)]
						ins[j] = Op{Model: "data", Quad: q}
						del[j] = Op{Delete: true, Model: "data", Quad: q}
					}
					for _, ops := range [][]Op{ins, del} {
						if a, d, err := s.Apply(ops); err != nil || a+d != n {
							b.Fatalf("apply: %d %d %v", a, d, err)
						}
					}
				}
			})
		}
	}
}
