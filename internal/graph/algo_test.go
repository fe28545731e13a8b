package graph

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/twitter"
)

// naivePageRank is the straightforward serial reference: same math as
// Runner.PageRank, no morsels, no double buffering tricks.
func naivePageRank(cs *CSR, opts PageRankOptions) []float64 {
	opts = opts.withDefaults()
	n := cs.NumVertices()
	outW := make([]float64, n)
	for v := 0; v < n; v++ {
		if opts.Weighted {
			for _, w := range cs.NeighborWeights(uint32(v)) {
				outW[v] += w
			}
		} else {
			outW[v] = float64(cs.OutDegree(uint32(v)))
		}
	}
	inv := 1.0 / float64(n)
	cur := make([]float64, n)
	for v := range cur {
		cur[v] = inv
	}
	for it := 0; it < opts.MaxIterations; it++ {
		dangling := 0.0
		for v := 0; v < n; v++ {
			if outW[v] == 0 {
				dangling += cur[v]
			}
		}
		next := make([]float64, n)
		base := (1-opts.Damping)*inv + opts.Damping*dangling*inv
		for v := range next {
			next[v] = base
		}
		for u := 0; u < n; u++ {
			if outW[u] == 0 {
				continue
			}
			c := cur[u] / outW[u]
			nb := cs.Neighbors(uint32(u))
			ws := cs.NeighborWeights(uint32(u))
			for i, v := range nb {
				if opts.Weighted {
					next[v] += opts.Damping * c * ws[i]
				} else {
					next[v] += opts.Damping * c
				}
			}
		}
		delta := 0.0
		for v := range next {
			delta += math.Abs(next[v] - cur[v])
		}
		cur = next
		if delta <= opts.Tolerance {
			break
		}
	}
	return cur
}

// naiveComponents returns the partition of vertices into weak
// components via union-find.
func naiveComponents(cs *CSR) []uint32 {
	n := cs.NumVertices()
	parent := make([]uint32, n)
	for v := range parent {
		parent[v] = uint32(v)
	}
	var find func(uint32) uint32
	find = func(v uint32) uint32 {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	union := func(a, b uint32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if rb < ra {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	for v := 0; v < n; v++ {
		for _, u := range cs.Neighbors(uint32(v)) {
			union(uint32(v), u)
		}
	}
	labels := make([]uint32, n)
	for v := range labels {
		labels[v] = find(uint32(v))
	}
	// Canonicalize to the minimum index per component (union by min
	// above already guarantees it, since the root only ever decreases).
	return labels
}

// undirectedSets returns every vertex's neighbor set in the underlying
// undirected simple graph: direction ignored, self-loops dropped.
func undirectedSets(cs *CSR) []map[uint32]bool {
	n := cs.NumVertices()
	und := make([]map[uint32]bool, n)
	for v := 0; v < n; v++ {
		und[v] = make(map[uint32]bool)
	}
	for v := 0; v < n; v++ {
		for _, u := range cs.Neighbors(uint32(v)) {
			if u != uint32(v) {
				und[v][u] = true
				und[u][uint32(v)] = true
			}
		}
	}
	return und
}

// naiveTriangles brute-forces the undirected triangle count with
// neighbor sets.
func naiveTriangles(cs *CSR) int64 {
	n := cs.NumVertices()
	und := undirectedSets(cs)
	count := int64(0)
	for u := 0; u < n; u++ {
		for v := range und[u] {
			if int(v) <= u {
				continue
			}
			for w := range und[u] {
				if w > v && und[v][w] {
					count++
				}
			}
		}
	}
	return count
}

func testCSR(t *testing.T, seed int64, nv, ne int, weightKey string) *CSR {
	t.Helper()
	g := randomGraph(t, seed, nv, ne)
	st, names := loadScheme(t, g, pgrdf.NG)
	return mustProject(t, st, ProjectOptions{
		Model: names.All, Scheme: pgrdf.NG, WeightKey: weightKey, Reverse: true,
	})
}

func TestPageRankDifferential(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		key := ""
		if weighted {
			key = "weight"
		}
		for seed := int64(10); seed < 14; seed++ {
			cs := testCSR(t, seed, 150, 600, key)
			res, err := Runner{Parallelism: 4}.PageRank(context.Background(), cs, PageRankOptions{Weighted: weighted})
			if err != nil {
				t.Fatal(err)
			}
			want := naivePageRank(cs, PageRankOptions{Weighted: weighted})
			if len(res.Scores) != len(want) {
				t.Fatalf("len = %d, want %d", len(res.Scores), len(want))
			}
			sum := 0.0
			for v := range want {
				if math.Abs(res.Scores[v]-want[v]) > 1e-9 {
					t.Fatalf("seed %d weighted=%v: score[%d] = %g, want %g", seed, weighted, v, res.Scores[v], want[v])
				}
				sum += res.Scores[v]
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("seed %d: rank mass = %g, want ~1", seed, sum)
			}
			if !res.Converged && res.Iterations != 50 {
				t.Fatalf("seed %d: not converged after %d iterations", seed, res.Iterations)
			}
		}
	}
}

func TestWCCDifferential(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		// Sparse: many components.
		cs := testCSR(t, seed, 300, 150, "")
		res, err := Runner{Parallelism: 4}.WCC(context.Background(), cs)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveComponents(cs)
		comps := 0
		for v, lbl := range want {
			if res.Labels[v] != lbl {
				t.Fatalf("seed %d: label[%d] = %d, want %d", seed, v, res.Labels[v], lbl)
			}
			if lbl == uint32(v) {
				comps++
			}
		}
		if res.Components != comps {
			t.Fatalf("seed %d: components = %d, want %d", seed, res.Components, comps)
		}
	}
}

// edgeCSR builds an unweighted CSR with a reverse adjacency over n
// vertices straight from directed (src, dst) pairs; duplicates collapse.
func edgeCSR(n int, edges [][2]uint32) *CSR {
	terms := make([]rdf.Term, n)
	for i := range terms {
		terms[i] = rdf.NewIRI(fmt.Sprintf("http://pg/v%06d", i))
	}
	raw := make([]rawEdge, len(edges))
	for i, e := range edges {
		raw[i] = rawEdge{src: e[0], dst: e[1]}
	}
	cs, _ := buildCSR(terms, raw, false, true)
	return cs
}

// randomEdges returns m seeded random directed pairs over [lo, hi).
func randomEdges(rng *rand.Rand, lo, hi, m int) [][2]uint32 {
	out := make([][2]uint32, m)
	for i := range out {
		out[i] = [2]uint32{uint32(lo + rng.Intn(hi-lo)), uint32(lo + rng.Intn(hi-lo))}
	}
	return out
}

// triangleShapes are the graphs a per-worker mark array reused across
// vertices and morsels could get wrong, each with its own quirk.
func triangleShapes() map[string]*CSR {
	rng := rand.New(rand.NewSource(35))
	shapes := map[string]*CSR{}

	// Self-loops everywhere, including on triangle corners.
	edges := randomEdges(rng, 0, 200, 1200)
	for v := uint32(0); v < 200; v += 3 {
		edges = append(edges, [2]uint32{v, v})
	}
	shapes["self-loops"] = edgeCSR(200, edges)

	// Every edge also present reversed: each undirected edge is two
	// directed ones and must still count once.
	edges = randomEdges(rng, 0, 200, 900)
	for _, e := range edges[:600] {
		edges = append(edges, [2]uint32{e[1], e[0]})
	}
	shapes["reciprocal"] = edgeCSR(200, edges)

	// Vertex 0 adjacent to every vertex, in alternating directions: it is
	// in every other vertex's oriented row, so its mark is set and
	// cleared once per vertex.
	edges = randomEdges(rng, 1, 300, 1500)
	for v := uint32(1); v < 300; v++ {
		if v%2 == 0 {
			edges = append(edges, [2]uint32{0, v})
		} else {
			edges = append(edges, [2]uint32{v, 0})
		}
	}
	shapes["hub"] = edgeCSR(300, edges)

	// Edges only among the first 100 and the last 50 of 500 vertices.
	edges = append(randomEdges(rng, 0, 100, 800), randomEdges(rng, 450, 500, 400)...)
	shapes["isolated"] = edgeCSR(500, edges)

	// Six morsels, the last one partial, with a hub at the highest index,
	// self-loops and reciprocal pairs: marks are reused across morsels.
	const n = 5*morselVertices + 123
	edges = randomEdges(rng, 0, n, 40000)
	for _, e := range edges[:5000] {
		edges = append(edges, [2]uint32{e[1], e[0]}, [2]uint32{e[0], e[0]})
	}
	for v := uint32(0); v < n-1; v++ {
		edges = append(edges, [2]uint32{v, n - 1})
	}
	shapes["morsels"] = edgeCSR(n, edges)
	return shapes
}

func TestTrianglesDifferential(t *testing.T) {
	for seed := int64(30); seed < 34; seed++ {
		cs := testCSR(t, seed, 120, 700, "")
		res, err := Runner{Parallelism: 4}.Triangles(context.Background(), cs)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveTriangles(cs); res.Count != want {
			t.Fatalf("seed %d: triangles = %d, want %d", seed, res.Count, want)
		}
	}
	for name, cs := range triangleShapes() {
		want := naiveTriangles(cs)
		if want == 0 {
			t.Fatalf("%s: shape has no triangles", name)
		}
		for _, par := range []int{1, 2, 4, 8} {
			res, err := Runner{Parallelism: par}.Triangles(context.Background(), cs)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("%s par %d: triangles = %d, want %d", name, par, res.Count, want)
			}
		}
	}
}

// TestHugeParallelismIsCapped: a worker count far above the graph's
// morsel count runs as one worker per morsel — every per-worker
// allocation is sized by the cap, not the request — and answers what a
// single worker does.
func TestHugeParallelismIsCapped(t *testing.T) {
	cs := edgeCSR(4, [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 0}})
	want, err := Runner{Parallelism: 1}.Triangles(context.Background(), cs)
	if err != nil {
		t.Fatal(err)
	}
	if want.Count != 2 {
		t.Fatalf("p1 triangles = %d, want 2", want.Count)
	}
	huge := Runner{Parallelism: 1 << 40}
	if w := huge.workers(cs.NumVertices()); w != 1 {
		t.Fatalf("workers(4) = %d, want 1", w)
	}
	got, err := huge.Triangles(context.Background(), cs)
	if err != nil || got.Count != want.Count {
		t.Fatalf("triangles at Parallelism 1<<40 = %v, %v; want %d", got, err, want.Count)
	}
}

// TestRunnerWorkers: the worker count is the configured Parallelism
// (GOMAXPROCS when it is not positive), capped at one worker per
// morsel, and never below one, even on an empty graph.
func TestRunnerWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ par, n, want int }{
		{1, 5000, 1},
		{4, 5000, 4},
		{8, 5000, 5},
		{4, morselVertices, 1},
		{4, morselVertices + 1, 2},
		{1 << 40, 3 * morselVertices, 3},
		{4, 0, 1},
		{0, 64 * morselVertices, min(procs, 64)},
		{-1, 64 * morselVertices, min(procs, 64)},
	}
	for _, c := range cases {
		if got := (Runner{Parallelism: c.par}).workers(c.n); got != c.want {
			t.Errorf("Runner{Parallelism: %d}.workers(%d) = %d, want %d", c.par, c.n, got, c.want)
		}
	}
}

// TestTrianglesTwitterSchemes counts the generator's test graph under
// RF, NG and SP at 1, 2, 4 and 8 workers: every count is the same, and
// it is the brute-force one.
func TestTrianglesTwitterSchemes(t *testing.T) {
	want := int64(-1)
	for _, s := range pgrdf.Schemes {
		cs := twitterCSR(t, s, twitter.TestConfig())
		if want < 0 {
			if want = naiveTriangles(cs); want == 0 {
				t.Fatal("test graph has no triangles")
			}
		}
		for _, par := range []int{1, 2, 4, 8} {
			res, err := Runner{Parallelism: par}.Triangles(context.Background(), cs)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("%s par %d: triangles = %d, want %d", s, par, res.Count, want)
			}
		}
	}
}

func TestFigure1Algorithms(t *testing.T) {
	g := figure1(t)
	for _, s := range pgrdf.Schemes {
		st, names := loadScheme(t, g, s)
		cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: s, Reverse: true})
		pr, err := Runner{}.PageRank(context.Background(), cs, PageRankOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if pr.Scores[1] <= pr.Scores[0] {
			t.Fatalf("%s: v2 should outrank v1: %v", s, pr.Scores)
		}
		wcc, err := Runner{}.WCC(context.Background(), cs)
		if err != nil {
			t.Fatal(err)
		}
		if wcc.Components != 1 {
			t.Fatalf("%s: components = %d", s, wcc.Components)
		}
		tr, err := Runner{}.Triangles(context.Background(), cs)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Count != 0 {
			t.Fatalf("%s: triangles = %d", s, tr.Count)
		}
	}
}

// TestParallelismByteIdentical pins the determinism contract: results
// at Parallelism 1, 4 and 8 are bit-identical, across all three
// schemes — floating-point included.
func TestParallelismByteIdentical(t *testing.T) {
	// Big enough for several morsels (morselVertices = 1024).
	g := randomGraph(t, 42, 5000, 20000)
	type fingerprint struct {
		scores []uint64
		labels []uint32
		tris   int64
	}
	var ref *fingerprint
	for _, s := range pgrdf.Schemes {
		st, names := loadScheme(t, g, s)
		cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: s, Reverse: true})
		for _, par := range []int{1, 4, 8} {
			r := Runner{Parallelism: par}
			pr, err := r.PageRank(context.Background(), cs, PageRankOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wcc, err := r.WCC(context.Background(), cs)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := r.Triangles(context.Background(), cs)
			if err != nil {
				t.Fatal(err)
			}
			fp := &fingerprint{labels: wcc.Labels, tris: tr.Count}
			for _, sc := range pr.Scores {
				fp.scores = append(fp.scores, math.Float64bits(sc))
			}
			if ref == nil {
				ref = fp
				continue
			}
			label := fmt.Sprintf("scheme %s par %d", s, par)
			if len(fp.scores) != len(ref.scores) || len(fp.labels) != len(ref.labels) {
				t.Fatalf("%s: size mismatch", label)
			}
			for i := range ref.scores {
				if fp.scores[i] != ref.scores[i] {
					t.Fatalf("%s: score bits differ at vertex %d", label, i)
				}
			}
			for i := range ref.labels {
				if fp.labels[i] != ref.labels[i] {
					t.Fatalf("%s: wcc label differs at vertex %d", label, i)
				}
			}
			if fp.tris != ref.tris {
				t.Fatalf("%s: triangles %d != %d", label, fp.tris, ref.tris)
			}
		}
	}
}

func TestPageRankRequiresReverse(t *testing.T) {
	g := figure1(t)
	st, names := loadScheme(t, g, pgrdf.NG)
	cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG})
	if _, err := (Runner{}).PageRank(context.Background(), cs, PageRankOptions{}); err == nil {
		t.Fatal("expected error for CSR without reverse adjacency")
	}
}
