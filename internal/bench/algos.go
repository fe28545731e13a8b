package bench

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
)

// algoBenchNames orders the graph algorithms in BENCH_algos.json.
var algoBenchNames = []string{"pagerank", "wcc", "triangles"}

// AlgoResult is one algorithm × scheme measurement: CSR projection time
// plus serial (1 worker) vs parallel run time. Fingerprint is an FNV-64a
// hash over the raw result bits (Float64bits of every PageRank score,
// every WCC label, the triangle count); AlgoBench fails unless the
// serial and parallel fingerprints match and every scheme of the same
// property graph produces the same fingerprint, so a published report
// is itself evidence of the determinism contract.
type AlgoResult struct {
	Algo        string  `json:"algo"`
	Scheme      string  `json:"scheme"`
	Vertices    int     `json:"vertices"`
	Edges       int     `json:"edges"`
	CSRBuildMS  float64 `json:"csr_build_ms"`
	SerialMS    float64 `json:"serial_ms"`
	ParallelMS  float64 `json:"parallel_ms"`
	Speedup     float64 `json:"speedup"`
	Iterations  int     `json:"iterations,omitempty"`
	Components  int     `json:"components,omitempty"`
	Triangles   int64   `json:"triangles,omitempty"`
	Fingerprint string  `json:"fingerprint"`
}

// AlgoPatchResult is one update-then-algo measurement: what carrying a
// cached projection across an update of EdgesUpdated edges costs
// (PatchMS, graph.Projection.Patch) next to what rebuilding it costs
// (CSRBuildMS). AlgoBench fails unless the three algorithms fingerprint
// the patched CSR exactly as they do a cold projection of the updated
// store; Fingerprint is PageRank's.
type AlgoPatchResult struct {
	Scheme       string  `json:"scheme"`
	EdgesUpdated int     `json:"edges_updated"`
	Changes      int     `json:"changes"` // change-log entries the patch consumed
	NewVertices  int     `json:"new_vertices"`
	CSRBuildMS   float64 `json:"csr_build_ms"`
	PatchMS      float64 `json:"patch_ms"`
	Fingerprint  string  `json:"fingerprint"`
}

// AlgoReport is the payload of BENCH_algos.json. As with
// ParallelReport, speedups measured with GOMAXPROCS < workers are
// scheduler noise, so GOMAXPROCS is recorded alongside the numbers.
type AlgoReport struct {
	Workers    int               `json:"workers"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Iters      int               `json:"iters"`
	Results    []AlgoResult      `json:"results"`
	Patches    []AlgoPatchResult `json:"patches"`
}

// AlgoBench projects the Twitter dataset into a CSR under every scheme
// (NG, SP and the lazily loaded RF ablation) and times PageRank, WCC
// and triangle counting serial vs parallel. Each leg is warmed once
// implicitly by the fingerprint run, then timed iters times from a
// collected heap; the median is reported.
func AlgoBench(ctx context.Context, env *Env, workers, iters int) (*AlgoReport, error) {
	if workers < 2 {
		workers = 2
	}
	if iters < 1 {
		iters = 1
	}
	rf, err := env.RFEnv()
	if err != nil {
		return nil, fmt.Errorf("algobench: loading RF scheme: %w", err)
	}
	rep := &AlgoReport{Workers: workers, GOMAXPROCS: runtime.GOMAXPROCS(0), Iters: iters}
	// Cross-scheme acceptance: the same algorithm over the same property
	// graph must fingerprint identically no matter which scheme encoded
	// it or how many workers ran it.
	crossFP := map[string]string{}
	for _, se := range append(env.SchemeEnvs(), rf) {
		opts := graph.ProjectOptions{Model: se.Names.All, Scheme: se.Scheme, Reverse: true}
		var proj *graph.Projection
		build, err := medianOf(iters, func() error {
			p, perr := graph.NewProjection(ctx, se.Store, opts, graph.Budget{})
			proj = p
			return perr
		})
		if err != nil {
			return nil, fmt.Errorf("algobench %s (project): %w", se.Scheme, err)
		}
		cs := proj.CSR
		for _, edges := range []int{1, 100} {
			pr, err := patchLeg(ctx, env, se, opts, proj, edges, iters)
			if err != nil {
				return nil, fmt.Errorf("algobench %s (patch, %d edges): %w", se.Scheme, edges, err)
			}
			pr.CSRBuildMS = ms(build)
			rep.Patches = append(rep.Patches, pr)
		}
		for _, algo := range algoBenchNames {
			serial := graph.Runner{Parallelism: 1}
			par := graph.Runner{Parallelism: workers}
			sRun, err := runAlgoOnce(ctx, serial, cs, algo)
			if err != nil {
				return nil, fmt.Errorf("algobench %s/%s (serial): %w", se.Scheme, algo, err)
			}
			pRun, err := runAlgoOnce(ctx, par, cs, algo)
			if err != nil {
				return nil, fmt.Errorf("algobench %s/%s (parallel): %w", se.Scheme, algo, err)
			}
			if sRun.fp != pRun.fp {
				return nil, fmt.Errorf("algobench %s/%s: serial fingerprint %s != parallel %s (determinism violation)",
					se.Scheme, algo, sRun.fp, pRun.fp)
			}
			if want, ok := crossFP[algo]; !ok {
				crossFP[algo] = sRun.fp
			} else if want != sRun.fp {
				return nil, fmt.Errorf("algobench %s/%s: fingerprint %s differs from other schemes' %s (projection divergence)",
					se.Scheme, algo, sRun.fp, want)
			}
			sMed, err := medianOf(iters, func() error {
				_, e := runAlgoOnce(ctx, serial, cs, algo)
				return e
			})
			if err != nil {
				return nil, fmt.Errorf("algobench %s/%s (serial timing): %w", se.Scheme, algo, err)
			}
			pMed, err := medianOf(iters, func() error {
				_, e := runAlgoOnce(ctx, par, cs, algo)
				return e
			})
			if err != nil {
				return nil, fmt.Errorf("algobench %s/%s (parallel timing): %w", se.Scheme, algo, err)
			}
			rep.Results = append(rep.Results, AlgoResult{
				Algo:        algo,
				Scheme:      se.Scheme.String(),
				Vertices:    cs.NumVertices(),
				Edges:       cs.NumEdges(),
				CSRBuildMS:  ms(build),
				SerialMS:    ms(sMed),
				ParallelMS:  ms(pMed),
				Speedup:     speedup(sMed, pMed),
				Iterations:  sRun.iterations,
				Components:  sRun.components,
				Triangles:   sRun.triangles,
				Fingerprint: sRun.fp,
			})
		}
	}
	return rep, nil
}

// patchLeg times carrying proj across an update that inserts the given
// number of edges: one edge joins two existing vertices (the serving
// benchmark's toggle), and of a hundred every fourth ends at a vertex
// the graph has never seen, so the vertex-remapping path is timed too.
// Each timed patch is followed by the inverse update and patch, which
// leaves the store as it was found.
func patchLeg(ctx context.Context, env *Env, se *SchemeEnv, opts graph.ProjectOptions, proj *graph.Projection, edges, iters int) (AlgoPatchResult, error) {
	out := AlgoPatchResult{Scheme: se.Scheme.String(), EdgesUpdated: edges}
	var known []pg.ID
	env.Graph.Vertices(func(v *pg.Vertex) bool {
		known = append(known, v.ID)
		return len(known) < 2*edges
	})
	if len(known) < 2 {
		return out, fmt.Errorf("dataset has %d vertices", len(known))
	}
	const fresh = pg.ID(1) << 40 // IDs the generator never reaches
	g := pg.NewGraph()
	for i := 0; i < edges; i++ {
		src, dst := known[(2*i)%len(known)], known[(2*i+1)%len(known)]
		if edges > 1 && i%4 == 3 {
			dst = fresh + pg.ID(i)
			out.NewVertices++
		}
		for _, v := range []pg.ID{src, dst} {
			if g.Vertex(v) == nil {
				if _, err := g.AddVertexWithID(v); err != nil {
					return out, err
				}
			}
		}
		if _, err := g.AddEdgeWithID(fresh+pg.ID(1000+i), src, dst, "follows"); err != nil {
			return out, err
		}
	}
	conv := &pgrdf.Converter{Scheme: se.Scheme, Vocab: Vocab(), Opts: pgrdf.DefaultOptions()}
	ds := conv.Convert(g)
	apply := func(insert bool) error {
		for model, quads := range map[string][]rdf.Quad{se.Names.Topology: ds.Topology, se.Names.EdgeKV: ds.EdgeKV} {
			for _, q := range quads {
				var err error
				if insert {
					_, err = se.Store.Insert(model, q)
				} else {
					_, err = se.Store.Delete(model, q)
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	patch := func(from *graph.Projection) (*graph.Projection, graph.PatchInfo, error) {
		next, info, err := from.Patch(ctx, graph.Budget{})
		if err == nil && next == nil {
			err = fmt.Errorf("patch fell back to a rebuild (%s)", info.Rebuild)
		}
		return next, info, err
	}

	durs := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		if err := apply(true); err != nil {
			return out, err
		}
		runtime.GC()
		start := time.Now()
		patched, info, err := patch(proj)
		if err != nil {
			return out, err
		}
		durs = append(durs, time.Since(start))
		out.Changes = info.Changes
		if i == 0 {
			if out.Fingerprint, err = samePatchedAsCold(ctx, se, opts, patched.CSR); err != nil {
				return out, err
			}
		}
		if err := apply(false); err != nil {
			return out, err
		}
		if proj, _, err = patch(patched); err != nil {
			return out, err
		}
	}
	out.PatchMS = ms(median(durs))
	return out, nil
}

// samePatchedAsCold fails unless the three algorithms fingerprint the
// patched CSR exactly as they do a cold projection of the store as it is
// now; it returns PageRank's fingerprint.
func samePatchedAsCold(ctx context.Context, se *SchemeEnv, opts graph.ProjectOptions, patched *graph.CSR) (string, error) {
	cold, err := graph.Project(ctx, se.Store, opts, graph.Budget{})
	if err != nil {
		return "", err
	}
	serial := graph.Runner{Parallelism: 1}
	pagerank := ""
	for _, algo := range algoBenchNames {
		got, err := runAlgoOnce(ctx, serial, patched, algo)
		if err != nil {
			return "", err
		}
		want, err := runAlgoOnce(ctx, serial, cold, algo)
		if err != nil {
			return "", err
		}
		if got.fp != want.fp {
			return "", fmt.Errorf("%s on the patched CSR fingerprints %s, on a cold projection %s", algo, got.fp, want.fp)
		}
		if algo == "pagerank" {
			pagerank = got.fp
		}
	}
	return pagerank, nil
}

// algoRun is one algorithm execution's identity: the result fingerprint
// plus the scalar outputs worth publishing.
type algoRun struct {
	fp         string
	iterations int
	components int
	triangles  int64
}

func runAlgoOnce(ctx context.Context, r graph.Runner, cs *graph.CSR, algo string) (algoRun, error) {
	h := fnv.New64a()
	var buf [8]byte
	out := algoRun{}
	switch algo {
	case "pagerank":
		res, err := r.PageRank(ctx, cs, graph.PageRankOptions{})
		if err != nil {
			return out, err
		}
		for _, s := range res.Scores {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s))
			h.Write(buf[:])
		}
		out.iterations = res.Iterations
	case "wcc":
		res, err := r.WCC(ctx, cs)
		if err != nil {
			return out, err
		}
		for _, l := range res.Labels {
			binary.LittleEndian.PutUint32(buf[:4], l)
			h.Write(buf[:4])
		}
		out.iterations = res.Iterations
		out.components = res.Components
	case "triangles":
		res, err := r.Triangles(ctx, cs)
		if err != nil {
			return out, err
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(res.Count))
		h.Write(buf[:])
		out.triangles = res.Count
	default:
		return out, fmt.Errorf("unknown algorithm %q", algo)
	}
	out.fp = fmt.Sprintf("%016x", h.Sum64())
	return out, nil
}

// medianOf times iters runs of f from a collected heap and reports the
// median (see medianRun for why the GC call is part of the protocol).
func medianOf(iters int, f func() error) (time.Duration, error) {
	durs := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		durs = append(durs, time.Since(start))
	}
	return median(durs), nil
}

func median(durs []time.Duration) time.Duration {
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2]
}
