package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/guard/guardtest"
	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
)

// algoTestStore loads a small chain + hub graph under one scheme.
func algoTestStore(t *testing.T, s pgrdf.Scheme) (*store.Store, pgrdf.ModelNames) {
	t.Helper()
	st, err := pgrdf.NewStore(s)
	if err != nil {
		t.Fatal(err)
	}
	names, err := pgrdf.LoadPartitioned(st, pgrdf.NewConverter(s).Convert(algoTestGraph(t)), "pg")
	if err != nil {
		t.Fatal(err)
	}
	return st, names
}

// algoTestGraph is algoTestStore's property graph.
func algoTestGraph(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.NewGraph()
	for i := 1; i <= 10; i++ {
		if _, err := g.AddVertexWithID(pg.ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Everyone follows v1; v1..v4 know their successor (one 4-cycle
	// plus chords making exactly one triangle: 1-2-3 via 1->2,2->3,3->1).
	for i := 2; i <= 10; i++ {
		if _, err := g.AddEdge(pg.ID(i), 1, "follows"); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge := func(src, dst pg.ID, label string) {
		t.Helper()
		if _, err := g.AddEdge(src, dst, label); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(1, 2, "knows")
	mustEdge(2, 3, "knows")
	return g
}

func postAlgo(t *testing.T, url string, body map[string]any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/algo", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAlgoEndpoint(t *testing.T) {
	for _, s := range pgrdf.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			st, names := algoTestStore(t, s)
			h := NewServer(st)
			srv := httptest.NewServer(h)
			defer srv.Close()

			// PageRank with auto-detected scheme: v1 collects the mass.
			resp := postAlgo(t, srv.URL, map[string]any{
				"algo": "pagerank", "model": names.All, "k": 3,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			var pr algoResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if pr.Scheme != s.String() {
				t.Fatalf("scheme = %q, want %q (auto-detect)", pr.Scheme, s)
			}
			if pr.Vertices != 10 {
				t.Fatalf("vertices = %d, want 10", pr.Vertices)
			}
			if len(pr.Top) != 3 || pr.Top[0].Term != "http://pg/v1" {
				t.Fatalf("top = %+v, want v1 first", pr.Top)
			}
			if !pr.Converged || pr.CSRCached {
				t.Fatalf("converged=%v cached=%v", pr.Converged, pr.CSRCached)
			}
			if pr.QuadsScanned == 0 || pr.EdgesEmitted < int64(pr.Edges) {
				t.Fatalf("cold projection reported quadsScanned=%d edgesEmitted=%d for %d edges",
					pr.QuadsScanned, pr.EdgesEmitted, pr.Edges)
			}

			// Second request over the same projection hits the CSR cache.
			resp = postAlgo(t, srv.URL, map[string]any{
				"algo": "wcc", "model": names.All, "scheme": s.String(),
			})
			var wcc algoResponse
			if err := json.NewDecoder(resp.Body).Decode(&wcc); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if !wcc.CSRCached {
				t.Fatal("expected CSR cache hit on second run")
			}
			if wcc.Components != 1 {
				t.Fatalf("components = %d, want 1", wcc.Components)
			}

			resp = postAlgo(t, srv.URL, map[string]any{
				"algo": "triangles", "model": names.All,
			})
			var tr algoResponse
			if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if tr.Triangles == nil || *tr.Triangles != 1 {
				t.Fatalf("triangles = %v, want 1", tr.Triangles)
			}

			// A write no longer invalidates the cached projection: the
			// next request patches it forward, here by an edge between two
			// vertices the graph had never seen.
			if _, err := st.Insert(names.Topology, figureQuad()); err != nil {
				t.Fatal(err)
			}
			resp = postAlgo(t, srv.URL, map[string]any{
				"algo": "wcc", "model": names.All, "scheme": s.String(),
			})
			var wcc2 algoResponse
			if err := json.NewDecoder(resp.Body).Decode(&wcc2); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if !wcc2.CSRCached || !wcc2.CSRPatched || wcc2.CSRChanges != 1 {
				t.Fatalf("after one insert: cached=%v patched=%v changes=%d, want a patch of one change",
					wcc2.CSRCached, wcc2.CSRPatched, wcc2.CSRChanges)
			}
			if wcc2.Vertices != 12 || wcc2.Components != 2 {
				t.Fatalf("vertices = %d components = %d, want 12 and 2 after adding a detached edge", wcc2.Vertices, wcc2.Components)
			}

			// Stats and metrics reflect the runs.
			stats := fetch(t, srv.URL+"/stats")
			if !strings.Contains(stats, `"algoRuns":4`) {
				t.Fatalf("stats missing algoRuns: %s", stats)
			}
			metrics := fetch(t, srv.URL+"/metrics")
			for _, want := range []string{
				`pgrdf_algo_runs_total{algo="pagerank"} 1`,
				`pgrdf_algo_runs_total{algo="wcc"} 2`,
				`pgrdf_algo_runs_total{algo="triangles"} 1`,
				`pgrdf_algo_csr_cache_hits_total 3`,
				`pgrdf_algo_csr_cache_misses_total 1`,
				`pgrdf_algo_csr_patches_total 1`,
				`pgrdf_algo_csr_rebuilds_total{reason="cold"} 1`,
				`pgrdf_algo_csr_patch_duration_seconds_count 1`,
			} {
				if !strings.Contains(metrics, want) {
					t.Fatalf("metrics missing %q", want)
				}
			}
		})
	}
}

// figureQuad is a detached relationship between two fresh vertices.
func figureQuad() rdf.Quad {
	return rdf.Quad{
		S: rdf.NewIRI("http://pg/v98"),
		P: rdf.NewIRI("http://pg/r/follows"),
		O: rdf.NewIRI("http://pg/v99"),
	}
}

// TestAlgoHugeParallelism: a configured worker count far above the
// graph's size is capped, not allocated — the run answers 200 with the
// count a single worker finds — and /stats reports the configured
// worker count.
func TestAlgoHugeParallelism(t *testing.T) {
	st, names := algoTestStore(t, pgrdf.NG)
	triangles := func(par int) int64 {
		t.Helper()
		srv := httptest.NewServer(NewServerWithConfig(st, Config{Parallelism: par}))
		defer srv.Close()
		if stats := fetch(t, srv.URL+"/stats"); !strings.Contains(stats, fmt.Sprintf(`"parallelism":%d,`, par)) {
			t.Fatalf("stats do not report %d /algo workers: %s", par, stats)
		}
		resp := postAlgo(t, srv.URL, map[string]any{"algo": "triangles", "model": names.All})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("parallelism %d: status = %d", par, resp.StatusCode)
		}
		var r algoResponse
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.Triangles == nil {
			t.Fatalf("parallelism %d: no triangle count", par)
		}
		return *r.Triangles
	}
	if p1, huge := triangles(1), triangles(1<<40); p1 != 1 || huge != p1 {
		t.Fatalf("triangles at parallelism 1<<40 = %d, at 1 = %d; want both 1", huge, p1)
	}
}

// TestStatsReportsAlgoWorkers: /stats "parallelism" is the default
// /algo worker count — Config.Parallelism, GOMAXPROCS at 0, one when
// negative — and a run that names no worker count of its own answers
// the same triangles under each.
func TestStatsReportsAlgoWorkers(t *testing.T) {
	st, names := algoTestStore(t, pgrdf.NG)
	for _, c := range []struct{ cfg, want int }{{0, runtime.GOMAXPROCS(0)}, {-1, 1}, {3, 3}} {
		srv := httptest.NewServer(NewServerWithConfig(st, Config{Parallelism: c.cfg}))
		stats := fetch(t, srv.URL+"/stats")
		if !strings.Contains(stats, fmt.Sprintf(`"parallelism":%d,`, c.want)) {
			t.Errorf("Config.Parallelism %d: stats do not report %d /algo workers: %s", c.cfg, c.want, stats)
		}
		resp := postAlgo(t, srv.URL, map[string]any{"algo": "triangles", "model": names.All})
		var r algoResponse
		err := json.NewDecoder(resp.Body).Decode(&r)
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != http.StatusOK || err != nil || r.Triangles == nil || *r.Triangles != 1 {
			t.Errorf("Config.Parallelism %d: triangles status %d, %v, %v; want 200 and 1", c.cfg, resp.StatusCode, err, r.Triangles)
		}
	}
}

func TestAlgoErrors(t *testing.T) {
	st, names := algoTestStore(t, pgrdf.NG)
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()

	resp := postAlgo(t, srv.URL, map[string]any{"algo": "pagerankz"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown algo: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postAlgo(t, srv.URL, map[string]any{"algo": "wcc", "model": "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postAlgo(t, srv.URL, map[string]any{"algo": "wcc", "model": names.All, "scheme": "XX"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scheme: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err := http.Get(srv.URL + "/algo")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestAlgoBudgetExceeded(t *testing.T) {
	st, names := algoTestStore(t, pgrdf.NG)
	cfg := DefaultConfig()
	cfg.MaxBindings = 5 // five work units: trips during projection
	srv := httptest.NewServer(NewServerWithConfig(st, cfg))
	defer srv.Close()

	before := runtime.NumGoroutine()
	resp := postAlgo(t, srv.URL, map[string]any{"algo": "pagerank", "model": names.All})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if je := decodeError(t, resp); je.Kind != "budget-exceeded" {
		t.Fatalf("kind = %q", je.Kind)
	}
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	if after := guardtest.Goroutines(before); after > before {
		t.Fatalf("%d goroutines before the aborted run, %d after", before, after)
	}
}

// TestAlgoAdmissionAndDrain proves /algo participates in admission
// control and graceful drain exactly like the query endpoints.
func TestAlgoAdmissionAndDrain(t *testing.T) {
	st, names := algoTestStore(t, pgrdf.NG)
	h := NewServer(st)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Drain: everything is shed with 503 afterwards.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp := postAlgo(t, srv.URL, map[string]any{"algo": "wcc", "model": names.All})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
	resp.Body.Close()

	metrics := fetch(t, srv.URL+"/metrics")
	if !strings.Contains(metrics, "pgrdf_requests_shed_total 1") {
		t.Fatalf("shed counter missing: %s", metrics)
	}
}

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
