package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
)

// tryAlgo posts one /algo request and decodes a 200 reply; it is safe
// to call off the test goroutine.
func tryAlgo(url string, body map[string]any) (algoResponse, error) {
	var out algoResponse
	b, err := json.Marshal(body)
	if err != nil {
		return out, err
	}
	resp, err := http.Post(url+"/algo", "application/json", bytes.NewReader(b))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return out, fmt.Errorf("/algo status %d: %s", resp.StatusCode, msg)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

func algoReply(t *testing.T, url string, body map[string]any) algoResponse {
	t.Helper()
	out, err := tryAlgo(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rebuildCounts reads the per-reason rebuild counters.
func rebuildCounts(s *Server) map[string]int64 {
	out := map[string]int64{}
	for i, reason := range rebuildReasons {
		if n := s.algo.rebuilds[i].Load(); n != 0 {
			out[reason] = n
		}
	}
	return out
}

// TestAlgoKVOnlyUpdates: updates that never touch topology cost /algo
// neither a patch copy nor a projection — only the version label moves.
func TestAlgoKVOnlyUpdates(t *testing.T) {
	for _, s := range pgrdf.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			st, names := algoTestStore(t, s)
			h := NewServer(st)
			srv := httptest.NewServer(h)
			defer srv.Close()
			req := map[string]any{"algo": "wcc", "model": names.All, "scheme": s.String()}
			algoReply(t, srv.URL, req)

			voc := pgrdf.DefaultVocabulary()
			for i := 0; i < 3; i++ {
				kv := rdf.Quad{S: voc.VertexIRI(pg.ID(i + 1)), P: voc.KeyIRI("name"), O: rdf.NewLiteral("n")}
				if _, err := st.Insert(names.NodeKV, kv); err != nil {
					t.Fatal(err)
				}
			}
			got := algoReply(t, srv.URL, req)
			if !got.CSRCached || got.CSRPatched || got.CSRChanges != 3 {
				t.Fatalf("after 3 KV inserts: cached=%v patched=%v changes=%d", got.CSRCached, got.CSRPatched, got.CSRChanges)
			}
			if n := h.algo.patches.Load(); n != 0 {
				t.Fatalf("%d patches, want 0", n)
			}
			if rb := rebuildCounts(h); !reflect.DeepEqual(rb, map[string]int64{"cold": 1}) {
				t.Fatalf("rebuilds %v, want only the cold one", rb)
			}
			stats := fetch(t, srv.URL+"/stats")
			if !strings.Contains(stats, `"algoCSRPatches":0,"algoCSRRebuilds":{"cold":1,"overflow":0,"barrier":0,"unclassified":0,"swap":0}`) {
				t.Fatalf("stats: %s", stats)
			}
		})
	}
}

// TestAlgoRebuildReasons: a Load barrier, a ring overflow and a swapped
// store each cost exactly one rebuild, counted under its reason.
func TestAlgoRebuildReasons(t *testing.T) {
	st, names := algoTestStore(t, pgrdf.NG)
	h := NewServer(st)
	srv := httptest.NewServer(h)
	defer srv.Close()
	req := map[string]any{"algo": "wcc", "model": names.All, "scheme": "NG"}
	algoReply(t, srv.URL, req)

	expect := func(step string, want map[string]int64, vertices int) {
		t.Helper()
		got := algoReply(t, srv.URL, req)
		if got.CSRCached || got.Vertices != vertices {
			t.Fatalf("%s: cached=%v vertices=%d, want a projection with %d vertices", step, got.CSRCached, got.Vertices, vertices)
		}
		if again := algoReply(t, srv.URL, req); !again.CSRCached || again.CSRPatched {
			t.Fatalf("%s: the request after the rebuild must be a plain hit", step)
		}
		if rb := rebuildCounts(h); !reflect.DeepEqual(rb, want) {
			t.Fatalf("%s: rebuilds %v, want %v", step, rb, want)
		}
	}

	if _, err := st.Load(names.Topology, []rdf.Quad{figureQuad()}); err != nil {
		t.Fatal(err)
	}
	expect("load", map[string]int64{"cold": 1, "barrier": 1}, 12)

	kv := rdf.Quad{S: rdf.NewIRI("http://pg/v1"), P: rdf.NewIRI("http://pg/k/name"), O: rdf.NewLiteral("x")}
	for i := 0; i <= store.ChangeLogSize/2; i++ {
		if _, err := st.Insert(names.NodeKV, kv); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Delete(names.NodeKV, kv); err != nil {
			t.Fatal(err)
		}
	}
	expect("overflow", map[string]int64{"cold": 1, "barrier": 1, "overflow": 1}, 12)

	st2, _ := algoTestStore(t, pgrdf.NG)
	h.SwapStore(st2)
	expect("swap", map[string]int64{"cold": 1, "barrier": 1, "overflow": 1, "swap": 1}, 10)
}

// TestAlgoSingleFlight: requests that miss together share one projection.
func TestAlgoSingleFlight(t *testing.T) {
	st, names := algoTestStore(t, pgrdf.RF)
	h := NewServer(st)
	srv := httptest.NewServer(h)
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tryAlgo(srv.URL, map[string]any{"algo": "triangles", "model": names.All, "scheme": "RF"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if misses, hits := h.algo.cacheMisses.Load(), h.algo.cacheHits.Load(); misses != 1 || hits != 7 {
		t.Fatalf("%d projections and %d hits for 8 concurrent cold requests, want 1 and 7", misses, hits)
	}
}

// TestAlgoConcurrentWriter hammers the store with single-quad updates
// while /algo runs, and ends with the cached projection equal to one
// built from scratch, every logged change consumed exactly once.
func TestAlgoConcurrentWriter(t *testing.T) {
	const readers, bursts, burstOps = 4, 120, 128
	for _, s := range pgrdf.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			st, names := algoTestStore(t, s)
			h := NewServer(st)
			srv := httptest.NewServer(h)
			defer srv.Close()
			req := map[string]any{"algo": "pagerank", "model": names.All, "scheme": s.String()}
			algoReply(t, srv.URL, req)
			coldVersion := st.Version()

			// The writer toggles quads of a fixed pool: the encodings of
			// edges among old and new vertices, markers, and KVs.
			type placed struct {
				model string
				q     rdf.Quad
			}
			var pool []placed
			conv := pgrdf.NewConverter(s)
			g := pg.NewGraph()
			for i := 1; i <= 14; i++ {
				if _, err := g.AddVertexWithID(pg.ID(i)); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(int64(s) + 1))
			for i := 0; i < 12; i++ {
				e, err := g.AddEdgeWithID(pg.ID(5000+i), pg.ID(rng.Intn(14)+1), pg.ID(rng.Intn(14)+1), "knows")
				if err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 {
					e.SetProperty("since", pg.I(int64(2000+i)))
				}
			}
			ds := conv.Convert(g)
			pooled := map[rdf.Quad]bool{} // parallel edges share their plain triple
			for _, q := range ds.Topology {
				if !pooled[q] {
					pooled[q] = true
					pool = append(pool, placed{names.Topology, q})
				}
			}
			for _, q := range ds.EdgeKV {
				pool = append(pool, placed{names.EdgeKV, q})
			}
			for i := 1; i <= 3; i++ {
				pool = append(pool, placed{names.NodeKV, rdf.Quad{
					S: conv.Vocab.VertexIRI(pg.ID(i)), P: conv.Vocab.KeyIRI("name"), O: rdf.NewLiteral("w")}})
			}

			// Each finished request lets the writer run one more burst, so
			// the projection never falls a whole change log behind and
			// every change must arrive by patch.
			tokens := make(chan struct{}, 1)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var consumed [readers]int
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						got, err := tryAlgo(srv.URL, req)
						if err != nil {
							t.Error(err)
							return
						}
						consumed[r] += got.CSRChanges
						select {
						case tokens <- struct{}{}:
						default:
						}
					}
				}(r)
			}
			present := map[int]bool{}
			for b := 0; b < bursts; b++ {
				<-tokens
				for i := 0; i < burstOps; i++ {
					k := rng.Intn(len(pool))
					var err error
					if present[k] {
						_, err = st.Delete(pool[k].model, pool[k].q)
					} else {
						_, err = st.Insert(pool[k].model, pool[k].q)
					}
					if err != nil {
						t.Fatal(err)
					}
					present[k] = !present[k]
				}
			}
			close(stop)
			wg.Wait()

			final := algoReply(t, srv.URL, req)
			total := final.CSRChanges
			for _, n := range consumed {
				total += n
			}
			if want := int(st.Version() - coldVersion); total != want {
				t.Fatalf("requests consumed %d change-log entries, the store logged %d: a change was lost or applied twice", total, want)
			}
			if rb := rebuildCounts(h); !reflect.DeepEqual(rb, map[string]int64{"cold": 1}) {
				t.Fatalf("rebuilds %v, want only the cold one", rb)
			}
			h.algoCSR.mu.Lock()
			cached := h.algoCSR.proj
			h.algoCSR.mu.Unlock()
			fresh, err := graph.Project(context.Background(), st, graph.ProjectOptions{
				Model: names.All, Scheme: s, Reverse: true}, graph.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			if cached.Version != st.Version() || !reflect.DeepEqual(cached.CSR, fresh) {
				t.Fatalf("cached projection (version %d, V=%d E=%d) differs from a fresh one (version %d, V=%d E=%d)",
					cached.Version, cached.CSR.NumVertices(), cached.CSR.NumEdges(),
					st.Version(), fresh.NumVertices(), fresh.NumEdges())
			}
			if h.algo.patches.Load() == 0 {
				t.Fatal("no patch ran")
			}
			t.Logf("%d changes in %d patches", total, h.algo.patches.Load())
		})
	}
}
