package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/repl"
	"repro/internal/store"
	"repro/internal/wal"
)

// TestStaleReads503 covers the opt-in degradation ceiling: a follower
// that has never reached its leader refuses queries with 503 and a
// Retry-After hint, while /stats keeps answering so operators can see
// why.
func TestStaleReads503(t *testing.T) {
	h := NewServer(store.New())
	f := repl.New(repl.Options{Leader: "http://127.0.0.1:0", MaxStaleness: time.Millisecond})
	h.AttachFollower(f)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape("SELECT ?s WHERE { ?s ?p ?o }"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stale read status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After hint")
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"stale"`) {
		t.Errorf("error body does not name the stale kind: %s", body)
	}
	if got := f.Status().StaleRejected; got != 1 {
		t.Errorf("StaleRejected = %d, want 1", got)
	}

	// Updates are refused outright on a follower — read-only wins over
	// stale, so the error explains the real restriction.
	ur, err := http.PostForm(srv.URL+"/update", url.Values{"update": {"INSERT DATA { <http://a> <http://b> \"c\" }"}, "model": {"m"}})
	if err != nil {
		t.Fatal(err)
	}
	defer ur.Body.Close()
	if ur.StatusCode != http.StatusForbidden {
		t.Fatalf("update on follower = %d, want 403", ur.StatusCode)
	}

	// /stats stays up and reports the degraded state.
	sr, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats struct {
		Repl struct {
			Degraded      bool  `json:"degraded"`
			StaleRejected int64 `json:"staleRejected"`
		} `json:"repl"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Repl.Degraded || stats.Repl.StaleRejected != 1 {
		t.Fatalf("stats repl block: %+v", stats.Repl)
	}
}

// TestWalTailEndpoint exercises the leader-side protocol directly:
// no-WAL refusal, bad parameters, a full read with position headers,
// and the 409 divergence answer.
func TestWalTailEndpoint(t *testing.T) {
	// Without a WAL the endpoint refuses with a typed error.
	plain := httptest.NewServer(NewServer(store.New()))
	t.Cleanup(plain.Close)
	resp, err := http.Get(plain.URL + "/wal?from=0&epoch=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("no-wal status = %d, want 409", resp.StatusCode)
	}

	dir := t.TempDir()
	st, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	h := NewServer(st)
	h.AttachWAL(l)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	up, err := http.PostForm(srv.URL+"/update", url.Values{
		"update": {`INSERT DATA { <http://a> <http://p> "1" }`}, "model": {"m"}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, up.Body)
	up.Body.Close()
	if up.StatusCode != http.StatusOK {
		t.Fatalf("update status = %d", up.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/wal?from=0&epoch=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail status = %d", resp.StatusCode)
	}
	if resp.Header.Get(repl.HeaderID) == "" {
		t.Fatal("tail response has no position headers")
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	consumed, last, err := wal.DecodeFrames(data, func(seq uint64, b wal.Batch) error {
		n += len(b.Ops)
		return nil
	})
	if err != nil || consumed != int64(len(data)) || last != 1 || n != 1 {
		t.Fatalf("decode: consumed=%d last=%d ops=%d err=%v", consumed, last, n, err)
	}

	// A position outside the history answers 409 with the leader's
	// current position in the body.
	resp, err = http.Get(srv.URL + "/wal?from=0&epoch=99")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("diverged status = %d, want 409", resp.StatusCode)
	}
	var d repl.Diverged
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Position.ID == "" || d.Kind != "diverged" {
		t.Fatalf("diverged body: %+v", d)
	}

	// Snapshot bootstrap responses carry the position.
	sr, err := http.Get(srv.URL + "/export?format=snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	io.Copy(io.Discard, sr.Body)
	if sr.Header.Get(repl.HeaderID) != d.Position.ID {
		t.Fatalf("snapshot position ID %q != leader ID %q", sr.Header.Get(repl.HeaderID), d.Position.ID)
	}
}

// TestWalTailLongPoll verifies the wake path: a tail request at the
// end of the log blocks until a commit lands, then returns the new
// record well before the requested wait elapses.
func TestWalTailLongPoll(t *testing.T) {
	dir := t.TempDir()
	st, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	h := NewServer(st)
	h.AttachWAL(l)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	type result struct {
		n   int
		err error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/wal?from=0&epoch=0&wait=10s")
		if err != nil {
			resc <- result{0, err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		resc <- result{len(data), err}
	}()

	time.Sleep(100 * time.Millisecond) // let the poll park
	up, err := http.PostForm(srv.URL+"/update", url.Values{
		"update": {`INSERT DATA { <http://a> <http://p> "1" }`}, "model": {"m"}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, up.Body)
	up.Body.Close()

	select {
	case r := <-resc:
		if r.err != nil || r.n == 0 {
			t.Fatalf("long poll returned n=%d err=%v", r.n, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll did not wake on commit")
	}
}

// TestFollowerAlgoPatches: a follower's /algo cache follows the records
// the follower applies from the leader's log the way a leader's follows
// its own updates — by patch, consuming exactly the effective changes,
// to a CSR equal to a fresh projection of the follower's store.
func TestFollowerAlgoPatches(t *testing.T) {
	for _, s := range pgrdf.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			lst, l, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			names, err := pgrdf.LoadPartitioned(lst, pgrdf.NewConverter(s).Convert(algoTestGraph(t)), "pg")
			if err != nil {
				t.Fatal(err)
			}
			lh := NewServer(lst)
			lh.AttachWAL(l)
			leader := httptest.NewServer(lh)
			defer leader.Close()

			f := repl.New(repl.Options{Leader: leader.URL, PollWait: 50 * time.Millisecond,
				BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond, Logf: t.Logf})
			fh := NewServer(store.New())
			fh.AttachFollower(f)
			follower := httptest.NewServer(fh)
			defer follower.Close()
			ctx, cancel := context.WithCancel(t.Context())
			done := make(chan error, 1)
			go func() { done <- f.Run(ctx) }()
			defer func() { cancel(); <-done }()
			fst, err := f.WaitReady(ctx)
			if err != nil {
				t.Fatal(err)
			}

			req := map[string]any{"algo": "pagerank", "model": names.All, "k": 20}
			if cold := algoReply(t, follower.URL, req); cold.CSRCached {
				t.Fatal("the follower's first /algo found a cached CSR")
			}
			before := fst.View().Version

			// The leader inserts edges among old and new vertices, then
			// deletes one of them again.
			effective := 0
			topology := func(op string, edges ...[2]pg.ID) {
				t.Helper()
				g := pg.NewGraph()
				for i, e := range edges {
					for _, v := range e {
						if g.Vertex(v) == nil {
							if _, err := g.AddVertexWithID(v); err != nil {
								t.Fatal(err)
							}
						}
					}
					if _, err := g.AddEdgeWithID(pg.ID(9000+i), e[0], e[1], "knows"); err != nil {
						t.Fatal(err)
					}
				}
				var data strings.Builder
				for _, q := range pgrdf.NewConverter(s).Convert(g).Topology {
					if q.InDefaultGraph() {
						fmt.Fprintf(&data, "%s . ", q.Triple())
					} else {
						fmt.Fprintf(&data, "GRAPH %s { %s } . ", q.G, q.Triple())
					}
					effective++
				}
				postLeaderUpdate(t, leader.URL, names.Topology, op+" DATA { "+data.String()+"}")
			}
			topology("INSERT", [2]pg.ID{3, 5}, [2]pg.ID{1, 11}, [2]pg.ID{11, 12}, [2]pg.ID{12, 1})
			topology("DELETE", [2]pg.ID{3, 5})
			waitCaughtUp(t, f, l)
			if got := int(fst.View().Version - before); got != effective {
				t.Fatalf("the follower applied %d changes, want %d", got, effective)
			}

			got := algoReply(t, follower.URL, req)
			if !got.CSRCached || !got.CSRPatched || got.CSRChanges != effective {
				t.Fatalf("follower /algo after the leader's updates: cached=%v patched=%v changes=%d, want a patch of %d changes",
					got.CSRCached, got.CSRPatched, got.CSRChanges, effective)
			}
			fh.algoCSR.mu.Lock()
			cached := fh.algoCSR.proj
			fh.algoCSR.mu.Unlock()
			fresh, err := graph.Project(t.Context(), fst, graph.ProjectOptions{
				Model: names.All, Scheme: s, Reverse: true}, graph.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			if cached.Version != fst.View().Version || !reflect.DeepEqual(cached.CSR, fresh) {
				t.Fatalf("patched projection (version %d, V=%d E=%d) differs from a fresh one (version %d, V=%d E=%d)",
					cached.Version, cached.CSR.NumVertices(), cached.CSR.NumEdges(),
					fst.View().Version, fresh.NumVertices(), fresh.NumEdges())
			}
			res, err := graph.Runner{}.PageRank(t.Context(), fresh, graph.PageRankOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want := graph.TopScores(fresh, res.Scores, 20); got.Vertices != fresh.NumVertices() ||
				got.Edges != fresh.NumEdges() || !reflect.DeepEqual(got.Top, want) {
				t.Fatalf("follower reply V=%d E=%d top %v, fresh projection V=%d E=%d top %v",
					got.Vertices, got.Edges, got.Top, fresh.NumVertices(), fresh.NumEdges(), want)
			}
		})
	}
}

func postLeaderUpdate(t *testing.T, base, model, update string) {
	t.Helper()
	resp, err := http.PostForm(base+"/update", url.Values{"update": {update}, "model": {model}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
		t.Fatalf("update returned %s: %s", resp.Status, body)
	}
}

// waitCaughtUp waits until the follower's Status reports the leader's
// end of log as applied.
func waitCaughtUp(t *testing.T, f *repl.Follower, l *wal.Log) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		pos, fs := l.Position(), f.Status()
		if fs.LeaderID == pos.ID && fs.Epoch == pos.Epoch && fs.Offset == pos.Offset && fs.NextSeq == pos.NextSeq {
			return
		}
	}
	t.Fatalf("follower did not catch up: follower %+v, leader %+v", f.Status(), l.Position())
}
