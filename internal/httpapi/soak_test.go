package httpapi

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard/guardtest"
	"repro/internal/rdf"
	"repro/internal/store/storetest"
	"repro/internal/wal"
)

// TestSoakServingBesideWrites runs the whole write path under the whole
// read path for 30 s: eight clients on a multi-pattern NG lookup, one
// client alternating INSERT DATA and DELETE DATA of an edge, one client
// on /algo, the background checkpointer, and a poller on
// /stats that fails the run the moment an answer takes more than 5 s —
// the symptom of a reader parked behind a writer (ROADMAP item 1). It
// ends with no failed request, no goroutine left behind once the server
// and the log are closed, and the served store equal to what the data
// directory restores. Part of `make store-race`; skipped with -short.
func TestSoakServingBesideWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("30 s soak")
	}
	before := runtime.NumGoroutine()
	indexes := []string{"PCSGM", "PSCGM", "SPCGM", "GSPCM"}
	dir := t.TempDir()
	st, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, Indexes: indexes})
	if err != nil {
		t.Fatal(err)
	}
	edge := func(i, tag int) string {
		g := fmt.Sprintf("<http://pg/e%d>", i)
		return fmt.Sprintf(`GRAPH %s { %s <http://pg/k/hasTag> "#t%d" . <http://pg/v%d> <http://pg/r/follows> <http://pg/v%d> }`,
			g, g, tag, i%400, (i*7+1)%400)
	}
	var quads []rdf.Quad
	for i := 0; i < 2400; i++ {
		g := rdf.NewIRI(fmt.Sprintf("http://pg/e%d", i))
		quads = append(quads,
			rdf.Quad{S: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i%400)), P: rdf.NewIRI("http://pg/r/follows"), O: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", (i*7+1)%400)), G: g},
			rdf.Quad{S: g, P: rdf.NewIRI("http://pg/k/hasTag"), O: rdf.NewLiteral(fmt.Sprintf("#t%d", i%8)), G: g})
	}
	if _, err := st.Load("data", quads); err != nil {
		t.Fatal(err)
	}
	// The loaded quads are in no log: the directory holds them only once
	// the first tick, finding no checkpoint.bin, writes one.
	l.StartCheckpointer(st, 250*time.Millisecond)
	h := NewServer(st)
	h.AttachWAL(l)
	srv := httptest.NewServer(h)
	defer srv.Close()

	var failed, served atomic.Int64
	client := &http.Client{Timeout: 5 * time.Second}
	call := func(do func() (*http.Response, error)) {
		resp, err := do()
		if err == nil {
			var body []byte
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}
		if err != nil {
			if failed.Add(1) == 1 {
				t.Errorf("first failed request: %v", err)
			}
			return
		}
		served.Add(1)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(step func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					step(i)
				}
			}
		}()
	}
	for r := 0; r < 8; r++ {
		r := r
		loop(func(i int) {
			q := fmt.Sprintf(`SELECT ?n3 WHERE { GRAPH ?g1 { ?n <http://pg/r/follows> ?n2 . ?g1 <http://pg/k/hasTag> "#t%d" } ?n2 <http://pg/r/follows> ?n3 }`, (r+i)%8)
			call(func() (*http.Response, error) {
				return client.Get(srv.URL + "/sparql?model=data&query=" + url.QueryEscape(q))
			})
		})
	}
	loop(func(i int) {
		verb := "INSERT"
		if i%2 == 1 {
			verb = "DELETE"
		}
		form := url.Values{"model": {"data"}, "update": {verb + " DATA { " + edge(5000+i/2%3000, i/2%8) + " }"}}
		call(func() (*http.Response, error) { return client.PostForm(srv.URL+"/update", form) })
	})
	loop(func(int) {
		call(func() (*http.Response, error) {
			return client.Post(srv.URL+"/algo", "application/json", bytes.NewReader([]byte(`{"algo":"pagerank","model":"data","scheme":"NG"}`)))
		})
	})
	loop(func(int) {
		call(func() (*http.Response, error) { return client.Get(srv.URL + "/stats") })
		time.Sleep(50 * time.Millisecond)
	})

	time.Sleep(30 * time.Second)
	close(stop)
	wg.Wait()
	call(func() (*http.Response, error) { return client.Get(srv.URL + "/stats") })
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed", n, n+served.Load())
	}
	ws := st.WriteStats()
	if ws.Version == 0 || l.Stats().Checkpoints == 0 {
		t.Fatalf("the soak wrote nothing or never checkpointed: version %d, %+v", ws.Version, l.Stats())
	}
	t.Logf("%d requests, store version %d, %d compactions, %d checkpoints",
		served.Load(), ws.Version, ws.Compactions, l.Stats().Checkpoints)

	srv.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	client.CloseIdleConnections()
	if after := guardtest.Goroutines(before); after > before {
		t.Fatalf("%d goroutines before the soak, %d after the server and the log closed", before, after)
	}
	want := storetest.Fingerprint(st.View())
	st2, l2, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, Indexes: indexes})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if storetest.Fingerprint(st2.View()) != want {
		t.Fatal("the store restored from disk differs from the one that was served")
	}
}
