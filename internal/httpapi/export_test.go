package httpapi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/guard/guardtest"
	"repro/internal/ntriples"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/twitter"
)

func TestExportStreamsNQuads(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/export?model=social")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/n-quads" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	quads, err := ntriples.NewReader(strings.NewReader(string(body))).ReadAll()
	if err != nil {
		t.Fatalf("export output is not valid N-Quads: %v\n%s", err, body)
	}
	if len(quads) != 4 {
		t.Fatalf("exported %d quads, want 4:\n%s", len(quads), body)
	}
}

func TestExportUnknownModelIs404(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/export?model=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestExportMissingModelIs400(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/export")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestExportBytesPinned pins the SHA-256 of /export for one generated
// property graph under each scheme. The digests were recorded from the
// export that copied the model's rows before writing, so streaming
// writes the same bytes in the same order.
func TestExportBytesPinned(t *testing.T) {
	want := map[pgrdf.Scheme]string{
		pgrdf.RF: "46e949827cdb4b0a2456ac854ad2371f989248091e48483f1599953a445093ad",
		pgrdf.NG: "bffb74a907c2e122c96ecb612e93b48ad36b4d633a0c196c73db88a95c5fce66",
		pgrdf.SP: "3d555e4f62b231fc7b1e6803cb843a6af95995177a372e81cd44b26e66c452ff",
	}
	g := twitter.Generate(twitter.TestConfig())
	for _, s := range pgrdf.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			st, err := pgrdf.NewStore(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := pgrdf.LoadSingle(st, pgrdf.NewConverter(s).Convert(g), "pg"); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(NewServer(st))
			resp, err := http.Get(srv.URL + "/export?model=pg")
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			n, err := io.Copy(h, resp.Body)
			resp.Body.Close()
			srv.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[s] {
				t.Errorf("/export sha256 %s (%d bytes, %d quads), want %s", got, n, st.Len(), want[s])
			}
		})
	}
}

// bigExportStore holds model "big": a follows-chain of n quads.
func bigExportStore(t *testing.T, n int) *store.Store {
	t.Helper()
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	quads := make([]rdf.Quad, n)
	for i := range quads {
		quads[i] = rdf.Quad{S: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)), P: follows, O: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i+1))}
	}
	st := store.New()
	if _, err := st.Load("big", quads); err != nil {
		t.Fatal(err)
	}
	return st
}

// heapProbe is a ResponseWriter that discards the body and, once at
// least `at` bytes have been written, records the live heap.
type heapProbe struct {
	header http.Header
	n, at  int
	live   uint64
	probed bool
}

func (p *heapProbe) Header() http.Header { return p.header }
func (p *heapProbe) WriteHeader(int)     {}
func (p *heapProbe) Write(b []byte) (int, error) {
	p.n += len(b)
	if !p.probed && p.n >= p.at {
		p.probed = true
		p.live = liveHeap()
	}
	return len(b), nil
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestExportHeapBoundedByBatch exports a 200 000-quad model and measures
// the live heap once 1 MiB of N-Quads has been written. The handler
// holds one batch of rows at a time, so the heap grows by far less than
// 1 MiB over its level before the request; a copy of the model's rows
// would alone be 8 MB.
func TestExportHeapBoundedByBatch(t *testing.T) {
	const quads = 200_000
	st := bigExportStore(t, quads)
	h := NewServer(st)
	// A first request builds whatever the server sets up lazily, so the
	// measured one sees only the export's own allocations.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/export?model=nope", nil))
	w := &heapProbe{header: http.Header{}, at: 1 << 20}
	req := httptest.NewRequest(http.MethodGet, "/export?model=big", nil)
	before := liveHeap()
	h.ServeHTTP(w, req)
	if !w.probed {
		t.Fatalf("export of %d quads wrote %d bytes, want at least %d", quads, w.n, w.at)
	}
	if growth := int64(w.live) - int64(before); growth >= 1<<20 {
		t.Fatalf("live heap grew by %d bytes mid-stream, want < 1 MiB", growth)
	}
}

// TestExportClientDisconnect closes the response body a little way into
// a large export: the handler must notice and return, leaving no
// goroutine behind.
func TestExportClientDisconnect(t *testing.T) {
	srv := httptest.NewServer(NewServer(bigExportStore(t, 200_000)))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	before := runtime.NumGoroutine()
	resp, err := client.Get(srv.URL + "/export?model=big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(io.Discard, resp.Body, 64<<10); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after := guardtest.Goroutines(before); after > before {
		t.Fatalf("%d goroutines before the export, %d after the client went away", before, after)
	}
}
