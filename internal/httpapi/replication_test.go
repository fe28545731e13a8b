package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

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
