package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

func guardTestStore(t *testing.T, n int) *store.Store {
	t.Helper()
	st := store.New()
	quads := make([]rdf.Quad, 0, n)
	for i := 0; i < n; i++ {
		quads = append(quads, rdf.Quad{
			S: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)),
			P: rdf.NewIRI("http://pg/r/follows"),
			O: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", (i*7+1)%n)),
		})
	}
	if _, err := st.Load("net", quads); err != nil {
		t.Fatal(err)
	}
	return st
}

func decodeError(t *testing.T, resp *http.Response) jsonError {
	t.Helper()
	var je jsonError
	if err := json.NewDecoder(resp.Body).Decode(&je); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	return je
}

// TestOversizedBodyReturns413 covers both raw and form POST bodies on
// /sparql and /update: oversized requests must get a clear 413, not a
// truncated-parse 400.
func TestOversizedBodyReturns413(t *testing.T) {
	st := guardTestStore(t, 10)
	cfg := DefaultConfig()
	cfg.MaxBodyBytes = 512
	srv := httptest.NewServer(NewServerWithConfig(st, cfg))
	defer srv.Close()

	big := "SELECT * WHERE { ?s ?p ?o } #" + strings.Repeat("x", 4096)

	resp, err := http.Post(srv.URL+"/sparql", "application/sparql-query", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("raw query status = %d, want 413", resp.StatusCode)
	}
	if je := decodeError(t, resp); je.Kind != "too-large" {
		t.Errorf("kind = %q", je.Kind)
	}

	resp2, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {big}})
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("form query status = %d, want 413", resp2.StatusCode)
	}

	resp3, err := http.Post(srv.URL+"/update", "application/sparql-update",
		strings.NewReader("INSERT DATA { <http://a> <http://b> \""+strings.Repeat("y", 4096)+"\" }"))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("update status = %d, want 413", resp3.StatusCode)
	}

	// A request under the cap still succeeds.
	resp4, err := http.Post(srv.URL+"/sparql", "application/sparql-query",
		strings.NewReader("SELECT * WHERE { ?s ?p ?o } LIMIT 1"))
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != 200 {
		t.Fatalf("small query status = %d", resp4.StatusCode)
	}
}

// TestReadOnlyUpdateJSON403 is the regression test for the read-only
// endpoint: 403 with a structured JSON body, on every method.
func TestReadOnlyUpdateJSON403(t *testing.T) {
	st := guardTestStore(t, 5)
	h := NewServer(st)
	h.ReadOnly = true
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.PostForm(srv.URL+"/update", url.Values{
		"update": {`INSERT DATA { <http://a> <http://b> <http://c> }`},
		"model":  {"net"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q, want application/json", ct)
	}
	je := decodeError(t, resp)
	if je.Kind != "read-only" || je.Error == "" {
		t.Errorf("error body = %+v", je)
	}
}

// TestQueryTimeoutReturns504: a query held down by fault-injected scan
// latency exceeds the per-request deadline and maps to 504 + JSON.
func TestQueryTimeoutReturns504(t *testing.T) {
	st := guardTestStore(t, 2000)
	fi := store.NewFaultInjector()
	fi.StallScans(16, 100*time.Microsecond)
	st.SetFaultInjector(fi)
	defer st.SetFaultInjector(nil)

	cfg := DefaultConfig()
	cfg.QueryTimeout = 20 * time.Millisecond
	srv := httptest.NewServer(NewServerWithConfig(st, cfg))
	defer srv.Close()

	q := url.QueryEscape(`SELECT * WHERE { ?a ?p ?b . ?c ?q ?d . ?e ?r ?f }`)
	start := time.Now()
	resp, err := http.Get(srv.URL + "/sparql?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timed-out query held the connection for %v", elapsed)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if je := decodeError(t, resp); je.Kind != "timeout" {
		t.Errorf("kind = %q", je.Kind)
	}
}

// TestBudgetExceededReturns400: an over-budget query gets a structured
// 400 with kind budget-exceeded.
func TestBudgetExceededReturns400(t *testing.T) {
	st := guardTestStore(t, 500)
	cfg := DefaultConfig()
	cfg.MaxBindings = 1000
	srv := httptest.NewServer(NewServerWithConfig(st, cfg))
	defer srv.Close()

	q := url.QueryEscape(`SELECT * WHERE { ?a ?p ?b . ?c ?q ?d }`)
	resp, err := http.Get(srv.URL + "/sparql?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if je := decodeError(t, resp); je.Kind != "budget-exceeded" {
		t.Errorf("kind = %q", je.Kind)
	}
}

// TestAdmissionControlShedsWith503 saturates a 1-slot, 0-queue server
// with slow queries: exactly one runs at a time, in-flight work
// completes, and excess load is shed with 503 + Retry-After.
func TestAdmissionControlShedsWith503(t *testing.T) {
	st := guardTestStore(t, 3000)
	fi := store.NewFaultInjector()
	fi.StallScans(8, 200*time.Microsecond)
	st.SetFaultInjector(fi)
	defer st.SetFaultInjector(nil)

	cfg := DefaultConfig()
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 1
	cfg.QueueWait = 10 * time.Millisecond
	cfg.QueryTimeout = 5 * time.Second
	srv := httptest.NewServer(NewServerWithConfig(st, cfg))
	defer srv.Close()

	// Each query scans 3000 rows with ~75ms of injected latency.
	q := url.QueryEscape(`SELECT (COUNT(?a) AS ?n) WHERE { ?a ?p ?b }`)
	const clients = 8
	var wg sync.WaitGroup
	statuses := make([]int, clients)
	retryAfter := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/sparql?query=" + q)
			if err != nil {
				statuses[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for i, s := range statuses {
		switch s {
		case 200:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("503 response %d missing Retry-After", i)
			}
		default:
			t.Errorf("client %d: unexpected status %d", i, s)
		}
	}
	if ok == 0 {
		t.Error("no request completed under saturation")
	}
	if shed == 0 {
		t.Error("no request was shed under saturation")
	}
	t.Logf("saturation: %d ok, %d shed", ok, shed)
}

// TestDrainShedsNewRequests: after Drain, new queries get 503 while the
// server finishes cleanly.
func TestDrainShedsNewRequests(t *testing.T) {
	st := guardTestStore(t, 10)
	h := NewServer(st)
	srv := httptest.NewServer(h)
	defer srv.Close()

	dctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := h.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape("SELECT * WHERE { ?s ?p ?o }"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status = %d, want 503", resp.StatusCode)
	}
	if je := decodeError(t, resp); je.Kind != "overloaded" {
		t.Errorf("kind = %q", je.Kind)
	}
}

// TestGuardErrorKinds drives every guard error kind, and an unknown
// model, through /sparql, /update and /algo: every endpoint answers each
// with the same status and kind, and none sends the text of a recovered
// panic to the client.
func TestGuardErrorKinds(t *testing.T) {
	cases := []struct {
		name   string
		config func(*Config)
		fault  func(*store.FaultInjector)
		cancel bool
		model  string
		status int
		kind   string
	}{
		{name: "timeout", status: http.StatusGatewayTimeout, kind: "timeout",
			config: func(c *Config) { c.QueryTimeout, c.UpdateTimeout = 20*time.Millisecond, 20*time.Millisecond },
			fault:  func(fi *store.FaultInjector) { fi.StallScans(8, 200*time.Microsecond) }},
		{name: "budget", status: http.StatusBadRequest, kind: "budget-exceeded",
			config: func(c *Config) { c.MaxBindings = 5 }},
		{name: "canceled", status: http.StatusRequestTimeout, kind: "canceled", cancel: true},
		{name: "internal", status: http.StatusInternalServerError, kind: "internal",
			fault: func(fi *store.FaultInjector) { fi.FailScansAfter(0) }},
		{name: "unknown model", status: http.StatusNotFound, kind: "unknown-model", model: "nope"},
	}
	requests := map[string]func(model string) *http.Request{
		"/sparql": func(model string) *http.Request {
			q := url.Values{"query": {`SELECT * WHERE { ?a ?p ?b . ?c ?q ?d }`}, "model": {model}}
			return httptest.NewRequest(http.MethodGet, "/sparql?"+q.Encode(), nil)
		},
		"/update": func(model string) *http.Request {
			u := url.Values{"update": {`DELETE { ?a <http://x> ?d } WHERE { ?a ?p ?b . ?c ?q ?d }`}, "model": {model}}
			req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(u.Encode()))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			return req
		},
		"/algo": func(model string) *http.Request {
			body := fmt.Sprintf(`{"algo":"pagerank","scheme":"NG","model":%q}`, model)
			return httptest.NewRequest(http.MethodPost, "/algo", strings.NewReader(body))
		},
	}
	for _, c := range cases {
		for path, newReq := range requests {
			t.Run(c.name+path, func(t *testing.T) {
				st := guardTestStore(t, 2000)
				cfg := DefaultConfig()
				if c.config != nil {
					c.config(&cfg)
				}
				h := NewServerWithConfig(st, cfg)
				if c.fault != nil {
					fi := store.NewFaultInjector()
					c.fault(fi)
					st.SetFaultInjector(fi)
				}
				model := c.model
				if model == "" {
					model = "net"
				}
				req := newReq(model)
				if c.cancel {
					ctx, cancel := context.WithCancel(req.Context())
					cancel()
					req = req.WithContext(ctx)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				resp := rec.Result()
				defer resp.Body.Close()
				je := decodeError(t, resp)
				if resp.StatusCode != c.status || je.Kind != c.kind {
					t.Fatalf("status %d kind %q (%s), want %d %q", resp.StatusCode, je.Kind, je.Error, c.status, c.kind)
				}
				if je.Error == "" || strings.Contains(je.Error, "injected") {
					t.Fatalf("error message %q: want a message without the panic's text", je.Error)
				}
			})
		}
	}
}
