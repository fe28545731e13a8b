package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewServer(testStore(t)))
	t.Cleanup(srv.Close)
	return srv
}

// testStore holds model "social": v1 follows v2 (edge e3), their names
// (Mira's tagged @en) and v1's age.
func testStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	st.CreateIndex("GSPCM")
	v1 := rdf.NewIRI("http://pg/v1")
	v2 := rdf.NewIRI("http://pg/v2")
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	name := rdf.NewIRI(rdf.KeyNS + "name")
	if _, err := st.Load("social", []rdf.Quad{
		rdf.NewQuad(v1, follows, v2, rdf.NewIRI("http://pg/e3")),
		{S: v1, P: name, O: rdf.NewLiteral("Amy")},
		{S: v2, P: name, O: rdf.NewLangLiteral("Mira", "en")},
		{S: v1, P: rdf.NewIRI(rdf.KeyNS + "age"), O: rdf.NewInt(23)},
	}); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSelectViaGET(t *testing.T) {
	srv := testServer(t)
	q := url.QueryEscape(`PREFIX key: <http://pg/k/> SELECT ?x ?n WHERE { ?x key:name ?n }`)
	resp, err := http.Get(srv.URL + "/sparql?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Errorf("content type = %q", ct)
	}
	res, _, err := ParseResultsJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || len(res.Vars) != 2 {
		t.Fatalf("results: %+v", res)
	}
	// Round-tripped terms keep kinds, datatypes and language tags.
	found := false
	for _, row := range res.Rows {
		if row[1].Equal(rdf.NewLangLiteral("Mira", "en")) {
			found = true
			if !row[0].Equal(rdf.NewIRI("http://pg/v2")) {
				t.Errorf("subject = %v", row[0])
			}
		}
	}
	if !found {
		t.Error("language-tagged literal lost in JSON round trip")
	}
}

func TestSelectViaPOSTForm(t *testing.T) {
	srv := testServer(t)
	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{
		"query": {`PREFIX key: <http://pg/k/> SELECT ?a WHERE { ?x key:age ?a }`},
		"model": {"social"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	res, _, err := ParseResultsJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Rows[0][0].Equal(rdf.NewInt(23)) {
		t.Fatalf("typed literal round trip: %+v", res.Rows)
	}
}

func TestSelectViaPOSTRawBody(t *testing.T) {
	srv := testServer(t)
	body := strings.NewReader(`SELECT ?s WHERE { ?s ?p ?o }`)
	resp, err := http.Post(srv.URL+"/sparql", "application/sparql-query", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	res, _, err := ParseResultsJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestAskViaHTTP(t *testing.T) {
	srv := testServer(t)
	q := url.QueryEscape(`PREFIX rel: <http://pg/r/> ASK { ?x rel:follows ?y }`)
	resp, err := http.Get(srv.URL + "/sparql?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, boolean, err := ParseResultsJSON(resp.Body)
	if err != nil || !boolean {
		t.Fatalf("ask = %v, %v", boolean, err)
	}
}

func TestConstructViaHTTP(t *testing.T) {
	srv := testServer(t)
	q := url.QueryEscape(`PREFIX rel: <http://pg/r/>
		CONSTRUCT { ?y <http://x/followedBy> ?x } WHERE { ?x rel:follows ?y }`)
	resp, err := http.Get(srv.URL + "/sparql?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/n-quads" {
		t.Errorf("content type = %q", ct)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "<http://x/followedBy>") {
		t.Errorf("nquads body: %q", buf[:n])
	}
}

func TestUpdateViaHTTP(t *testing.T) {
	srv := testServer(t)
	resp, err := http.PostForm(srv.URL+"/update", url.Values{
		"update": {`INSERT DATA { <http://pg/v3> <http://pg/k/name> "Zed" }`},
		"model":  {"social"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Verify the quad is queryable.
	q := url.QueryEscape(`SELECT ?x WHERE { ?x <http://pg/k/name> "Zed" }`)
	resp2, err := http.Get(srv.URL + "/sparql?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	res, _, err := ParseResultsJSON(resp2.Body)
	if err != nil || res.Len() != 1 {
		t.Fatalf("inserted row not visible: %v, %v", res, err)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"missing query", func() (*http.Response, error) {
			return http.Get(srv.URL + "/sparql")
		}, 400},
		{"bad query", func() (*http.Response, error) {
			return http.Get(srv.URL + "/sparql?query=" + url.QueryEscape("SELEKT ?x"))
		}, 400},
		{"unknown model", func() (*http.Response, error) {
			return http.Get(srv.URL + "/sparql?query=" + url.QueryEscape("SELECT ?x WHERE { ?x ?p ?y }") + "&model=missing")
		}, 404},
		{"update without model", func() (*http.Response, error) {
			return http.PostForm(srv.URL+"/update", url.Values{"update": {`INSERT DATA { <http://a> <http://b> <http://c> }`}})
		}, 400},
		{"update via GET", func() (*http.Response, error) {
			return http.Get(srv.URL + "/update")
		}, 405},
		{"query via DELETE", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/sparql", nil)
			return http.DefaultClient.Do(req)
		}, 405},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
}

func TestReadOnlyServer(t *testing.T) {
	st := store.New()
	h := NewServer(st)
	h.ReadOnly = true
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.PostForm(srv.URL+"/update", url.Values{
		"update": {`INSERT DATA { <http://a> <http://b> <http://c> }`},
		"model":  {"m"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Errorf("read-only update status = %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1024)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, `"quads":4`) {
		t.Errorf("stats body: %s", body)
	}
	resp2, _ := http.Get(srv.URL + "/stats?model=missing")
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Errorf("missing model stats status = %d", resp2.StatusCode)
	}
}

func TestJSONUnboundVariables(t *testing.T) {
	st := store.New()
	st.Load("m", []rdf.Quad{{S: rdf.NewIRI("http://a"), P: rdf.NewIRI("http://p"), O: rdf.NewIRI("http://b")}})
	res, err := sparql.NewEngine(st).QueryContext(t.Context(), "", `SELECT ?s ?missing WHERE { ?s <http://p> ?o OPTIONAL { ?s <http://q> ?missing } }`)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteResultsJSON(&sb, res); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "missing\":") {
		t.Errorf("unbound var should be absent from bindings: %s", sb.String())
	}
	back, _, err := ParseResultsJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Rows[0][1].IsZero() {
		t.Error("unbound survived round trip as bound")
	}
}

// sendQuery runs one /sparql request through Server.ServeHTTP, carrying
// the query as a GET parameter ("GET"), a form POST ("form") or a raw
// application/sparql-query POST body ("raw").
func sendQuery(h http.Handler, via, query, model string) *httptest.ResponseRecorder {
	v := url.Values{"query": {query}}
	if model != "" {
		v.Set("model", model)
	}
	var req *http.Request
	switch via {
	case "GET":
		req = httptest.NewRequest(http.MethodGet, "/sparql?"+v.Encode(), nil)
	case "form":
		req = httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(v.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	default:
		v.Del("query")
		req = httptest.NewRequest(http.MethodPost, "/sparql?"+v.Encode(), strings.NewReader(query))
		req.Header.Set("Content-Type", "application/sparql-query")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestQueryDispatch drives every query form over every transport through
// the one engine entry point, plus the request, parse and model errors.
func TestQueryDispatch(t *testing.T) {
	h := NewServer(testStore(t))
	const prologue = `PREFIX rel: <http://pg/r/> PREFIX key: <http://pg/k/> `
	cases := []struct {
		name, query, model string
		status             int
		want               string // Content-Type on 200, else the error kind
		check              func(body string) bool
	}{
		{"select", prologue + `SELECT ?x ?n WHERE { ?x key:name ?n }`, "social", 200,
			"application/sparql-results+json", func(body string) bool {
				res, _, err := ParseResultsJSON(strings.NewReader(body))
				return err == nil && res.Len() == 2 && len(res.Vars) == 2
			}},
		{"ask", prologue + `ASK { ?x rel:follows ?y }`, "", 200,
			"application/sparql-results+json", func(body string) bool {
				_, found, err := ParseResultsJSON(strings.NewReader(body))
				return err == nil && found
			}},
		{"construct", prologue + `CONSTRUCT { ?y <http://x/followedBy> ?x } WHERE { ?x rel:follows ?y }`, "social", 200,
			"application/n-quads", func(body string) bool {
				return strings.Contains(body, "<http://pg/v2> <http://x/followedBy> <http://pg/v1>")
			}},
		{"describe", `DESCRIBE <http://pg/v2>`, "", 200,
			"application/n-quads", func(body string) bool { return strings.Contains(body, `"Mira"@en`) }},
		{"malformed", `SELEKT ?x WHERE { ?x ?p ?o }`, "", 400, "parse", nil},
		{"conflicting projection", `SELECT ?o (?s AS ?o) WHERE { ?s ?p ?o }`, "", 400, "parse", nil},
		{"empty", " \n ", "", 400, "request", nil},
		{"unknown model", `SELECT ?s WHERE { ?s ?p ?o }`, "missing", 404, "unknown-model", nil},
	}
	for _, c := range cases {
		for _, via := range []string{"GET", "form", "raw"} {
			rec := sendQuery(h, via, c.query, c.model)
			body := rec.Body.String()
			if rec.Code != c.status {
				t.Errorf("%s via %s: status %d, want %d: %s", c.name, via, rec.Code, c.status, body)
				continue
			}
			if c.status != 200 {
				var je jsonError
				if err := json.Unmarshal(rec.Body.Bytes(), &je); err != nil || je.Kind != c.want {
					t.Errorf("%s via %s: error body %s, want kind %q", c.name, via, body, c.want)
				}
				continue
			}
			if ct := rec.Header().Get("Content-Type"); ct != c.want {
				t.Errorf("%s via %s: Content-Type %q, want %q", c.name, via, ct, c.want)
			}
			if !c.check(body) {
				t.Errorf("%s via %s: unexpected body %s", c.name, via, body)
			}
		}
	}
}

// TestQueryParsedAtMostOnce: a SELECT is parsed on its first request
// only (later ones hit the plan cache and parse nothing), and a form the
// plan cache does not hold is parsed once per request, not twice.
func TestQueryParsedAtMostOnce(t *testing.T) {
	h := NewServer(testStore(t))
	parses := func() float64 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		samples := validateExposition(t, rec.Body.String())
		v, ok := samples["pgrdf_query_parses_total"]
		if !ok {
			t.Fatal("/metrics has no pgrdf_query_parses_total")
		}
		return v
	}
	for _, c := range []struct {
		query string
		n     int
		want  float64
		what  string
	}{
		{`SELECT ?s WHERE { ?s ?p ?o }`, 20, 1, "20 identical SELECTs"},
		{`ASK { ?s ?p ?o }`, 3, 3, "3 ASKs"},
	} {
		before := parses()
		for i := 0; i < c.n; i++ {
			if rec := sendQuery(h, "GET", c.query, ""); rec.Code != 200 {
				t.Fatalf("%s: status %d: %s", c.query, rec.Code, rec.Body)
			}
		}
		if got := parses() - before; got != c.want {
			t.Errorf("%s parsed %v times, want %v", c.what, got, c.want)
		}
	}
}
