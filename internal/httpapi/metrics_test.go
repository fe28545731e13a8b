package httpapi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
)

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// validateExposition parses every line of the scrape as Prometheus
// text format: a # HELP/# TYPE comment or `name{labels} value`.
func validateExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) < 4 {
				t.Errorf("line %d: malformed comment %q", lineno, line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("line %d: no value separator in %q", lineno, line)
			continue
		}
		series, value := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil && value != "+Inf" {
			t.Errorf("line %d: value %q is not a float: %v", lineno, value, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Errorf("line %d: unbalanced labels in %q", lineno, series)
			}
			name = series[:i]
			labels := series[i+1 : len(series)-1]
			for _, lv := range strings.Split(labels, ",") {
				eq := strings.IndexByte(lv, '=')
				if eq < 0 || !strings.HasPrefix(lv[eq+1:], `"`) || !strings.HasSuffix(lv, `"`) {
					t.Errorf("line %d: malformed label %q", lineno, lv)
				}
			}
		}
		if !strings.HasPrefix(name, "pgrdf_") {
			t.Errorf("line %d: metric %q lacks the pgrdf_ prefix", lineno, name)
		}
		v, _ := strconv.ParseFloat(value, 64)
		samples[series] = v
	}
	return samples
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)

	// Generate some traffic first. (A malformed query fails at parse and
	// is not counted as a query, so it would not show up in the per-form
	// metrics — send two good ones.)
	q := url.QueryEscape(`PREFIX key: <http://pg/k/> SELECT ?x WHERE { ?x key:name ?n }`)
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + "/sparql?query=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	body := scrapeMetrics(t, srv.URL)
	samples := validateExposition(t, body)

	if got := samples[`pgrdf_queries_total{form="select"}`]; got != 2 {
		t.Errorf("select queries = %v, want 2", got)
	}
	if got := samples[`pgrdf_query_errors_total{form="select"}`]; got != 0 {
		t.Errorf("select errors = %v, want 0", got)
	}
	if got := samples[`pgrdf_query_duration_seconds_count{form="select"}`]; got != 2 {
		t.Errorf("duration count = %v, want 2", got)
	}
	// The +Inf bucket must equal the count.
	if got := samples[`pgrdf_query_duration_seconds_bucket{form="select",le="+Inf"}`]; got != 2 {
		t.Errorf("+Inf bucket = %v, want 2", got)
	}
	for _, want := range []string{
		"pgrdf_plan_cache_hits_total",
		"pgrdf_plan_cache_misses_total",
		"pgrdf_plan_cache_evictions_total",
		"pgrdf_plan_cache_entries",
		"pgrdf_slow_queries_total",
		"pgrdf_requests_shed_total",
		"pgrdf_quads",
		"pgrdf_dict_terms",
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("scrape is missing %s:\n%s", want, body)
		}
	}
	if samples["pgrdf_quads"] <= 0 {
		t.Errorf("pgrdf_quads = %v, want > 0", samples["pgrdf_quads"])
	}

	// Scraping twice is stable (no panic, counters monotone).
	again := validateExposition(t, scrapeMetrics(t, srv.URL))
	if again[`pgrdf_queries_total{form="select"}`] < 2 {
		t.Errorf("counter went backwards on second scrape")
	}
}

// TestMetricsGoRuntime: the Go runtime gauges are read at scrape time.
// The goroutine count includes the goroutine serving the scrape, the
// heap holds at least the loaded store, and the GC pause total never
// falls between scrapes, a collection in between included.
func TestMetricsGoRuntime(t *testing.T) {
	srv := testServer(t)
	first := validateExposition(t, scrapeMetrics(t, srv.URL))
	runtime.GC()
	second := validateExposition(t, scrapeMetrics(t, srv.URL))
	for _, name := range []string{"pgrdf_go_goroutines", "pgrdf_go_heap_bytes", "pgrdf_go_gc_pause_seconds_total"} {
		if _, ok := second[name]; !ok {
			t.Fatalf("scrape is missing %s", name)
		}
	}
	if g := second["pgrdf_go_goroutines"]; g < 1 {
		t.Errorf("pgrdf_go_goroutines = %v, want >= 1", g)
	}
	if h := second["pgrdf_go_heap_bytes"]; h <= 0 {
		t.Errorf("pgrdf_go_heap_bytes = %v, want > 0", h)
	}
	if p0, p1 := first["pgrdf_go_gc_pause_seconds_total"], second["pgrdf_go_gc_pause_seconds_total"]; p0 < 0 || p1 < p0 {
		t.Errorf("pgrdf_go_gc_pause_seconds_total went %v -> %v across a GC", p0, p1)
	}
}

// TestMetricsAlgoRunHistogram: pgrdf_algo_run_seconds has one histogram
// per algorithm, counting completed runs, with cumulative buckets that
// end at the count, and a sum that is the replies' runMS to within their
// microsecond rounding.
func TestMetricsAlgoRunHistogram(t *testing.T) {
	st, names := algoTestStore(t, pgrdf.NG)
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()
	runMS := map[string]float64{}
	for _, algo := range []string{"triangles", "pagerank", "triangles"} {
		resp := postAlgo(t, srv.URL, map[string]any{"algo": algo, "model": names.All})
		var r algoResponse
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		runMS[algo] += r.RunMS
	}
	samples := validateExposition(t, scrapeMetrics(t, srv.URL))
	for algo, want := range map[string]float64{"pagerank": 1, "wcc": 0, "triangles": 2} {
		label := fmt.Sprintf(`{algo=%q}`, algo)
		count, ok := samples["pgrdf_algo_run_seconds_count"+label]
		if !ok || count != want {
			t.Errorf("%s: count = %v (present %v), want %v", algo, count, ok, want)
		}
		prev := 0.0
		for _, le := range durationBucketsSeconds {
			b, ok := samples[fmt.Sprintf(`pgrdf_algo_run_seconds_bucket{algo=%q,le=%q}`, algo, formatLE(le))]
			if !ok {
				t.Errorf("%s: no bucket le=%g", algo, le)
			}
			if b < prev {
				t.Errorf("%s: bucket le=%g holds %v, below the previous %v", algo, le, b, prev)
			}
			prev = b
		}
		if inf := samples[fmt.Sprintf(`pgrdf_algo_run_seconds_bucket{algo=%q,le="+Inf"}`, algo)]; inf != count {
			t.Errorf("%s: +Inf bucket = %v, want the count %v", algo, inf, count)
		}
		sum, reported := samples["pgrdf_algo_run_seconds_sum"+label], runMS[algo]/1000
		if sum < reported-1e-9 || sum-reported > count*1e-6 {
			t.Errorf("%s: sum = %gs, replies' runMS add up to %gs", algo, sum, reported)
		}
	}
}

func TestMetricsDictStableAcrossComputedQueries(t *testing.T) {
	srv := testServer(t)
	before := validateExposition(t, scrapeMetrics(t, srv.URL))["pgrdf_dict_terms"]
	for i := 0; i < 5; i++ {
		q := url.QueryEscape(fmt.Sprintf(
			`PREFIX key: <http://pg/k/> SELECT (CONCAT(?n, "-%d") AS ?c) WHERE { ?x key:name ?n }`, i))
		resp, err := http.Get(srv.URL + "/sparql?query=" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("query %d status = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	after := validateExposition(t, scrapeMetrics(t, srv.URL))["pgrdf_dict_terms"]
	if after != before {
		t.Errorf("dict terms grew %v -> %v across read-only computed-projection requests", before, after)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	get := func(srv string) int {
		resp, err := http.Get(srv + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Default server: pprof absent.
	srv := testServer(t)
	if code := get(srv.URL); code != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof: status = %d, want 404", code)
	}
	// Opted in: pprof index responds.
	cfg := DefaultConfig()
	cfg.EnablePprof = true
	on := httptest.NewServer(NewServerWithConfig(store.New(), cfg))
	defer on.Close()
	if code := get(on.URL); code != http.StatusOK {
		t.Errorf("pprof with EnablePprof: status = %d, want 200", code)
	}
}

// TestStoreWriteMetrics: the gauges that explain a slow read from the
// outside follow the store — delta rows and tombstones from the current
// version, compactions and published versions from the writers — and
// /stats names the version it describes.
func TestStoreWriteMetrics(t *testing.T) {
	st := store.New()
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()
	q := func(i int) rdf.Quad {
		return rdf.Quad{S: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)), P: rdf.NewIRI("http://pg/k/name"), O: rdf.NewLiteral("x")}
	}
	if _, err := st.Load("m", []rdf.Quad{q(0), q(1), q(2)}); err != nil {
		t.Fatal(err)
	}
	for _, op := range []store.Op{{Model: "m", Quad: q(3)}, {Model: "m", Quad: q(4)}, {Delete: true, Model: "m", Quad: q(0)}} {
		if _, _, err := st.Apply([]store.Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	samples := validateExposition(t, scrapeMetrics(t, srv.URL))
	for name, want := range map[string]float64{
		"pgrdf_store_delta_rows":                        2,
		"pgrdf_store_tombstones":                        1,
		"pgrdf_store_compactions_total":                 0,
		"pgrdf_store_compaction_duration_seconds_count": 0,
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	published := samples["pgrdf_store_versions_published_total"]
	if published < 4 {
		t.Errorf("pgrdf_store_versions_published_total = %v, want at least the load and three writes", published)
	}
	st.Compact()
	samples = validateExposition(t, scrapeMetrics(t, srv.URL))
	if samples["pgrdf_store_delta_rows"] != 0 || samples["pgrdf_store_tombstones"] != 0 ||
		samples["pgrdf_store_compactions_total"] != 1 || samples["pgrdf_store_versions_published_total"] != published+1 {
		t.Errorf("after Compact: %v", samples)
	}
	if body := fetch(t, srv.URL+"/stats"); !strings.Contains(body, fmt.Sprintf(`"storeVersion":%d,`, st.View().Version)) || st.View().Version != 4 {
		t.Errorf("store version %d, /stats: %s", st.View().Version, body)
	}
}
