package main

// The benchmark's contract with later issues: workload names, metric
// names, units, directions and bounds. BENCHMARK.json at the repo root
// repeats them for the driver; smoke_test.go asserts the two agree.

import (
	"fmt"

	"repro/internal/pgrdf"
)

// metricSpec names one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEndSpecs are reported on every workload by the black-box run.
// The timing bounds are the driver's maximum: ten runs on this host
// spread by 4-9 % (quartile distance over median) on a quiet stretch and
// up to 14 % on a noisy one, and a bound below three times the spread
// would call noise a regression (README.md, "The four noise rules").
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"footprint_bytes_per_quad", "B", "lower", 0.02},
}

// Request classes. The seven lookup classes answer with a few rows;
// the five scan classes are dominated by joins, scans and grouping.
var (
	lookupClasses = []string{"EQ1", "EQ2", "EQ4", "EQ5a", "EQ6a", "EQ8a", "EQ11b"}
	scanClasses   = []string{"EQ3", "EQ12", "EQ9", "EQ10", "EQ11d"}
	readClasses   = append(append([]string{}, lookupClasses...), scanClasses...)
	// sharedClasses have one text for every scheme, so NG and SP must
	// answer them with the same solutions (the paper's equivalence).
	sharedClasses = map[string]bool{"EQ1": true, "EQ2": true, "EQ3": true, "EQ4": true,
		"EQ9": true, "EQ10": true, "EQ11b": true, "EQ11d": true, "EQ12": true}
	updateClasses = []string{"insert", "delete"}
	algoClasses   = []string{"update", "project", "pagerank", "wcc", "triangles"}
)

// perLayerSpecs lists every per-layer metric the traced run emits, in
// the order README.md documents them.
func perLayerSpecs() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	// Input preparation (outside setup_s).
	add("ms", "lower", "twitter.generate_ms", "pgrdf.convert_ms", "ntriples.write_ms")
	add("count", "lower", "pgrdf.quads_per_edge")
	// Cold start.
	add("ms", "lower", "ntriples.parse_ms", "store.load_ms", "store.restore_binary_ms", "wal.open_ms")
	add("MB/s", "higher", "ntriples.parse_mb_per_s")
	add("1/s", "higher", "wal.replay_records_per_s")
	// Read path, front end.
	add("us", "lower", "sparql.parse_us", "sparql.plan_us", "sparql.exec_us", "httpapi.serialize_us",
		"httpapi.handler_self_us", "httpapi.wire_us")
	add("B", "lower", "httpapi.resp_bytes_per_req")
	add("ratio", "higher", "sparql.plan_cache_hit_ratio")
	// Read path, executor and store.
	for _, c := range readClasses {
		add("ms", "lower", "sparql.exec_ms."+c)
	}
	add("ns", "lower", "store.scan_ns_per_row")
	add("us", "lower", "store.range_lookup_us")
	add("count", "lower", "sparql.rows_per_req", "sparql.index_range_scans_per_req",
		"sparql.index_full_scans_per_req", "sparql.parallel_morsels_per_req")
	// Write path.
	add("us", "lower", "sparql.update_parse_us", "sparql.update_apply_us", "store.insert_us", "store.delete_us",
		"wal.commit_us", "wal.append_us", "wal.fsync_us")
	add("B", "lower", "wal.bytes_per_update", "wal.disk_bytes_per_quad")
	add("ms", "lower", "wal.checkpoint_full_ms", "wal.checkpoint_incr_ms", "wal.recover_ms")
	add("count", "lower", "wal.acked_lost")
	// Analytics.
	add("ms", "lower", "graph.project_ms", "graph.pagerank_ms", "graph.wcc_ms", "graph.triangles_ms",
		"graph.server_build_ms", "graph.server_run_ms")
	add("count", "higher", "graph.csr_edges")
	add("ratio", "higher", "graph.csr_cache_hit_ratio")
	// Client-side median per request class.
	for _, c := range readClasses {
		add("ms", "lower", "http.p50_ms."+c)
	}
	add("ms", "lower", "http.p50_ms.read")
	for _, c := range updateClasses {
		add("ms", "lower", "http.p50_ms."+c)
	}
	for _, c := range algoClasses {
		add("ms", "lower", "http.p50_ms."+c)
	}
	// Server process and store gauges.
	add("MB", "lower", "server.rss_mb", "server.rss_peak_mb")
	add("ratio", "lower", "server.cpu_sys_share")
	add("B", "lower", "store.bytes_per_quad")
	add("count", "lower", "store.dict_terms", "httpapi.shed_total")
	add("ratio", "higher", "httpapi.server_time_share")
	// The harness itself.
	add("%", "lower", "harness.pass_spread_pct", "harness.setup_spread_pct", "trace.overhead_pct")
	add("1/s", "higher", "harness.median_pass_rps")
	add("ms", "lower", "harness.p99_ms", "harness.client_cpu_ms_per_req")
	add("ratio", "higher", "trace.coverage")
	return out
}

// metricSet collects values for a fixed list of specs. Setting a name
// outside the list is a bug in the harness, not a measurement.
type metricSet struct {
	specs []metricSpec
	vals  map[string]float64
}

func newMetricSet(specs []metricSpec) *metricSet {
	return &metricSet{specs: specs, vals: make(map[string]float64, len(specs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, s := range m.specs {
		if s.Name == name {
			m.vals[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the spec")
}

// missing returns the spec names that have no value yet.
func (m *metricSet) missing() []string {
	var out []string
	for _, s := range m.specs {
		if _, ok := m.vals[s.Name]; !ok {
			out = append(out, s.Name)
		}
	}
	return out
}

// workload fixes one traffic mix. Requests per pass are sized so one
// pass takes about three seconds at the seed commit with -seconds 15;
// the work is fixed, so a faster server finishes a pass sooner.
type workload struct {
	Name     string
	Why      string
	Scheme   pgrdf.Scheme
	Scale    float64 // twitter.PaperConfig().Scale
	Clients  int
	Requests int  // per pass at -seconds 15
	Durable  bool // serve -data-dir D -fsync always
}

var workloads = []workload{
	{Name: "lookup-ng", Scheme: pgrdf.NG, Scale: 0.05, Clients: 2, Requests: 4900,
		Why: "few-row answers: HTTP, form parsing, sparql.Parse, planning and JSON dominate, so front-end and plan-cache work shows and executor work does not"},
	{Name: "scan-sp", Scheme: pgrdf.SP, Scale: 0.025, Clients: 2, Requests: 200,
		Why: "joins, full scans, grouping and path search dominate on the paper's other encoding, so executor work shows and front-end work must not"},
	{Name: "mixed-rw-ng", Scheme: pgrdf.NG, Scale: 0.05, Clients: 1, Requests: 1300, Durable: true,
		Why: "80% lookups beside 10% inserts and 10% deletes on one store lock with one fsync per update; setup is crash recovery (checkpoint decode plus WAL replay)"},
	{Name: "algo-rf", Scheme: pgrdf.RF, Scale: 0.05, Clients: 1, Requests: 240,
		Why: "POST /algo bypasses SPARQL: p95 is CSR projection after an update, p50 is the cached algorithm run"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
