package httpapi

// GET /metrics — Prometheus text exposition (version 0.0.4), hand
// rolled over the engine's and store's atomic counters so the endpoint
// needs no dependencies and costs one snapshot per scrape.

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metricsWriter accumulates one exposition; HELP/TYPE headers are
// emitted once per metric family.
type metricsWriter struct {
	sb strings.Builder
}

func (m *metricsWriter) family(name, help, typ string) {
	fmt.Fprintf(&m.sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one sample line. Labels alternate name, value; label
// values are escaped per the exposition format.
func (m *metricsWriter) sample(name string, value string, labels ...string) {
	m.sb.WriteString(name)
	if len(labels) > 0 {
		m.sb.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				m.sb.WriteByte(',')
			}
			// %q escapes quotes, backslashes and newlines as the
			// exposition format requires.
			fmt.Fprintf(&m.sb, `%s=%q`, labels[i], labels[i+1])
		}
		m.sb.WriteByte('}')
	}
	m.sb.WriteByte(' ')
	m.sb.WriteString(value)
	m.sb.WriteByte('\n')
}

func (m *metricsWriter) counter(name, help string, v int64, labels ...string) {
	m.family(name, help, "counter")
	m.sample(name, fmt.Sprintf("%d", v), labels...)
}

func (m *metricsWriter) gauge(name, help string, v int64, labels ...string) {
	m.family(name, help, "gauge")
	m.sample(name, fmt.Sprintf("%d", v), labels...)
}

// histogram writes h's cumulative buckets, sum and count as samples of
// the histogram family name, each carrying labels (the buckets add le).
func (m *metricsWriter) histogram(name string, h *durationHist, labels ...string) {
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := -1.0
		if i < len(durationBucketsSeconds) {
			le = durationBucketsSeconds[i]
		}
		m.sample(name+"_bucket", fmt.Sprintf("%d", cum), append(labels[:len(labels):len(labels)], "le", formatLE(le))...)
	}
	m.sample(name+"_sum", fmt.Sprintf("%g", time.Duration(h.nanos.Load()).Seconds()), labels...)
	m.sample(name+"_count", fmt.Sprintf("%d", cum), labels...)
}

func formatLE(le float64) string {
	if le < 0 {
		return "+Inf"
	}
	return fmt.Sprintf("%g", le) // %g never emits trailing zeros
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "method", "method not allowed")
		return
	}
	eng := s.engine()
	snap := eng.MetricsSnapshot()
	var m metricsWriter

	// Query counters and latency histogram, labelled by query form.
	m.family("pgrdf_queries_total", "Queries executed, by form.", "counter")
	for _, f := range snap.Forms {
		m.sample("pgrdf_queries_total", fmt.Sprintf("%d", f.Queries), "form", f.Form)
	}
	m.family("pgrdf_query_errors_total", "Queries that returned an error, by form.", "counter")
	for _, f := range snap.Forms {
		m.sample("pgrdf_query_errors_total", fmt.Sprintf("%d", f.Errors), "form", f.Form)
	}
	m.family("pgrdf_query_duration_seconds", "Query wall time, by form.", "histogram")
	for _, f := range snap.Forms {
		for _, b := range f.Buckets {
			m.sample("pgrdf_query_duration_seconds_bucket",
				fmt.Sprintf("%d", b.Count), "form", f.Form, "le", formatLE(b.LE))
		}
		m.sample("pgrdf_query_duration_seconds_sum", fmt.Sprintf("%g", f.DurationSum), "form", f.Form)
		m.sample("pgrdf_query_duration_seconds_count", fmt.Sprintf("%d", f.Queries), "form", f.Form)
	}
	m.counter("pgrdf_slow_queries_total",
		"Queries at or over the slow-query threshold.", snap.SlowQueries)
	m.counter("pgrdf_query_parses_total",
		"Query texts parsed; a SELECT whose plan is cached parses none.", snap.Parses)

	// Plan cache.
	m.counter("pgrdf_plan_cache_hits_total", "Plan cache hits.", snap.PlanCache.Hits)
	m.counter("pgrdf_plan_cache_misses_total", "Plan cache misses (compilations).", snap.PlanCache.Misses)
	m.counter("pgrdf_plan_cache_evictions_total", "Plan cache evictions.", snap.PlanCache.Evictions)
	m.gauge("pgrdf_plan_cache_entries", "Compiled plans currently cached.", int64(snap.PlanCache.Entries))

	// Go runtime.
	rt := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
	}
	metrics.Read(rt)
	m.gauge("pgrdf_go_goroutines", "Live goroutines in the process (leak gauge).", int64(rt[0].Value.Uint64()))
	m.gauge("pgrdf_go_heap_bytes", "Heap bytes held by live and not yet swept objects.", int64(rt[1].Value.Uint64()))
	// The runtime counts a pause as GOMAXPROCS CPU-seconds per second of
	// wall time, so dividing gives the pauses' wall time.
	m.family("pgrdf_go_gc_pause_seconds_total", "Wall time the process spent paused by the garbage collector.", "counter")
	m.sample("pgrdf_go_gc_pause_seconds_total", fmt.Sprintf("%g", rt[2].Value.Float64()/float64(runtime.GOMAXPROCS(0))))

	// Graph analytics (POST /algo).
	m.family("pgrdf_algo_runs_total", "Graph-algorithm runs completed, by algorithm.", "counter")
	for i, name := range algoNames {
		m.sample("pgrdf_algo_runs_total", fmt.Sprintf("%d", s.algo.runs[i].Load()), "algo", name)
	}
	m.family("pgrdf_algo_errors_total", "Graph-algorithm runs that returned an error, by algorithm.", "counter")
	for i, name := range algoNames {
		m.sample("pgrdf_algo_errors_total", fmt.Sprintf("%d", s.algo.errors[i].Load()), "algo", name)
	}
	m.counter("pgrdf_algo_csr_cache_hits_total", "Algo requests served from the cached CSR projection.", s.algo.cacheHits.Load())
	m.counter("pgrdf_algo_csr_cache_misses_total", "Algo requests that rebuilt the CSR projection.", s.algo.cacheMisses.Load())
	m.counter("pgrdf_algo_csr_patches_total", "Cached CSR projections patched forward from the store change log.", s.algo.patches.Load())
	m.family("pgrdf_algo_csr_rebuilds_total", "CSR projections built from scratch, by why the cache could not serve.", "counter")
	for i, reason := range rebuildReasons {
		m.sample("pgrdf_algo_csr_rebuilds_total", fmt.Sprintf("%d", s.algo.rebuilds[i].Load()), "reason", reason)
	}
	m.family("pgrdf_algo_csr_patch_duration_seconds", "Wall time of CSR patches.", "histogram")
	m.histogram("pgrdf_algo_csr_patch_duration_seconds", &s.algo.patchTime)
	m.family("pgrdf_algo_run_seconds", "Wall time of completed graph-algorithm runs, CSR excluded, by algorithm.", "histogram")
	for i, name := range algoNames {
		m.histogram("pgrdf_algo_run_seconds", &s.algo.runTime[i], "algo", name)
	}

	// Admission control.
	m.counter("pgrdf_requests_shed_total", "Requests shed with 503 by admission control.", s.shedCount.Load())

	// Store gauges.
	st := eng.Store()
	m.gauge("pgrdf_quads", "Quads stored across all models.", int64(st.View().Len()))
	m.gauge("pgrdf_dict_terms", "Terms in the shared dictionary.", int64(st.Dict().Len()))
	m.gauge("pgrdf_dict_lexical_bytes", "Lexical bytes held by the dictionary.", st.Dict().LexicalBytes())
	// What a read merges on top of the base arrays, and what writers have
	// done about it.
	wst := st.WriteStats()
	m.gauge("pgrdf_store_delta_rows", "Inserted quads not yet compacted into the sorted base arrays.", int64(wst.DeltaRows))
	m.gauge("pgrdf_store_tombstones", "Deleted base rows not yet compacted away.", int64(wst.Tombstones))
	m.counter("pgrdf_store_compactions_total", "Compactions of the delta into new base arrays.", wst.Compactions)
	m.family("pgrdf_store_compaction_duration_seconds", "Wall time spent compacting.", "summary")
	m.sample("pgrdf_store_compaction_duration_seconds_sum", fmt.Sprintf("%g", time.Duration(wst.CompactionNanos).Seconds()))
	m.sample("pgrdf_store_compaction_duration_seconds_count", fmt.Sprintf("%d", wst.Compactions))
	m.counter("pgrdf_store_versions_published_total", "Store versions published by writers.", wst.VersionsPublished)

	// Durability (present only when the server runs with a data dir).
	if s.wal != nil {
		ws := s.wal.Stats()
		m.gauge("pgrdf_wal_bytes", "Write-ahead log size since the last checkpoint.", ws.WalBytes)
		m.gauge("pgrdf_wal_records", "Write-ahead log records since the last checkpoint.", ws.WalRecords)
		m.counter("pgrdf_checkpoint_total", "Checkpoints completed.", ws.Checkpoints)
		m.counter("pgrdf_checkpoint_errors_total", "Checkpoint attempts that failed.", ws.CheckpointErrors)
		m.gauge("pgrdf_checkpoint_last_bytes", "Size of the most recent checkpoint snapshot.", ws.LastCheckpointBytes)
		m.family("pgrdf_checkpoint_last_duration_seconds", "Wall time of the most recent checkpoint.", "gauge")
		m.sample("pgrdf_checkpoint_last_duration_seconds", fmt.Sprintf("%g", ws.LastCheckpointDuration.Seconds()))
	}

	// Replication (present only on followers).
	if s.follower != nil {
		fs := s.follower.Status()
		degraded := int64(0)
		if fs.Degraded {
			degraded = 1
		}
		m.gauge("pgrdf_repl_degraded", "1 while the leader is unreachable and reads are stale.", degraded)
		m.gauge("pgrdf_repl_offset", "Last applied byte offset in the leader's log epoch.", fs.Offset)
		m.gauge("pgrdf_repl_epoch", "Leader log epoch the follower is tailing.", int64(fs.Epoch))
		m.gauge("pgrdf_repl_bytes_behind", "Log bytes between the follower and the leader's durable end.", fs.BytesBehind)
		m.gauge("pgrdf_repl_records_behind", "Records between the follower and the leader's durable end.", fs.RecordsBehind)
		m.family("pgrdf_repl_last_contact_seconds", "Age of the last successful leader contact (-1 = never).", "gauge")
		m.sample("pgrdf_repl_last_contact_seconds", fmt.Sprintf("%g", fs.LastContactMS/1000))
		m.counter("pgrdf_repl_applied_records_total", "Log records applied since start.", fs.AppliedRecords)
		m.counter("pgrdf_repl_bootstraps_total", "Snapshot bootstraps completed.", fs.Bootstraps)
		m.counter("pgrdf_repl_divergences_total", "Divergences detected (each forces a re-bootstrap).", fs.Divergences)
		m.counter("pgrdf_repl_epoch_adoptions_total", "Leader checkpoints adopted without re-bootstrap.", fs.EpochAdoptions)
		m.counter("pgrdf_repl_retry_errors_total", "Failed leader interactions retried with backoff.", fs.RetryErrors)
		m.counter("pgrdf_repl_stale_rejected_total", "Reads refused with 503 for exceeding the staleness ceiling.", fs.StaleRejected)
	}

	// Per-index rows and scan counters.
	idx := st.IndexStatsSnapshot()
	sort.Slice(idx, func(i, j int) bool { return idx[i].Spec < idx[j].Spec })
	m.family("pgrdf_index_rows", "Rows per semantic-network index.", "gauge")
	for _, is := range idx {
		m.sample("pgrdf_index_rows", fmt.Sprintf("%d", is.Rows), "index", is.Spec)
	}
	m.family("pgrdf_index_range_scans_total", "Range scans served per index.", "counter")
	for _, is := range idx {
		m.sample("pgrdf_index_range_scans_total", fmt.Sprintf("%d", is.RangeScans), "index", is.Spec)
	}
	m.family("pgrdf_index_full_scans_total", "Full scans served per index.", "counter")
	for _, is := range idx {
		m.sample("pgrdf_index_full_scans_total", fmt.Sprintf("%d", is.FullScans), "index", is.Spec)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(m.sb.String()))
}
