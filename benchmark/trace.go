package main

// The traced run (-trace 1). End-to-end numbers always come from the
// untraced black-box passes; this file explains them layer by layer
// without touching product code, by timing calls into each layer's
// public functions from here:
//
//   - the request list is replayed in-process: Server.ServeHTTP on a
//     counting writer is the handler span, and the same request is then
//     taken apart — sparql.Parse, Engine.Explain, Engine.QueryContext,
//     WriteResultsJSON; graph.Project, Runner.* — into child spans;
//   - the update path is taken apart on a scratch WAL: ParseUpdate,
//     Engine.Update with a CommitHook that times Log.Commit and the
//     store apply inside it;
//   - /metrics, /stats, /algo reply fields and /proc deltas of the
//     black-box passes give the counts and shares.
//
// Child spans are re-executions made right after the handler returns,
// so in wall time they follow their parent; a span's self time is its
// duration minus its children's durations.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/wal"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the trace began; Parent indexes the span that caused it (-1 for
// a request's root); spans of one request share Request.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced leg of trace.overhead_pct.
type tracer struct {
	t0    time.Time
	spans []span
	req   int
}

// request opens the next request's root span.
func (t *tracer) request() int {
	if t == nil {
		return -1
	}
	t.req++
	return t.begin("request", -1)
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Request: t.req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// countingWriter is the in-process reply sink: it keeps the status and
// the byte count and drops the body.
type countingWriter struct {
	header http.Header
	status int
	n      int
}

func (w *countingWriter) Header() http.Header { return w.header }
func (w *countingWriter) WriteHeader(s int)   { w.status = s }
func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// layerSums accumulates one replay's durations by layer.
type layerSums struct {
	wall                               time.Duration
	reads, algos                       int
	handler, parse, plan, exec, serial time.Duration
	respBytes                          int
	rows                               int
	execByClass                        map[string][]time.Duration
	handlerAll, selfAll                []time.Duration // every request; reads only
	project, pagerank, wcc, triangles  []time.Duration
	csrEdges                           int
}

// replaySample cuts a pass list down to what the in-process legs can
// replay in about two seconds: every fourth request of each class, or,
// on algo-rf where a projection must follow each toggle, the first four
// whole cycles. It returns the kept requests and their list positions.
func replaySample(w workload, list []request) (out []request, index []int) {
	seen := map[string]int{}
	for i, r := range list {
		keep := seen[r.Class]%4 == 0
		if w.Name == "algo-rf" {
			keep = i < 4*algoCycle
		}
		if keep {
			out = append(out, r)
			index = append(index, i)
		}
		seen[r.Class]++
	}
	return out, index
}

// replay runs list through the handler and, request by request, through
// the layers below it.
func (r *run) replay(ctx context.Context, h http.Handler, list []request, tr *tracer) (layerSums, error) {
	s := layerSums{execByClass: map[string][]time.Duration{}}
	eng := r.oracle.eng
	var cs *graph.CSR
	start := time.Now()
	for _, q := range list {
		root := tr.request()
		req := httptest.NewRequest(http.MethodPost, q.Path, strings.NewReader(q.Body))
		req.Header.Set("Content-Type", q.contentType())
		w := &countingWriter{header: http.Header{}, status: http.StatusOK}
		id := tr.begin("httpapi.handler", root)
		t0 := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(t0)
		tr.end(id)
		if w.status != http.StatusOK {
			return s, fmt.Errorf("in-process %s answered %d", q.Class, w.status)
		}
		s.handlerAll = append(s.handlerAll, d)
		switch q.Path {
		case "/sparql":
			s.reads++
			s.handler += d
			s.respBytes += w.n

			c := tr.begin("sparql.parse", id)
			t0 = time.Now()
			if _, err := sparql.Parse(q.Text); err != nil {
				return s, err
			}
			parse := time.Since(t0)
			tr.end(c)
			s.parse += parse

			// Explain parses and compiles; its excess over Parse is planning.
			c = tr.begin("sparql.plan", id)
			t0 = time.Now()
			if _, err := eng.Explain("", q.Text); err != nil {
				return s, err
			}
			s.plan += max(time.Since(t0)-parse, 0)
			tr.end(c)

			// The oracle's plan cache already holds the text: this is execution alone.
			c = tr.begin("sparql.exec", id)
			t0 = time.Now()
			res, err := eng.QueryContext(ctx, "", q.Text)
			if err != nil {
				return s, err
			}
			exec := time.Since(t0)
			tr.end(c)
			s.exec += exec
			s.execByClass[q.Class] = append(s.execByClass[q.Class], exec)
			s.rows += res.Len()

			c = tr.begin("httpapi.serialize", id)
			t0 = time.Now()
			if err := httpapi.WriteResultsJSON(io.Discard, res); err != nil {
				return s, err
			}
			serial := time.Since(t0)
			tr.end(c)
			s.serial += serial
			s.selfAll = append(s.selfAll, d-parse-exec-serial)
		case "/algo":
			s.algos++
			if q.Class == "project" || cs == nil {
				c := tr.begin("graph.project", id)
				t0 = time.Now()
				var err error
				cs, err = graph.Project(ctx, r.oracle.st, graph.ProjectOptions{Scheme: r.oracle.scheme, Reverse: true}, graph.Budget{})
				if err != nil {
					return s, err
				}
				s.project = append(s.project, time.Since(t0))
				tr.end(c)
				s.csrEdges = cs.NumEdges()
			}
			c := tr.begin("graph.run", id)
			d, err := runAlgo(ctx, cs, q.Text)
			if err != nil {
				return s, err
			}
			tr.end(c)
			switch q.Text {
			case "pagerank":
				s.pagerank = append(s.pagerank, d)
			case "wcc":
				s.wcc = append(s.wcc, d)
			default:
				s.triangles = append(s.triangles, d)
			}
		}
		tr.end(root)
	}
	s.wall = time.Since(start)
	return s, nil
}

func runAlgo(ctx context.Context, cs *graph.CSR, algo string) (time.Duration, error) {
	var run graph.Runner
	var err error
	t0 := time.Now()
	switch algo {
	case "pagerank":
		_, err = run.PageRank(ctx, cs, graph.PageRankOptions{})
	case "wcc":
		_, err = run.WCC(ctx, cs)
	default:
		_, err = run.Triangles(ctx, cs)
	}
	return time.Since(t0), err
}

func meanUS(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(time.Microsecond) / float64(n)
}

func medianMS(d []time.Duration) float64 { return quantile(d, 0.5) }

// labEdge numbers the scratch edges of the probes and the WAL lab well
// above any edge a pass touches.
const labEdge = 20_000_000

// passLayers sets what the black-box passes already hold: the harness
// about itself, the server process, the /metrics counters, and the
// client-side median of every request class.
func (r *run) passLayers() error {
	L := r.layers
	best := r.passes[r.best]
	bestList := r.lists[1+r.best]
	L.set("harness.setup_spread_pct", spreadPct(r.setups))
	L.set("harness.pass_spread_pct", spreadPct(r.res.PassSecs))
	var rps, clientCPU []float64
	for _, p := range r.passes {
		rps = append(rps, p.rps())
		clientCPU = append(clientCPU, float64(p.clientCPU)/float64(time.Millisecond)/float64(len(p.lat)))
	}
	L.set("harness.median_pass_rps", median(rps))
	L.set("harness.p99_ms", quantile(best.lat, 0.99))
	L.set("harness.client_cpu_ms_per_req", slices.Min(clientCPU))
	L.set("server.cpu_sys_share", float64(best.serverCPU.sys)/float64(max(best.serverCPU.total(), 1)))
	L.set("server.rss_mb", median(r.rss))
	L.set("server.rss_peak_mb", slices.Max(r.rss))

	requests := float64(len(r.passes) * len(bestList))
	delta := func(name string) float64 { return r.scrape1[name] - r.scrape0[name] }
	L.set("sparql.index_range_scans_per_req", delta("pgrdf_index_range_scans_total")/requests)
	L.set("sparql.index_full_scans_per_req", delta("pgrdf_index_full_scans_total")/requests)
	L.set("sparql.parallel_morsels_per_req", delta("pgrdf_parallel_morsels_total")/requests)
	hits, misses := delta("pgrdf_plan_cache_hits_total"), delta("pgrdf_plan_cache_misses_total")
	L.set("sparql.plan_cache_hit_ratio", hits/max(hits+misses, 1))
	L.set("httpapi.shed_total", r.scrape1["pgrdf_requests_shed_total"])
	L.set("store.dict_terms", r.scrape1["pgrdf_dict_terms"])
	var clientTime time.Duration
	for _, p := range r.passes {
		for _, d := range p.lat {
			clientTime += d
		}
	}
	L.set("httpapi.server_time_share",
		(delta("pgrdf_query_duration_seconds_sum")+r.algoMS/1000)/clientTime.Seconds())

	// Client-side median per class: the best pass where the workload has
	// the class, a short sequential probe of the same server where not.
	probe, err := r.probe()
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	byClass := classLatencies(bestList, best.lat)
	for class, lat := range probe {
		if _, ok := byClass[class]; !ok {
			byClass[class] = lat
		}
	}
	for _, class := range append(append(append([]string{"read"}, readClasses...), updateClasses...), algoClasses...) {
		L.set("http.p50_ms."+class, medianMS(byClass[class]))
	}
	st, err := r.drv.stats()
	if err != nil {
		return err
	}
	L.set("store.bytes_per_quad", float64(st.StorageBytes)/float64(st.Quads))
	L.set("graph.csr_cache_hit_ratio", float64(st.CacheHits)/float64(max(st.CacheHits+st.CacheMisses, 1)))
	L.set("graph.server_build_ms", median(r.algoBuild))
	L.set("graph.server_run_ms", median(r.algoRun))
	return nil
}

// traceLayers is the traced run's last step: everything that is not an
// end-to-end metric.
func (r *run) traceLayers(ctx context.Context) error {
	L := r.layers
	tr := &tracer{t0: time.Now()}
	w := r.cfg.workload
	if err := r.passLayers(); err != nil {
		return err
	}

	// One client, same server: what a request costs with nobody beside it.
	sample, index := replaySample(w, r.lists[0])
	wantLen := make([]int, len(index))
	for i, at := range index {
		wantLen[i] = r.warm.bodyLen[at]
	}
	solo := newDriver(r.srv, 1)
	defer solo.close()
	before, err := solo.scrape()
	if err != nil {
		return err
	}
	algoBefore := r.algoMS
	soloPass, err := solo.pass(sample, r.notingAlgo(sample, lengthCheck(sample, wantLen)))
	if err != nil {
		return err
	}
	r.count(soloPass)
	after, err := solo.scrape()
	if err != nil {
		return err
	}
	// What the server's own clock saw of the solo pass: engine time of
	// queries and updates from /metrics, of /algo from the replies.
	engineMS := 1000*(after["pgrdf_query_duration_seconds_sum"]-before["pgrdf_query_duration_seconds_sum"]) +
		r.algoMS - algoBefore
	var soloMS float64
	for _, d := range soloPass.lat {
		soloMS += float64(d) / float64(time.Millisecond)
	}
	r.drv.close()
	r.srv.kill() // the in-process legs below get the machine to themselves

	// The paper's equivalence, on the scheme-independent classes.
	if err := r.twinCheck(ctx); err != nil {
		return err
	}

	// In-process replays over the oracle's store, on a scratch WAL.
	labDir := filepath.Join(r.tmp, "lab")
	_, lab, err := wal.Open(labDir, wal.Options{Sync: wal.SyncAlways, Indexes: serveIndexes})
	if err != nil {
		return err
	}
	defer lab.Close()
	start := time.Now()
	if err := lab.Checkpoint(r.oracle.st); err != nil {
		return err
	}
	L.set("wal.checkpoint_full_ms", msSince(start))
	if n, err := dirBytes(labDir); err == nil {
		L.set("wal.disk_bytes_per_quad", float64(n)/float64(r.oracle.st.Len()))
	}
	h := httpapi.NewServer(r.oracle.st)
	if w.Durable {
		h.AttachWAL(lab)
	}
	plain, err := r.replay(ctx, h, sample, nil)
	if err != nil {
		return err
	}
	sample2, _ := replaySample(w, r.lists[1])
	traced, err := r.replay(ctx, h, sample2, tr)
	if err != nil {
		return err
	}
	L.set("trace.overhead_pct", 100*(traced.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds())

	// Reads, front end and executor. A workload without reads (algo-rf)
	// takes them from a replay of the read probe.
	reads := traced
	if reads.reads == 0 {
		if reads, err = r.replay(ctx, h, r.probeReads(), tr); err != nil {
			return err
		}
	}
	L.set("sparql.parse_us", meanUS(reads.parse, reads.reads))
	L.set("sparql.plan_us", meanUS(reads.plan, reads.reads))
	L.set("sparql.exec_us", meanUS(reads.exec, reads.reads))
	L.set("httpapi.serialize_us", meanUS(reads.serial, reads.reads))
	// The handler's own time is a difference of two executions, and the
	// second runs on warm caches; it is taken on the two cheapest classes,
	// where execution is too short for that bias to matter.
	cheap, err := r.replay(ctx, h, r.cheapReads(), nil)
	if err != nil {
		return err
	}
	selfUS := 1000 * medianMS(cheap.selfAll)
	L.set("httpapi.handler_self_us", selfUS)
	L.set("httpapi.resp_bytes_per_req", float64(reads.respBytes)/float64(reads.reads))
	L.set("sparql.rows_per_req", float64(reads.rows)/float64(reads.reads))
	// Wire time is what a lone request costs beyond the server's engine
	// clock and the handler's own parse and serialise steps.
	n := float64(len(sample))
	wireUS := 1000*(soloMS-engineMS)/n - meanUS(reads.parse+reads.serial, reads.reads)
	if traced.reads == 0 {
		wireUS = 1000 * (soloMS - engineMS) / n // no reads in the list: nothing to parse or serialise
	}
	L.set("httpapi.wire_us", wireUS)
	L.set("trace.coverage", quantile(soloPass.lat, 0.5)/r.res.EndToEnd["p50_ms"])
	if traced.reads > 0 {
		// The prediction for scan-sp (at its own scale; a smoke-sized dataset
		// has no scans to speak of) is gated on the code layers alone: wire
		// time there is 0.6-3.5 ms from run to run, the cost of waking an
		// idle client and connection every 20 ms on this VM, which no
		// front-end change moves.
		codeUS := meanUS(reads.parse+reads.plan+reads.serial, reads.reads) + selfUS
		p50 := r.res.EndToEnd["p50_ms"]
		fmt.Fprintf(os.Stderr, "benchmark: %s front-end layers: code %.0f us (%.1f%% of p50_ms), with wire %.0f us (%.1f%% of p50_ms, %.1f%% of the mean lone request)\n",
			w.Name, codeUS, codeUS/10/p50, codeUS+wireUS, (codeUS+wireUS)/10/p50, (codeUS+wireUS)/10/(soloMS/n))
		if w.Name == "scan-sp" && r.cfg.scale == w.Scale && codeUS/1000/p50 >= 0.05 {
			r.problem("front-end code layers are %.1f%% of p50_ms on scan-sp, predicted < 5%%", codeUS/10/p50)
		}
	}
	if err := r.execByClass(ctx, reads.execByClass); err != nil {
		return err
	}
	r.storeMicro()

	// Analytics: from the replay where the workload has them, else measured here.
	algos := traced
	if algos.algos == 0 {
		if algos, err = r.replay(ctx, h, probeAlgos(r.in), tr); err != nil {
			return err
		}
	}
	L.set("graph.project_ms", medianMS(algos.project))
	L.set("graph.pagerank_ms", medianMS(algos.pagerank))
	L.set("graph.wcc_ms", medianMS(algos.wcc))
	L.set("graph.triangles_ms", medianMS(algos.triangles))
	L.set("graph.csr_edges", float64(algos.csrEdges))

	if err := r.walLab(ctx, lab, labDir, tr); err != nil {
		return fmt.Errorf("wal lab: %w", err)
	}
	if _, ok := L.vals["wal.acked_lost"]; !ok {
		L.set("wal.acked_lost", 0) // no WAL under this server: nothing acknowledged as durable
	}

	if missing := L.missing(); len(missing) > 0 {
		return fmt.Errorf("per-layer metrics not measured: %v", missing)
	}
	r.res.PerLayer = L.vals
	return writeSpans(filepath.Join(r.cfg.outDir, "trace-"+w.Name+".json"), tr.spans)
}

func spreadPct(v []float64) float64 {
	lo := slices.Min(v)
	return 100 * (slices.Max(v) - lo) / lo
}

// probeReads is a few requests of each read class at fixed parameters.
func (r *run) probeReads() []request {
	var out []request
	tag := r.in.tags[min(10, len(r.in.tags)-1)]
	for _, class := range readClasses {
		param := tag
		if strings.HasPrefix(class, "EQ11") {
			param = r.in.starts[0]
		}
		for i := 0; i < 2; i++ {
			out = append(out, readRequest(class, r.in.queryText(class, param)))
		}
	}
	return out
}

// cheapReads is 100 requests of the two classes with the least to
// execute, over the most frequent tags and the first nodes.
func (r *run) cheapReads() []request {
	var out []request
	for i := 0; i < 50; i++ {
		out = append(out,
			readRequest("EQ1", r.in.queryText("EQ1", r.in.tags[i%len(r.in.tags)])),
			readRequest("EQ11b", r.in.queryText("EQ11b", r.in.nodes[i%len(r.in.nodes)])))
	}
	return out
}

// probeAlgos is one toggle, one projecting PageRank and a few cached runs.
func probeAlgos(in *inputs) []request {
	toggle := []rdf.Quad{{S: rdf.NewIRI(in.vocab.VertexNS + "nw1"), P: in.vocab.LabelIRI("follows"), O: rdf.NewIRI(in.vocab.VertexNS + "nw2")}}
	out := []request{updateRequest("update", "INSERT", labEdge, toggle), algoRequest("project", "pagerank")}
	for _, a := range []string{"pagerank", "wcc", "triangles"} {
		for i := 0; i < 3; i++ {
			out = append(out, algoRequest(a, a))
		}
	}
	return append(out, updateRequest("update", "DELETE", labEdge, toggle), algoRequest("project", "pagerank"))
}

// probe sends every request class to the live server, one at a time,
// and returns the latencies by class.
func (r *run) probe() (map[string][]time.Duration, error) {
	list := r.probeReads()
	for i := 0; i < 3; i++ {
		list = append(list, updateRequest("insert", "INSERT", labEdge+i, r.in.edgeQuads(labEdge+i)))
	}
	for i := 0; i < 3; i++ {
		list = append(list, updateRequest("delete", "DELETE", labEdge+i, r.in.edgeQuads(labEdge+i)))
	}
	list = append(list, probeAlgos(r.in)...)
	solo := newDriver(r.srv, 1)
	defer solo.close()
	res, err := solo.pass(list, func(i int, status int, body []byte) string {
		if status != http.StatusOK {
			return fmt.Sprintf("status %d: %s", status, body)
		}
		if list[i].Path == "/algo" {
			r.noteAlgo(body)
		}
		return ""
	})
	if err != nil {
		return nil, err
	}
	r.count(res)
	return classLatencies(list, res.lat), nil
}

// execByClass sets sparql.exec_ms.<class>: the replay's median where
// the list has the class, two in-process runs at the probe's fixed
// parameters (after one to fill the plan cache) where not.
func (r *run) execByClass(ctx context.Context, seen map[string][]time.Duration) error {
	for _, q := range r.probeReads() {
		if len(seen[q.Class]) >= 2 {
			continue
		}
		if len(seen[q.Class]) == 0 {
			if _, err := r.oracle.eng.QueryContext(ctx, "", q.Text); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if _, err := r.oracle.eng.QueryContext(ctx, "", q.Text); err != nil {
			return err
		}
		seen[q.Class] = append(seen[q.Class], time.Since(t0))
	}
	for _, class := range readClasses {
		r.layers.set("sparql.exec_ms."+class, medianMS(seen[class]))
	}
	return nil
}

// storeMicro times the two store access paths every plan is made of: a
// full scan, per row, and a bound-prefix range lookup, per call.
func (r *run) storeMicro() {
	st := r.oracle.st
	rows := 0
	t0 := time.Now()
	st.Scan(store.AnyPattern(), func(store.IDQuad) bool { rows++; return true })
	r.layers.set("store.scan_ns_per_row", float64(time.Since(t0))/float64(max(rows, 1)))

	p := store.AnyPattern()
	p.P = st.Dict().Lookup(r.in.vocab.KeyIRI("hasTag"))
	const lookups = 2000
	t0 = time.Now()
	for i := 0; i < lookups; i++ {
		p.C = st.Dict().Lookup(rdf.NewLiteral(r.in.tags[i%len(r.in.tags)]))
		st.Scan(p, func(store.IDQuad) bool { return true })
	}
	r.layers.set("store.range_lookup_us", usSince(t0)/lookups)
}

// twinCheck loads the same graph under the other of NG and SP and
// asserts byte-identical answers on the scheme-independent classes.
func (r *run) twinCheck(ctx context.Context) error {
	other := pgrdf.SP
	switch r.cfg.workload.Name {
	case "lookup-ng":
	case "scan-sp":
		other = pgrdf.NG
	default:
		return nil // mixed-rw-ng repeats lookup-ng's reads; algo-rf has none
	}
	st, err := store.NewWithIndexes(serveIndexes)
	if err != nil {
		return err
	}
	if _, err := st.Load("data", r.in.convert(other).All()); err != nil {
		return err
	}
	sample, _ := replaySample(r.cfg.workload, r.lists[0])
	if err := r.oracle.sameAs(ctx, newOracle(st, other), sample); err != nil {
		r.problem("%v", err)
	}
	return nil
}

// walLab takes the update path apart on the scratch log: ParseUpdate,
// then Engine.Update whose CommitHook times Log.Commit and, inside it,
// the store apply. The same updates under SyncOff split a commit into
// append and fsync; a timed reopen of the directory is recovery.
func (r *run) walLab(ctx context.Context, lab *wal.Log, dir string, tr *tracer) error {
	L := r.layers
	st := r.oracle.st
	eng := sparql.NewEngine(st)
	var commit, apply time.Duration
	var updateSpan int
	hook := func(l *wal.Log) sparql.CommitHook {
		return func(muts []sparql.Mutation, applyFn func() error) error {
			ops := make([]wal.Op, len(muts))
			for i, m := range muts {
				ops[i] = wal.Op{Kind: wal.OpDelete, Model: m.Model, Quad: m.Quad}
				if m.Insert {
					ops[i].Kind = wal.OpInsert
				}
			}
			c := tr.begin("wal.commit", updateSpan)
			t0 := time.Now()
			err := l.Commit(wal.Batch{Ops: ops}, func() error {
				a := tr.begin("store.apply", c)
				t1 := time.Now()
				err := applyFn()
				apply += time.Since(t1)
				tr.end(a)
				return err
			})
			commit += time.Since(t0)
			tr.end(c)
			return err
		}
	}
	// costs are mean µs per update: ParseUpdate, the engine outside the
	// commit, the commit outside the apply, and the apply.
	type costs struct{ parse, engine, commit, apply float64 }
	round := func(verb string, updates int) (costs, error) {
		commit, apply = 0, 0
		var parse, total time.Duration
		for i := 0; i < updates; i++ {
			text := updateText(verb, r.in.edgeQuads(labEdge+i))
			root := tr.request()
			p := tr.begin("sparql.update_parse", root)
			t0 := time.Now()
			if _, err := sparql.ParseUpdate(text); err != nil {
				return costs{}, err
			}
			parse += time.Since(t0)
			tr.end(p)
			updateSpan = tr.begin("sparql.update_apply", root)
			t0 = time.Now()
			if _, err := eng.UpdateContext(ctx, "data", text); err != nil {
				return costs{}, err
			}
			total += time.Since(t0)
			tr.end(updateSpan)
			tr.end(root)
		}
		return costs{meanUS(parse, updates), meanUS(total-commit, updates), meanUS(commit-apply, updates), meanUS(apply, updates)}, nil
	}

	eng.CommitHook = hook(lab)
	before := lab.Stats().WalBytes
	const synced, unsynced = 200, 3000
	ins, err := round("INSERT", synced)
	if err != nil {
		return err
	}
	L.set("sparql.update_parse_us", ins.parse)
	L.set("sparql.update_apply_us", ins.engine)
	L.set("wal.commit_us", ins.commit)
	L.set("store.insert_us", ins.apply)
	L.set("wal.bytes_per_update", float64(lab.Stats().WalBytes-before)/synced)
	start := time.Now()
	if err := lab.CheckpointIncremental(st); err != nil {
		return err
	}
	L.set("wal.checkpoint_incr_ms", msSince(start))
	del, err := round("DELETE", synced)
	if err != nil {
		return err
	}
	L.set("store.delete_us", del.apply)
	if err := lab.Close(); err != nil {
		return err
	}

	// The same directory without fsync: a commit is then the append alone.
	_, nosync, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, Indexes: serveIndexes})
	if err != nil {
		return err
	}
	eng.CommitHook = hook(nosync)
	tr = nil // one traced round of updates is enough for the span file
	unsyncedIns, err := round("INSERT", unsynced)
	if err == nil {
		_, err = round("DELETE", unsynced)
	}
	if cerr := nosync.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	L.set("wal.append_us", unsyncedIns.commit)
	L.set("wal.fsync_us", max(ins.commit-unsyncedIns.commit, 0))

	// Recovery of what the lab left: the checkpoint, one delta file and a
	// log tail of synced + 2 × unsynced records.
	start = time.Now()
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoint.bin"))
	if err != nil {
		return err
	}
	if _, err := store.RestoreBinary(raw); err != nil {
		return err
	}
	restoreMS := msSince(start)
	L.set("store.restore_binary_ms", restoreMS)
	start = time.Now()
	_, reopened, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, Indexes: serveIndexes})
	if err != nil {
		return err
	}
	defer reopened.Close()
	openMS := msSince(start)
	replayed := reopened.Stats().ReplayedRecords
	L.set("wal.open_ms", openMS)
	if _, ok := L.vals["wal.recover_ms"]; !ok {
		L.set("wal.recover_ms", openMS)
	}
	L.set("wal.replay_records_per_s", float64(replayed)/(max(openMS-restoreMS, 0.001)/1000))
	return nil
}

// writeSpans writes the span file at exit.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
