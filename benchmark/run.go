package main

// One run of one workload: prepare inputs, cold-start the server three
// times, warm up with every answer checked, replay the list for the
// timed passes, and reduce the passes to the end-to-end metrics.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/wal"
)

// serveIndexes is `pgrdf serve`'s default -indexes value; the oracle
// and the prepared data dir must index the same way as the server.
var serveIndexes = []string{"PCSGM", "PSCGM", "SPCGM", "GSPCM"}

// Noise rules (README.md): one run times fixed work over several
// passes and keeps the best; set-up is the minimum of several cold
// starts; the WAL tail a recovery replays is fixed.
const (
	timedPasses   = 5
	tracedPasses  = 2 // a traced run spends its time on the layers instead
	coldStarts    = 3
	tracedStarts  = 2
	preparedEdges = 15000 // single-edge updates left in wal.log for mixed-rw-ng
	nominalSecs   = 15    // -seconds at which a pass replays workload.Requests
)

// runConfig is one invocation. The zero values of the test knobs select
// the workload's own scale and sizes.
type runConfig struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	bin      string // built pgrdf binary
	outDir   string // benchmark/out: temp dirs and trace files

	// Test knobs (smoke_test.go): a tiny dataset and one short pass.
	scale    float64
	requests int
	passes   int
	starts   int
	prepared int
}

func (c runConfig) withDefaults() runConfig {
	if c.scale == 0 {
		c.scale = c.workload.Scale
	}
	if c.requests == 0 {
		c.requests = max(c.workload.Requests*c.seconds/nominalSecs, 1)
	}
	if c.passes == 0 {
		c.passes = timedPasses
		if c.trace {
			c.passes = tracedPasses
		}
	}
	if c.starts == 0 {
		c.starts = coldStarts
		if c.trace {
			c.starts = tracedStarts
		}
	}
	if c.prepared == 0 {
		c.prepared = preparedEdges
	}
	return c
}

// runResult is what one run reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	PassSecs  []float64          `json:"pass_seconds"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`

	// serverMaxProcs is the server's GOMAXPROCS: with default flags, the
	// engine parallelism /stats reports.
	serverMaxProcs int
}

// serverStats is the part of GET /stats the harness reads.
type serverStats struct {
	Quads        int64 `json:"quads"`
	StorageBytes int64 `json:"storageBytes"`
	Parallelism  int   `json:"parallelism"`
	CacheHits    int64 `json:"algoCSRCacheHits"`
	CacheMisses  int64 `json:"algoCSRCacheMisses"`
	WalBytes     int64 `json:"walBytes"`
}

func (d *driver) stats() (serverStats, error) {
	var st serverStats
	b, err := d.get("/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

// run is the state of one run, shared by the black-box phases here and
// the traced phases in trace.go.
type run struct {
	cfg    runConfig
	hy     *hygiene
	tmp    string
	in     *inputs
	quads  []rdf.Quad
	oracle *oracle
	lists  [][]request // lists[0] is the warm-up pass
	layers *metricSet  // nil unless tracing
	res    *runResult

	dataFile string // serve -data
	dataDir  string // serve -data-dir
	srv      *server
	drv      *driver
	setups   []float64 // cold starts, seconds
	warm     passResult
	passes   []passResult
	best     int // index into passes of the fastest pass

	// Taken around the timed passes of a traced run.
	scrape0, scrape1 map[string]float64
	rss              []float64 // 1 Hz samples, MB
	// Timing fields of the /algo replies seen so far.
	algoMu             sync.Mutex
	algoBuild, algoRun []float64
	algoMS             float64
}

// noteAlgo records the timing fields of one /algo reply.
func (r *run) noteAlgo(body []byte) {
	var t algoTimings
	if json.Unmarshal(body, &t) != nil {
		return
	}
	r.algoMu.Lock()
	defer r.algoMu.Unlock()
	if !t.CSRCached {
		r.algoBuild = append(r.algoBuild, t.CSRBuildMS)
	}
	r.algoRun = append(r.algoRun, t.RunMS)
	r.algoMS += t.CSRBuildMS + t.RunMS
}

// notingAlgo wraps a judge so the /algo replies it sees are recorded.
func (r *run) notingAlgo(list []request, check checkFunc) checkFunc {
	return func(i int, status int, body []byte) string {
		if list[i].Path == "/algo" && status == 200 {
			r.noteAlgo(body)
		}
		return check(i, status, body)
	}
}

// sampleRSS reads the server's resident set once a second until stop
// is closed.
func (r *run) sampleRSS(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		if mb, err := readRSSMB(r.srv.pid); err == nil {
			r.rss = append(r.rss, mb)
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

func (r *run) problem(format string, args ...any) {
	r.res.Correct = false
	r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
}

// runWorkload executes one run. Every child process is reaped and every
// temp dir removed before it returns, on success, error and panic alike.
func runWorkload(ctx context.Context, cfg runConfig) (res *runResult, err error) {
	cfg = cfg.withDefaults()
	r := &run{cfg: cfg, hy: newHygiene(),
		res: &runResult{Workload: cfg.workload.Name, Seed: cfg.seed, Correct: true}}
	defer r.hy.cleanup()
	stop := context.AfterFunc(ctx, r.hy.cleanup) // SIGINT: kill the child first, then unwind
	defer stop()
	if cfg.trace {
		r.layers = newMetricSet(perLayerSpecs())
	}
	if r.tmp, err = r.hy.tempDir(cfg.outDir, "run-"); err != nil {
		return nil, err
	}
	type step struct {
		name string
		fn   func(context.Context) error
	}
	steps := []step{{"prepare", r.prepare}, {"cold-start", r.coldStart}, {"warm-up", r.warmUp},
		{"timed", r.timed}, {"reduce", r.reduce}}
	if cfg.workload.Durable {
		steps = append(steps, step{"crash-check", r.crashCheck})
	}
	if cfg.trace {
		steps = append(steps, step{"trace", r.traceLayers})
	}
	for _, s := range steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.fn(ctx); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s %s %.2fs\n", cfg.workload.Name, s.name, time.Since(start).Seconds())
	}
	return r.res, nil
}

// prepare generates the graph, writes what the server will load, builds
// the in-process oracle and the request list of every pass.
func (r *run) prepare(ctx context.Context) error {
	w := r.cfg.workload
	scheme := w.Scheme
	r.in = newInputs(r.cfg.scale)
	start := time.Now()
	ds := r.in.convert(scheme)
	r.quads = ds.All()
	convertMS := msSince(start)

	for p := 0; p <= r.cfg.passes; p++ {
		r.lists = append(r.lists, r.in.passList(w, r.cfg.seed, r.cfg.requests, p, r.cfg.prepared))
	}

	var st *store.Store
	var err error
	if w.Durable {
		r.dataDir = filepath.Join(r.tmp, "data")
		if st, err = r.prepareDataDir(r.dataDir, r.cfg.prepared); err != nil {
			return err
		}
		if r.layers != nil {
			// The durable server never reads N-Quads; a traced run still
			// reports the text path's layers, on the same quads.
			if _, err := r.writeAndLoad(filepath.Join(r.tmp, "data.nq")); err != nil {
				return err
			}
		}
	} else {
		r.dataFile = filepath.Join(r.tmp, "data.nq")
		if st, err = r.writeAndLoad(r.dataFile); err != nil {
			return err
		}
	}
	r.oracle = newOracle(st, scheme)
	if r.layers != nil {
		r.layers.set("twitter.generate_ms", r.in.generateMS)
		r.layers.set("pgrdf.convert_ms", convertMS)
		r.layers.set("pgrdf.quads_per_edge", float64(len(r.quads))/float64(r.in.graph.NumEdges()))
	}
	if err := r.oracle.learnReads(ctx, r.lists[0]); err != nil {
		return err
	}
	if w.Name == "algo-rf" {
		return r.oracle.learnAlgos(ctx, r.lists[0])
	}
	return nil
}

// writeAndLoad writes the dataset as N-Quads and loads that file the
// way `pgrdf serve -data` does, so the oracle holds what the server holds.
func (r *run) writeAndLoad(path string) (*store.Store, error) {
	start := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := ntriples.NewWriter(f).WriteAll(r.quads); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	writeMS := msSince(start)

	start = time.Now()
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	quads, err := ntriples.NewReader(in).ReadAll()
	if err != nil {
		return nil, err
	}
	parseMS := msSince(start)
	st, err := store.NewWithIndexes(serveIndexes)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if _, err := st.Load("data", quads); err != nil {
		return nil, err
	}
	if r.layers != nil {
		r.layers.set("ntriples.write_ms", writeMS)
		r.layers.set("ntriples.parse_ms", parseMS)
		r.layers.set("store.load_ms", msSince(start))
		if fi, err := os.Stat(path); err == nil {
			r.layers.set("ntriples.parse_mb_per_s", float64(fi.Size())/(1<<20)/(parseMS/1000))
		}
	}
	return st, nil
}

// commitEdge journals and applies one single-edge update.
func commitEdge(l *wal.Log, st *store.Store, quads []rdf.Quad, kind wal.OpKind) error {
	ops := make([]wal.Op, len(quads))
	for i, q := range quads {
		ops[i] = wal.Op{Kind: kind, Model: "data", Quad: q}
	}
	return l.Commit(wal.Batch{Ops: ops}, func() error { return wal.ApplyBatch(st, wal.Batch{Ops: ops}) })
}

// prepareDataDir builds a durability directory the way a crashed server
// leaves one: a binary checkpoint of the bulk-loaded dataset and a
// wal.log holding `prepared` single-edge inserts. It returns the store
// in its recovered state.
func (r *run) prepareDataDir(dir string, prepared int) (st *store.Store, err error) {
	st, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, Indexes: serveIndexes})
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := st.Load("data", r.quads); err != nil {
		return nil, err
	}
	if err := l.Checkpoint(st); err != nil {
		return nil, err
	}
	for i := 0; i < prepared; i++ {
		if err := commitEdge(l, st, r.in.edgeQuads(i), wal.OpInsert); err != nil {
			return nil, err
		}
	}
	return st, l.Sync()
}

func (r *run) serveArgs() []string {
	if r.cfg.workload.Durable {
		return []string{"-data-dir", r.dataDir, "-fsync", "always"}
	}
	return []string{"-data", r.dataFile}
}

// coldStart starts the server cfg.starts times; the last instance stays
// up and serves the passes. A single cold start is the noisiest number
// a run takes (fresh-page faulting), so setup_s is their minimum.
func (r *run) coldStart(ctx context.Context) error {
	for i := 0; i < r.cfg.starts; i++ {
		if r.srv != nil {
			r.srv.kill()
		}
		srv, err := r.hy.startServer(ctx, r.cfg.bin, r.serveArgs()...)
		if err != nil {
			return err
		}
		r.srv = srv
		r.setups = append(r.setups, srv.setup.Seconds())
	}
	r.drv = newDriver(r.srv, r.cfg.workload.Clients)
	st, err := r.drv.stats()
	if err != nil {
		return err
	}
	r.res.serverMaxProcs = st.Parallelism
	if want := int64(r.oracle.st.Len()); st.Quads != want {
		return fmt.Errorf("server holds %d quads, the oracle %d: not the dataset this run wrote", st.Quads, want)
	}
	return nil
}

// warmUp replays list 0 untimed with every answer checked.
func (r *run) warmUp(context.Context) error {
	var err error
	r.warm, err = r.drv.pass(r.lists[0], r.oracle.fullCheck(r.lists[0]))
	if err != nil {
		return err
	}
	r.count(r.warm)
	return r.between()
}

func (r *run) count(p passResult) {
	r.res.Attempted += len(p.lat)
	r.res.Failed += p.failed
	if p.failed > 0 {
		r.problem("%d failed, first: %s", p.failed, p.firstFail)
	}
}

// between runs the untimed step between passes: a durable server
// checkpoints, so every pass starts from an empty log.
func (r *run) between() error {
	if !r.cfg.workload.Durable {
		return nil
	}
	resp, err := r.drv.client.Post(r.srv.base+"/checkpoint", "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("POST /checkpoint: status %d", resp.StatusCode)
	}
	return nil
}

// timed replays lists 1..n. The last pass is not followed by a
// checkpoint, so its updates are in the log when the footprint is read
// and when the crash check cuts the log.
func (r *run) timed(ctx context.Context) (err error) {
	if r.layers != nil {
		if r.scrape0, err = r.drv.scrape(); err != nil {
			return err
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go r.sampleRSS(stop, done)
		defer func() {
			close(stop)
			<-done
			if err == nil {
				r.scrape1, err = r.drv.scrape()
			}
		}()
	}
	for p := 1; p < len(r.lists); p++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := r.drv.pass(r.lists[p], r.notingAlgo(r.lists[p], lengthCheck(r.lists[p], r.warm.bodyLen)))
		if err != nil {
			return err
		}
		r.count(res)
		r.passes = append(r.passes, res)
		r.res.PassSecs = append(r.res.PassSecs, res.wall.Seconds())
		if p < len(r.lists)-1 {
			if err := r.between(); err != nil {
				return err
			}
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// reduce turns the timed passes into the six end-to-end metrics: every
// timing is the best value over the passes, the quiet-machine estimate.
func (r *run) reduce(context.Context) error {
	if len(r.passes) == 0 {
		return errors.New("no timed pass ran")
	}
	e := map[string]float64{"setup_s": slices.Min(r.setups)}
	lowest := func(name string, v float64) {
		if old, ok := e[name]; !ok || v < old {
			e[name] = v
		}
	}
	for i, p := range r.passes {
		if p.rps() > e["throughput_rps"] {
			e["throughput_rps"] = p.rps()
			r.best = i
		}
		lowest("p50_ms", quantile(p.lat, 0.50))
		lowest("p95_ms", quantile(p.lat, 0.95))
		lowest("cpu_ms_per_req", float64(p.serverCPU.total())/float64(time.Millisecond)/float64(len(p.lat)))
	}
	st, err := r.drv.stats()
	if err != nil {
		return err
	}
	disk := int64(0)
	if r.dataDir != "" {
		if disk, err = dirBytes(r.dataDir); err != nil {
			return err
		}
	}
	e["footprint_bytes_per_quad"] = float64(st.StorageBytes+disk) / float64(st.Quads)
	r.res.EndToEnd = e
	return nil
}

// crashCheck is the durability check of mixed-rw-ng: SIGKILL the
// server, cut wal.log to its size at the last acknowledgement, add a
// torn 13-byte tail, restart, and count acknowledged updates that are
// missing. Any loss fails the run.
func (r *run) crashCheck(ctx context.Context) error {
	st, err := r.drv.stats()
	if err != nil {
		return err
	}
	r.drv.close()
	r.srv.kill()
	logPath := filepath.Join(r.dataDir, "wal.log")
	if err := os.Truncate(logPath, st.WalBytes); err != nil {
		return err
	}
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("torn-record!!"))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	start := time.Now()
	r.srv, err = r.hy.startServer(ctx, r.cfg.bin, r.serveArgs()...)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	recoverMS := msSince(start)
	r.drv = newDriver(r.srv, r.cfg.workload.Clients)

	// Every edge acknowledged as inserted and not acknowledged as deleted
	// must be back, with all three of its quads; no other may be.
	live := map[int]bool{}
	for i := 0; i < r.cfg.prepared; i++ {
		live[i] = true
	}
	for _, list := range r.lists {
		for _, q := range list {
			if q.Class == "insert" {
				live[q.Edge] = true
			} else if q.Class == "delete" {
				delete(live, q.Edge)
			}
		}
	}
	lost, err := r.lostEdges(live)
	if err != nil {
		return err
	}
	if lost > 0 {
		r.problem("%d acknowledged updates lost across SIGKILL + torn tail", lost)
	}
	if r.layers != nil {
		r.layers.set("wal.acked_lost", float64(lost))
		r.layers.set("wal.recover_ms", recoverMS)
	}
	return nil
}

// lostEdges asks the restarted server for every marked edge and counts
// the differences from the acknowledged set: edges that should be there
// and are not, and deleted edges that came back.
func (r *run) lostEdges(live map[int]bool) (int, error) {
	k := r.in.vocab.KeyNS
	text := fmt.Sprintf(`SELECT ?e WHERE { GRAPH ?e { ?s <%sfollows> ?o . ?e <%srefs> %q . ?e <%shasTag> ?t } }`,
		r.in.vocab.RelNS, k, benchMarker, k)
	res, err := r.drv.query(text)
	if err != nil {
		return 0, err
	}
	wrong := 0
	prefix := r.in.vocab.EdgeNS + "ew"
	for _, row := range res.Rows {
		n, err := strconv.Atoi(strings.TrimPrefix(row[0].Value, prefix))
		if err != nil || !live[n] {
			wrong++
			continue
		}
		delete(live, n)
	}
	return wrong + len(live), nil
}
