package httpapi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/guard"
	"repro/internal/ntriples"
	"repro/internal/repl"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/wal"
)

// Config bounds what one request — and the endpoint as a whole — may
// consume. The zero value of a field falls back to the DefaultConfig
// value; explicit negatives disable a limit.
type Config struct {
	// QueryTimeout is the wall-clock deadline for one query request,
	// measured from admission (queue wait does not count against it).
	// <0 disables.
	QueryTimeout time.Duration
	// UpdateTimeout is the deadline for one update request. <0 disables.
	UpdateTimeout time.Duration
	// MaxConcurrent is the number of queries executing simultaneously.
	// <0 disables admission control.
	MaxConcurrent int
	// MaxQueue is how many requests may wait for a free execution slot
	// before new arrivals are shed with 503.
	MaxQueue int
	// QueueWait is the longest a request waits in the admission queue
	// before being shed with 503.
	QueueWait time.Duration
	// RetryAfter is the hint returned in the Retry-After header of 503
	// responses.
	RetryAfter time.Duration
	// MaxBodyBytes caps POST bodies; oversized requests get 413. <0
	// disables.
	MaxBodyBytes int64
	// MaxRows and MaxBindings are the per-request resource budget of
	// /sparql, /update and /algo (guard.Budget's MaxRows and MaxWork).
	// <0 disables.
	MaxRows     int
	MaxBindings int
	// Parallelism is the default worker count of a POST /algo run (see
	// graph.Runner); a request's own "parallelism" overrides it. 0 uses
	// GOMAXPROCS; <0 runs serially. SPARQL queries always run on the
	// goroutine that serves them.
	Parallelism int
	// SlowQueryThreshold is the wall time at or over which a query is
	// written to SlowQueryLog with its profile attached. 0 uses the
	// default (1s); <0 logs every query.
	SlowQueryThreshold time.Duration
	// SlowQueryLog, when set, receives one JSON line per slow query
	// (see sparql.SlowQueryRecord). Nil disables slow-query logging.
	SlowQueryLog io.Writer
	// EnablePprof mounts the net/http/pprof handlers under
	// /debug/pprof/. Off by default: profiles expose internals, so the
	// flag is an explicit operator decision.
	EnablePprof bool
}

// DefaultConfig returns the production defaults: 30s deadlines, twice
// GOMAXPROCS concurrent queries with a short bounded queue, 1 MiB
// bodies, and a budget generous enough for analytical queries but
// finite.
func DefaultConfig() Config {
	return Config{
		QueryTimeout:       30 * time.Second,
		UpdateTimeout:      30 * time.Second,
		MaxConcurrent:      2 * runtime.GOMAXPROCS(0),
		MaxQueue:           32,
		QueueWait:          2 * time.Second,
		RetryAfter:         1 * time.Second,
		MaxBodyBytes:       1 << 20,
		MaxRows:            5_000_000,
		MaxBindings:        50_000_000,
		SlowQueryThreshold: 1 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultConfig and maps explicit
// negatives to "disabled".
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.QueryTimeout == 0 {
		c.QueryTimeout = d.QueryTimeout
	}
	if c.UpdateTimeout == 0 {
		c.UpdateTimeout = d.UpdateTimeout
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = d.MaxConcurrent
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = d.MaxQueue
	}
	if c.QueueWait == 0 {
		c.QueueWait = d.QueueWait
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = d.RetryAfter
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.MaxRows == 0 {
		c.MaxRows = d.MaxRows
	}
	if c.MaxBindings == 0 {
		c.MaxBindings = d.MaxBindings
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = d.SlowQueryThreshold
	}
	return c
}

// admission is a semaphore-based admission controller with a bounded
// wait queue: up to cap(slots) requests run, up to cap(queue) more wait
// (at most wait long), and everything beyond that is shed immediately.
type admission struct {
	slots chan struct{}
	queue chan struct{}
	wait  time.Duration
	drain chan struct{}
	once  sync.Once
}

func newAdmission(maxConcurrent, maxQueue int, wait time.Duration) *admission {
	if maxConcurrent <= 0 {
		return nil // admission control disabled
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		slots: make(chan struct{}, maxConcurrent),
		queue: make(chan struct{}, maxQueue),
		wait:  wait,
		drain: make(chan struct{}),
	}
}

// acquire admits the request or reports shed=true. A nil controller
// admits everything. The returned release must be called exactly once.
func (a *admission) acquire(ctx context.Context) (release func(), ok bool) {
	if a == nil {
		return func() {}, true
	}
	select {
	case <-a.drain:
		return nil, false
	default:
	}
	// Fast path: free slot.
	select {
	case a.slots <- struct{}{}:
		return a.releaseFn(), true
	default:
	}
	// Join the bounded wait queue, or shed.
	select {
	case a.queue <- struct{}{}:
	default:
		return nil, false
	}
	defer func() { <-a.queue }()
	timer := time.NewTimer(a.wait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		return a.releaseFn(), true
	case <-timer.C:
		return nil, false
	case <-ctx.Done():
		return nil, false
	case <-a.drain:
		return nil, false
	}
}

func (a *admission) releaseFn() func() {
	var once sync.Once
	return func() { once.Do(func() { <-a.slots }) }
}

// close sheds all queued waiters and every future arrival.
func (a *admission) close() {
	if a == nil {
		return
	}
	a.once.Do(func() { close(a.drain) })
}

// Server is the SPARQL protocol handler. Mount it on an http.Server:
//
//	h := httpapi.NewServer(st)
//	http.ListenAndServe(":8080", h)
//
// Endpoints:
//
//	GET  /sparql?query=...&model=...   — query via URL parameter
//	POST /sparql                       — query via form or raw body
//	                                     (Content-Type application/sparql-query
//	                                     or application/x-www-form-urlencoded)
//	POST /update                       — update via form or raw body
//	                                     (application/sparql-update)
//	POST /algo                         — graph analytics (JSON body:
//	                                     pagerank, wcc or triangles over a
//	                                     projected model; see algoRequest)
//	GET  /stats                        — dataset statistics (JSON)
//	GET  /export?model=...             — stream one model as N-Quads
//	GET  /metrics                      — Prometheus text exposition
//	GET  /debug/pprof/*                — runtime profiles (Config.EnablePprof)
//
// SELECT and ASK return application/sparql-results+json; CONSTRUCT
// returns application/n-quads. The optional `model` parameter names the
// semantic or virtual model to query ("" = all models).
//
// Requests run under the guardrails in Config: per-request deadlines, a
// per-query resource budget, and a semaphore-based admission controller
// that sheds excess load with 503 + Retry-After. Error responses carry
// a JSON body: {"error": "...", "kind": "..."}.
type Server struct {
	// eng is swapped wholesale when a replication follower
	// re-bootstraps (SwapStore); all handlers load it once per request
	// through engine().
	eng atomic.Pointer[sparql.Engine]
	mux *http.ServeMux
	cfg Config
	adm *admission
	// shedCount counts requests rejected with 503 (exported by /metrics).
	shedCount atomic.Int64
	// inflight counts admitted requests still executing, for Drain.
	inflight sync.WaitGroup
	draining atomic.Bool
	// ReadOnly disables the /update endpoint.
	ReadOnly bool
	// wal, when attached, journals updates and serves POST /checkpoint
	// plus the GET /wal replication tail.
	wal *wal.Log
	// follower, when attached, adds replication lag to /stats and
	// /metrics and optionally fails stale reads with 503.
	follower *repl.Follower
	// algo counts POST /algo runs and errors; algoCSR keeps the most
	// recent graph projection and patches it forward as the store changes.
	algo    algoStats
	algoCSR csrCache
}

// NewServer builds a handler over the store with DefaultConfig.
func NewServer(st *store.Store) *Server {
	return NewServerWithConfig(st, DefaultConfig())
}

// NewServerWithConfig builds a handler with explicit guardrails. Zero
// Config fields take their DefaultConfig values; negative values
// disable the corresponding limit.
func NewServerWithConfig(st *store.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		mux: http.NewServeMux(),
		cfg: cfg,
		adm: newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueWait),
	}
	s.eng.Store(s.newEngine(st))
	s.mux.HandleFunc("/sparql", s.handleQuery)
	s.mux.HandleFunc("/update", s.handleUpdate)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/export", s.handleExport)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/algo", s.handleAlgo)
	s.mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("/wal", s.handleWalTail)
	if cfg.EnablePprof {
		// Mounted per-handler (not via the net/http/pprof init side
		// effect on DefaultServeMux) so the profiles exist only on this
		// mux and only when the operator opted in.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// newEngine builds a query engine over st with the server's
// guardrails applied — the single construction path shared by
// NewServerWithConfig and SwapStore.
func (s *Server) newEngine(st *store.Store) *sparql.Engine {
	eng := sparql.NewEngine(st)
	// The one budget of /sparql, /update and /algo. Timeouts are applied
	// per request from the HTTP layer so admission-queue wait never eats
	// into execution time.
	eng.Limits = guard.Budget{
		MaxRows: max(s.cfg.MaxRows, 0),
		MaxWork: int64(max(s.cfg.MaxBindings, 0)),
	}
	if s.cfg.SlowQueryLog != nil {
		eng.SlowQueryLog = s.cfg.SlowQueryLog
		if s.cfg.SlowQueryThreshold > 0 {
			eng.SlowQueryThreshold = s.cfg.SlowQueryThreshold
		} // <0 means log everything: the engine's zero threshold
	}
	return eng
}

// engine returns the current query engine. Handlers must load it once
// per request and use that copy throughout, so a concurrent SwapStore
// cannot split one request across two stores.
func (s *Server) engine() *sparql.Engine { return s.eng.Load() }

// SwapStore replaces the server's store with a fresh one, rebuilding
// the query engine around it. Replication followers call it after a
// re-bootstrap; in-flight requests finish against the engine they
// loaded at admission. Engine-level metrics (query counters, plan
// cache) restart from zero with the new engine.
func (s *Server) SwapStore(st *store.Store) {
	s.eng.Store(s.newEngine(st))
}

// Config returns the effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// Drain puts the server into shutdown mode: every new or queued request
// is shed with 503, and Drain blocks until all in-flight requests have
// completed (or ctx fires). Pair it with http.Server.Shutdown for a
// graceful stop.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.adm.close()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// admit runs the admission controller for one request, writing the 503
// itself when the request is shed.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (func(), bool) {
	if s.draining.Load() {
		s.shed(w, "server is shutting down")
		return nil, false
	}
	free, ok := s.adm.acquire(r.Context())
	if !ok {
		if r.Context().Err() != nil {
			// Client went away while queued; nothing useful to write.
			return nil, false
		}
		s.shed(w, "server is at capacity")
		return nil, false
	}
	s.inflight.Add(1)
	return func() { free(); s.inflight.Done() }, true
}

func (s *Server) shed(w http.ResponseWriter, msg string) {
	s.shedCount.Add(1)
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeJSONError(w, http.StatusServiceUnavailable, "overloaded", msg)
}

// requestCtx derives the execution context for a request.
func requestCtx(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return r.Context(), func() {}
}

// readBody reads a raw POST body up to the configured cap, reporting
// overflow so the handler can answer 413 instead of truncating the
// request into a confusing parse error.
func (s *Server) readBody(r *http.Request) (string, error) {
	limit := s.cfg.MaxBodyBytes
	if limit <= 0 {
		b, err := io.ReadAll(r.Body)
		return string(b), err
	}
	b, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return "", err
	}
	if int64(len(b)) > limit {
		return "", errBodyTooLarge
	}
	return string(b), nil
}

var errBodyTooLarge = errors.New("request body exceeds the configured limit")

// parseFormBounded parses a form body under the same cap as raw bodies.
func (s *Server) parseFormBounded(w http.ResponseWriter, r *http.Request) error {
	if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	if err := r.ParseForm(); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return errBodyTooLarge
		}
		return err
	}
	return nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var query, model string
	switch r.Method {
	case http.MethodGet:
		params := r.URL.Query()
		query = params.Get("query")
		model = params.Get("model")
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		if strings.HasPrefix(ct, "application/sparql-query") {
			body, err := s.readBody(r)
			if err != nil {
				bodyError(w, err)
				return
			}
			query = body
			model = r.URL.Query().Get("model")
		} else {
			if err := s.parseFormBounded(w, r); err != nil {
				bodyError(w, err)
				return
			}
			query = r.PostForm.Get("query")
			model = r.PostForm.Get("model")
		}
	default:
		writeJSONError(w, http.StatusMethodNotAllowed, "method", "method not allowed")
		return
	}
	if strings.TrimSpace(query) == "" {
		writeJSONError(w, http.StatusBadRequest, "request", "missing query")
		return
	}

	if s.rejectStale(w) {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := requestCtx(r, s.cfg.QueryTimeout)
	defer cancel()

	// The engine parses the text at most once (not at all on a plan-cache
	// hit) and answers in the form the text turned out to be.
	ans, err := s.engine().ExecContext(ctx, model, query)
	if err != nil {
		queryError(w, err)
		return
	}
	switch ans.Form {
	case sparql.FormAsk:
		w.Header().Set("Content-Type", "application/sparql-results+json")
		WriteBooleanJSON(w, ans.Boolean)
	case sparql.FormConstruct, sparql.FormDescribe:
		w.Header().Set("Content-Type", "application/n-quads")
		ntriples.NewWriter(w).WriteAll(ans.Quads)
	default:
		w.Header().Set("Content-Type", "application/sparql-results+json")
		WriteResultsJSON(w, ans.Results)
	}
}

func bodyError(w http.ResponseWriter, err error) {
	if errors.Is(err, errBodyTooLarge) {
		writeJSONError(w, http.StatusRequestEntityTooLarge, "too-large", err.Error())
		return
	}
	writeJSONError(w, http.StatusBadRequest, "request", err.Error())
}

// guardError writes the response for an error of one of the guard
// kinds and reports whether err was one. An internal error's text (a
// recovered panic) is for the server's logs, so the client gets a fixed
// message.
func guardError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, guard.ErrTimeout):
		writeJSONError(w, http.StatusGatewayTimeout, "timeout", err.Error())
	case errors.Is(err, guard.ErrBudgetExceeded):
		writeJSONError(w, http.StatusBadRequest, "budget-exceeded", err.Error())
	case errors.Is(err, guard.ErrCanceled):
		// The client is usually gone; the status is best-effort.
		writeJSONError(w, http.StatusRequestTimeout, "canceled", err.Error())
	case errors.Is(err, guard.ErrInternal):
		writeJSONError(w, http.StatusInternalServerError, "internal", guard.ErrInternal.Error())
	default:
		return false
	}
	return true
}

// queryError maps an engine error onto an HTTP status + JSON body.
func queryError(w http.ResponseWriter, err error) {
	if guardError(w, err) {
		return
	}
	var perr *sparql.ParseError
	switch {
	case errors.As(err, &perr):
		writeJSONError(w, http.StatusBadRequest, "parse", err.Error())
	case errors.Is(err, store.ErrUnknownModel):
		writeJSONError(w, http.StatusNotFound, "unknown-model", err.Error())
	default:
		writeJSONError(w, http.StatusBadRequest, "query", err.Error())
	}
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.ReadOnly {
		writeJSONError(w, http.StatusForbidden, "read-only", "updates are disabled on this endpoint")
		return
	}
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "method", "method not allowed")
		return
	}
	var request, model string
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/sparql-update") {
		body, err := s.readBody(r)
		if err != nil {
			bodyError(w, err)
			return
		}
		request = body
		model = r.URL.Query().Get("model")
	} else {
		if err := s.parseFormBounded(w, r); err != nil {
			bodyError(w, err)
			return
		}
		request = r.PostForm.Get("update")
		model = r.PostForm.Get("model")
	}
	if strings.TrimSpace(request) == "" {
		writeJSONError(w, http.StatusBadRequest, "request", "missing update")
		return
	}
	if model == "" {
		writeJSONError(w, http.StatusBadRequest, "request", "updates require an explicit model parameter")
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := requestCtx(r, s.cfg.UpdateTimeout)
	defer cancel()

	res, err := s.engine().UpdateContext(ctx, model, request)
	if err != nil {
		queryError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"inserted":%d,"deleted":%d}`+"\n", res.Inserted, res.Deleted)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "method", "method not allowed")
		return
	}
	model := r.URL.Query().Get("model")
	var models []string
	if model != "" {
		models = append(models, model)
	}
	eng := s.engine()
	view := eng.Store().View() // counts, storage and version of one state
	st, err := view.Stats(models...)
	if err != nil {
		writeJSONError(w, http.StatusNotFound, "unknown-model", err.Error())
		return
	}
	rep := view.Storage()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"quads":%d,"subjects":%d,"predicates":%d,"objects":%d,"namedGraphs":%d,"storageBytes":%d,"storeVersion":%d,"parallelism":%d`,
		st.Quads, st.Subjects, st.Predicates, st.Objects, st.NamedGraphs, rep.Total, view.Version,
		s.algoWorkers())
	var algoRuns, algoErrors int64
	for i := range algoNames {
		algoRuns += s.algo.runs[i].Load()
		algoErrors += s.algo.errors[i].Load()
	}
	fmt.Fprintf(w, `,"algoRuns":%d,"algoErrors":%d,"algoCSRCacheHits":%d,"algoCSRCacheMisses":%d,"algoCSRPatches":%d,"algoCSRRebuilds":{`,
		algoRuns, algoErrors, s.algo.cacheHits.Load(), s.algo.cacheMisses.Load(), s.algo.patches.Load())
	for i, reason := range rebuildReasons {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, `%q:%d`, reason, s.algo.rebuilds[i].Load())
	}
	fmt.Fprint(w, "}")
	if s.wal != nil {
		ws := s.wal.Stats()
		fmt.Fprintf(w, `,"walBytes":%d,"walRecords":%d,"walSeq":%d,"checkpoints":%d,"checkpointErrors":%d,`+
			`"lastCheckpointBytes":%d,"lastCheckpointSeconds":%g,"replayedRecords":%d,"tornBytesDropped":%d,`+
			`"fullCheckpoints":%d,"incrementalCheckpoints":%d,"deltaChainLen":%d,"deltaChainBytes":%d`,
			ws.WalBytes, ws.WalRecords, ws.Seq, ws.Checkpoints, ws.CheckpointErrors,
			ws.LastCheckpointBytes, ws.LastCheckpointDuration.Seconds(), ws.ReplayedRecords, ws.TornBytesDropped,
			ws.FullCheckpoints, ws.IncrementalCheckpoints, ws.DeltaChainLen, ws.DeltaChainBytes)
	}
	if s.follower != nil {
		fs := s.follower.Status()
		fmt.Fprintf(w, `,"repl":{"leader":%q,"state":%q,"degraded":%t,"epoch":%d,"offset":%d,"nextSeq":%d,`+
			`"bytesBehind":%d,"recordsBehind":%d,"lastContactMS":%g,"appliedRecords":%d,"bootstraps":%d,`+
			`"divergences":%d,"epochAdoptions":%d,"retryErrors":%d,"staleRejected":%d}`,
			fs.Leader, fs.State, fs.Degraded, fs.Epoch, fs.Offset, fs.NextSeq,
			fs.BytesBehind, fs.RecordsBehind, fs.LastContactMS, fs.AppliedRecords, fs.Bootstraps,
			fs.Divergences, fs.EpochAdoptions, fs.RetryErrors, fs.StaleRejected)
	}
	fmt.Fprintln(w, "}")
}

// handleExport streams every quad of one model as N-Quads. It writes
// batch by batch from one pinned View, so the bytes come from one store
// version however long the client takes, and the handler holds one
// batch of rows, not the model. It checks the request context once per
// batch and stops when the client goes away.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "method", "method not allowed")
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "nquads":
	case "snapshot":
		// The directive-carrying snapshot format (models, virtual models,
		// index config): unlike a plain N-Quads export, this round-trips
		// through store.Restore and pgrdf serve -restore. With a WAL
		// attached this is also the replication bootstrap: the store
		// version is pinned under the commit lock, so the position in the
		// headers corresponds exactly to the bytes on the wire, and the
		// lock is released before the first byte streams.
		st := s.engine().Store()
		view := st.View()
		if s.wal != nil {
			pos, release := s.wal.BeginSnapshot()
			view = st.View()
			release()
			setPositionHeaders(w.Header(), pos)
			w.Header().Set(repl.HeaderSnapshotQuads, strconv.Itoa(view.Len()))
		}
		w.Header().Set("Content-Type", "application/n-quads")
		if err := view.Snapshot(w); err != nil {
			return // headers already sent; the stream just ends short
		}
		return
	default:
		writeJSONError(w, http.StatusBadRequest, "request",
			fmt.Sprintf("unknown export format %q (want nquads or snapshot)", format))
		return
	}
	model := r.URL.Query().Get("model")
	if model == "" {
		writeJSONError(w, http.StatusBadRequest, "request", "missing model parameter")
		return
	}
	st := s.engine().Store()
	view := st.View()
	m := view.LookupModel(model)
	if m == store.NoID {
		writeJSONError(w, http.StatusNotFound, "unknown-model", fmt.Sprintf("unknown model %q", model))
		return
	}
	p := store.AnyPattern()
	p.M = m
	w.Header().Set("Content-Type", "application/n-quads")
	nw := ntriples.NewWriter(w)
	ctx := r.Context()
	dict := st.Dict()
	view.ScanBatch(p, 0, func(rows []store.IDQuad) bool {
		if ctx.Err() != nil {
			return false // client went away mid-stream
		}
		for _, q := range rows {
			if nw.Write(dict.Quad(q)) != nil {
				return false
			}
		}
		return true
	})
	nw.Flush()
}
