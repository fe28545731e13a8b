// Command pgrdf is the CLI for the PG-as-RDF library. Subcommands:
//
//	convert  — transform relational property-graph data (edges.tsv +
//	           objkvs.tsv) into N-Quads under a scheme (RF, NG or SP)
//	query    — load converted or raw N-Quads data and run a SPARQL
//	           query against it
//	explain  — like query, but print the index access plan instead
//	stats    — load data and print dataset + storage statistics
//	traverse — enumerate bounded paths, or a shortest path, over the
//	           graph algo projects
//	algo     — project the graph into a CSR and run a parallel graph
//	           algorithm: pagerank, wcc or triangles
//	snapshot — write a restorable store snapshot without a server
//	checkpoint — ask a running server (serve -data-dir) to checkpoint
//
// Examples:
//
//	pgrdf convert -scheme NG -edges edges.tsv -kvs objkvs.tsv -o data.nq
//	pgrdf query -data data.nq -q 'SELECT ?s WHERE { ?s ?p ?o } LIMIT 5'
//	pgrdf explain -data data.nq -q "$(cat q.rq)"
//	pgrdf stats -data data.nq
//	pgrdf algo pagerank -data data.nq -k 5
//	pgrdf algo wcc -data data.nq -scheme NG
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"net/http"

	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/ntriples"
	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
	"repro/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "convert":
		err = runConvert(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:], false)
	case "explain":
		err = runQuery(os.Args[2:], true)
	case "stats":
		err = runStats(os.Args[2:])
	case "traverse":
		err = runTraverse(os.Args[2:])
	case "algo":
		err = runAlgo(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "snapshot":
		err = runSnapshot(os.Args[2:])
	case "checkpoint":
		err = runCheckpoint(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgrdf:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pgrdf <convert|query|explain|stats|traverse|algo|serve|snapshot|checkpoint> [flags]
run "pgrdf <subcommand> -h" for flags`)
	os.Exit(2)
}

func runConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	scheme := fs.String("scheme", "NG", "PG-as-RDF scheme: RF, NG or SP")
	edges := fs.String("edges", "edges.tsv", "Edges table (TSV)")
	kvs := fs.String("kvs", "objkvs.tsv", "ObjKVs table (TSV)")
	out := fs.String("o", "-", "output N-Quads file (- = stdout)")
	prefix := fs.String("vertex-prefix", "v", "vertex IRI prefix (the paper's Twitter data uses n)")
	fs.Parse(args)

	s, err := pgrdf.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	g, err := loadRelational(*edges, *kvs)
	if err != nil {
		return err
	}
	vocab := pgrdf.DefaultVocabulary()
	vocab.VertexPrefix = *prefix
	conv := &pgrdf.Converter{Scheme: s, Vocab: vocab, Opts: pgrdf.DefaultOptions()}
	ds := conv.Convert(g)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	all := ds.All()
	if strings.HasSuffix(*out, ".ttl") || strings.HasSuffix(*out, ".turtle") {
		// Turtle cannot express named graphs: only RF and SP datasets
		// (all default-graph) can be written this way.
		triples := make([]rdf.Triple, 0, len(all))
		for _, q := range all {
			if !q.InDefaultGraph() {
				return fmt.Errorf("the %s scheme emits named-graph quads; use N-Quads output instead of Turtle", s)
			}
			triples = append(triples, q.Triple())
		}
		prefixes := rdf.PrefixMap{"pg": vocab.VertexNS, "rel": vocab.RelNS, "key": vocab.KeyNS,
			"rdf": rdf.RDFNS, "rdfs": rdf.RDFSNS, "xsd": rdf.XSDNS}
		if err := turtle.Write(w, triples, prefixes); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "converted %d vertices, %d edges -> %d triples (%s, Turtle)\n",
			g.NumVertices(), g.NumEdges(), len(triples), s)
		return nil
	}
	nw := ntriples.NewWriter(w)
	if err := nw.WriteAll(all); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "converted %d vertices, %d edges -> %d quads (%s)\n",
		g.NumVertices(), g.NumEdges(), nw.Count(), s)
	return nil
}

func loadRelational(edgesPath, kvsPath string) (*pg.Graph, error) {
	ef, err := os.Open(edgesPath)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	edges, err := pg.ReadEdges(ef)
	if err != nil {
		return nil, err
	}
	kf, err := os.Open(kvsPath)
	if err != nil {
		return nil, err
	}
	defer kf.Close()
	kvRows, err := pg.ReadObjKVs(kf)
	if err != nil {
		return nil, err
	}
	return pg.FromRelational(&pg.Relational{Edges: edges, ObjKVs: kvRows})
}

// loadStore loads an RDF file (N-Quads/N-Triples by default, Turtle for
// .ttl files) into a fresh store under the model name "data".
func loadStore(dataPath, indexes string) (*store.Store, error) {
	specs := store.DefaultIndexes
	if indexes != "" {
		specs = strings.Split(indexes, ",")
	}
	st, err := store.NewWithIndexes(specs)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var quads []rdf.Quad
	if strings.HasSuffix(dataPath, ".ttl") || strings.HasSuffix(dataPath, ".turtle") {
		triples, err := turtle.Parse(f)
		if err != nil {
			return nil, err
		}
		for _, t := range triples {
			quads = append(quads, rdf.TripleQuad(t))
		}
	} else {
		quads, err = ntriples.NewReader(f).ReadAll()
		if err != nil {
			return nil, err
		}
	}
	if _, err := st.Load("data", quads); err != nil {
		return nil, err
	}
	return st, nil
}

func runQuery(args []string, explain bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	data := fs.String("data", "", "N-Quads data file")
	queryText := fs.String("q", "", "SPARQL query text (@file to read from a file)")
	indexes := fs.String("indexes", "PCSGM,PSCGM,SPCGM,GSPCM", "comma-separated semantic network indexes")
	limit := fs.Int("print", 100, "max rows to print")
	analyze := fs.Bool("analyze", false, "execute the query and annotate the plan with per-operator actuals (explain only)")
	fs.Parse(args)
	if *data == "" || *queryText == "" {
		return fmt.Errorf("query requires -data and -q")
	}
	q := *queryText
	if strings.HasPrefix(q, "@") {
		b, err := os.ReadFile(q[1:])
		if err != nil {
			return err
		}
		q = string(b)
	}
	st, err := loadStore(*data, *indexes)
	if err != nil {
		return err
	}
	eng := sparql.NewEngine(st)
	if explain {
		var plan string
		if *analyze {
			plan, err = eng.ExplainAnalyzeContext(ctx, "data", q)
		} else {
			plan, err = eng.Explain("data", q)
		}
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}
	res, err := eng.QueryContext(ctx, "data", q)
	if err != nil {
		return err
	}
	fmt.Println(strings.Join(res.Vars, "\t"))
	for i, row := range res.Rows {
		if i >= *limit {
			fmt.Printf("... (%d more rows)\n", res.Len()-*limit)
			break
		}
		parts := make([]string, len(row))
		for j, t := range row {
			if t.IsZero() {
				parts[j] = "UNBOUND"
			} else {
				parts[j] = t.String()
			}
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
	fmt.Fprintf(os.Stderr, "%d rows\n", res.Len())
	return nil
}

// runTraverse exposes the Gremlin-style procedural traversal (§6 of the
// paper) from the command line: bounded-length path enumeration and
// shortest paths, which SPARQL 1.1 property paths cannot express (§5.1).
// It walks the graph pgrdf algo and /algo project, decoded under the
// detected scheme: a path is a sequence of vertices, so parallel edges,
// and under -label "" edges of different labels between one pair, are
// one step.
func runTraverse(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fs := flag.NewFlagSet("traverse", flag.ExitOnError)
	data := fs.String("data", "", "N-Quads data file (a converted PG-as-RDF dataset)")
	indexes := fs.String("indexes", "PCSGM,PSCGM,SPCGM,GSPCM", "semantic network indexes")
	from := fs.String("from", "", "start vertex IRI")
	to := fs.String("to", "", "destination vertex IRI (shortest-path mode)")
	label := fs.String("label", "follows", "edge label to follow (empty = any)")
	minLen := fs.Int("min", 1, "minimum path length")
	maxLen := fs.Int("max", 3, "maximum path length")
	limit := fs.Int("print", 50, "max paths to print")
	fs.Parse(args)
	if *data == "" || *from == "" {
		return fmt.Errorf("traverse requires -data and -from")
	}
	cs, err := projectFile(ctx, *data, *indexes, "auto", graph.ProjectOptions{Model: "data", Label: *label})
	if err != nil {
		return err
	}
	vertex := func(iri string) (uint32, error) {
		v, ok := cs.Index(rdf.NewIRI(iri))
		if !ok {
			return 0, fmt.Errorf("%s is not a vertex of the projected graph (label %q)", iri, *label)
		}
		return v, nil
	}
	start, err := vertex(*from)
	if err != nil {
		return err
	}
	arrow := " -" + *label + "-> "
	if *label == "" {
		arrow = " -> "
	}
	render := func(path []uint32) string {
		parts := make([]string, len(path))
		for i, v := range path {
			parts[i] = cs.Term(v).String()
		}
		return strings.Join(parts, arrow)
	}
	if *to != "" {
		end, err := vertex(*to)
		if err != nil {
			return err
		}
		if path := cs.ShortestPath(start, end); path != nil {
			fmt.Printf("%s (length %d)\n", render(path), len(path)-1)
		} else {
			fmt.Println("unreachable")
		}
		return nil
	}
	n := 0
	err = cs.Walk(start, *minLen, *maxLen, func(path []uint32) bool {
		fmt.Println(render(path))
		n++
		return n < *limit
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d path(s) printed (limit %d)\n", n, *limit)
	return nil
}

// projectFile loads an RDF file and projects opts.Model into a CSR under
// schemeName ("auto" sniffs the dataset) — the graph pgrdf algo and
// pgrdf traverse both run on, decoded as /algo decodes it.
func projectFile(ctx context.Context, data, indexes, schemeName string, opts graph.ProjectOptions) (*graph.CSR, error) {
	st, err := loadStore(data, indexes)
	if err != nil {
		return nil, err
	}
	if strings.EqualFold(strings.TrimSpace(schemeName), "auto") {
		opts.Scheme, err = graph.DetectScheme(st, opts.Model, pgrdf.Vocabulary{})
	} else {
		opts.Scheme, err = pgrdf.ParseScheme(schemeName)
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cs, err := graph.Project(ctx, st, opts, graph.Budget{})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "projected model %q (%s): %d vertices, %d edges in %.1f ms\n",
		opts.Model, opts.Scheme, cs.NumVertices(), cs.NumEdges(), float64(time.Since(start).Microseconds())/1000)
	return cs, nil
}

// runAlgo projects a loaded dataset into a CSR (decoding edges under
// any of the three PG-as-RDF schemes) and runs one of the parallel
// graph algorithms from internal/graph. Results are identical at every
// -parallelism and under every scheme of the same property graph.
func runAlgo(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("algo requires an algorithm: pgrdf algo <pagerank|wcc|triangles> [flags]")
	}
	name := args[0]
	fs := flag.NewFlagSet("algo", flag.ExitOnError)
	data := fs.String("data", "", "N-Quads data file (a converted PG-as-RDF dataset)")
	indexes := fs.String("indexes", "PCSGM,PSCGM,SPCGM,GSPCM", "comma-separated semantic network indexes")
	model := fs.String("model", "data", "model to project (loadStore loads files as \"data\")")
	schemeName := fs.String("scheme", "auto", "projection scheme: RF, NG, SP or auto (sniff the dataset)")
	label := fs.String("label", "", "edge-label filter (empty = all relationship edges)")
	weightKey := fs.String("weight-key", "", "edge property read as weight (with pagerank -weighted)")
	k := fs.Int("k", 10, "rows to print (top scores / largest components)")
	par := fs.Int("parallelism", 0, "worker count (0 = GOMAXPROCS; results are identical at any value)")
	damping := fs.Float64("damping", 0.85, "pagerank damping factor")
	maxIter := fs.Int("max-iter", 50, "pagerank iteration cap")
	tolerance := fs.Float64("tolerance", 1e-6, "pagerank convergence tolerance (negative = run all iterations)")
	weighted := fs.Bool("weighted", false, "weighted pagerank (requires -weight-key)")
	fs.Parse(args[1:])
	if *data == "" {
		return fmt.Errorf("algo requires -data")
	}
	cs, err := projectFile(ctx, *data, *indexes, *schemeName, graph.ProjectOptions{
		Model:     *model,
		Label:     *label,
		WeightKey: *weightKey,
		Reverse:   true,
	})
	if err != nil {
		return err
	}

	runner := graph.Runner{Parallelism: *par}
	start := time.Now()
	switch name {
	case "pagerank":
		res, err := runner.PageRank(ctx, cs, graph.PageRankOptions{
			Damping:       *damping,
			MaxIterations: *maxIter,
			Tolerance:     *tolerance,
			Weighted:      *weighted,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pagerank: %d iteration(s), converged=%v, %.1f ms\n",
			res.Iterations, res.Converged, float64(time.Since(start).Microseconds())/1000)
		fmt.Println("rank\tscore\tvertex")
		for i, r := range graph.TopScores(cs, res.Scores, *k) {
			fmt.Printf("%d\t%.6f\t%s\n", i+1, r.Score, r.Term)
		}
	case "wcc":
		res, err := runner.WCC(ctx, cs)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wcc: %d iteration(s), %.1f ms\n",
			res.Iterations, float64(time.Since(start).Microseconds())/1000)
		fmt.Printf("components\t%d\n", res.Components)
		fmt.Println("size\trepresentative")
		for _, c := range graph.TopComponents(cs, res, *k) {
			fmt.Printf("%d\t%s\n", c.Size, c.Term)
		}
	case "triangles":
		res, err := runner.Triangles(ctx, cs)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "triangles: %.1f ms\n", float64(time.Since(start).Microseconds())/1000)
		fmt.Printf("triangles\t%d\n", res.Count)
	default:
		return fmt.Errorf("unknown algorithm %q (want pagerank, wcc or triangles)", name)
	}
	return nil
}

// openStore builds a store from -restore (a snapshot written by pgrdf
// snapshot or /export?format=snapshot), -data (an RDF file) or neither
// (empty with the given indexes), in that precedence — the shared
// serve/snapshot start-up path.
func openStore(data, restore, indexes string) (*store.Store, error) {
	switch {
	case restore != "":
		snap, err := os.ReadFile(restore)
		if err != nil {
			return nil, err
		}
		return store.RestoreBinary(snap)
	case data != "":
		return loadStore(data, indexes)
	default:
		return store.NewWithIndexes(strings.Split(indexes, ","))
	}
}

// runSnapshot writes a restorable store snapshot offline — the
// operator's checkpoint path when no server is running. The input is
// an RDF data file (-data), an existing snapshot (-restore), or a
// durability directory (-data-dir, recovered checkpoint + WAL tail).
func runSnapshot(args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	data := fs.String("data", "", "N-Quads data file to load")
	restore := fs.String("restore", "", "existing snapshot to load")
	dataDir := fs.String("data-dir", "", "durability directory to recover (checkpoint + WAL tail)")
	indexes := fs.String("indexes", "PCSGM,PSCGM,SPCGM,GSPCM", "comma-separated semantic network indexes (ignored with -restore/-data-dir)")
	out := fs.String("o", "-", "output snapshot file (- = stdout)")
	fs.Parse(args)

	var st *store.Store
	var err error
	if *dataDir != "" {
		var l *wal.Log
		st, l, err = wal.Open(*dataDir, wal.Options{Sync: wal.SyncOff})
		if err != nil {
			return err
		}
		defer l.Close()
	} else {
		if *data == "" && *restore == "" {
			return fmt.Errorf("snapshot requires -data, -restore or -data-dir")
		}
		st, err = openStore(*data, *restore, *indexes)
		if err != nil {
			return err
		}
	}

	w := os.Stdout
	if *out != "-" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		w = f
	}
	view := st.View()
	if err := view.SnapshotBinary(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "snapshot of %d quads across %d model(s) written\n", view.Len(), len(view.Models()))
	return nil
}

// runCheckpoint asks a running pgrdf serve -data-dir instance to
// checkpoint now (POST /checkpoint): snapshot the store and truncate
// the write-ahead log. With -incremental the server folds the log into
// a small delta file instead of rewriting the full snapshot.
func runCheckpoint(args []string) error {
	fs := flag.NewFlagSet("checkpoint", flag.ExitOnError)
	addr := fs.String("addr", "localhost:3030", "address of the running pgrdf serve instance")
	timeout := fs.Duration("timeout", 10*time.Minute, "how long to wait for the checkpoint to complete")
	incremental := fs.Bool("incremental", false, "fold the log into a delta file instead of a full snapshot")
	fs.Parse(args)

	target := "http://" + *addr + "/checkpoint"
	if *incremental {
		target += "?mode=incremental"
	}
	cl := &http.Client{Timeout: *timeout}
	resp, err := cl.Post(target, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkpoint failed: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	fmt.Print(string(body))
	return nil
}

// runServe starts a SPARQL 1.1 Protocol endpoint over a loaded dataset,
// with query guardrails (deadline, budget, admission control) and a
// graceful drain on SIGINT/SIGTERM: new requests are shed with 503
// while in-flight queries finish.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	data := fs.String("data", "", "N-Quads data file to load (optional: start empty)")
	restore := fs.String("restore", "", "store snapshot to restore (preserves models, virtual models and indexes)")
	indexes := fs.String("indexes", "PCSGM,PSCGM,SPCGM,GSPCM", "semantic network indexes")
	addr := fs.String("addr", "localhost:3030", "listen address")
	readOnly := fs.Bool("readonly", false, "disable the /update endpoint")
	timeout := fs.Duration("timeout", 30*time.Second, "per-query wall-clock deadline (negative = unlimited)")
	maxConcurrent := fs.Int("max-concurrent", 0, "max queries executing at once (0 = 2x GOMAXPROCS, negative = unlimited)")
	maxQueue := fs.Int("max-queue", 32, "max requests waiting for a free slot before shedding with 503")
	maxRows := fs.Int("max-rows", 0, "per-query result-row budget (0 = default, negative = unlimited)")
	maxBindings := fs.Int("max-bindings", 0, "per-query intermediate-binding budget (0 = default, negative = unlimited)")
	parallelism := fs.Int("parallelism", 0, "default worker count of a POST /algo run (0 = GOMAXPROCS, negative = serial)")
	drainWait := fs.Duration("drain", 15*time.Second, "max time to wait for in-flight queries on shutdown")
	slowLog := fs.String("slowlog", "", "slow-query log file (\"-\" = stderr, empty = disabled)")
	slowThreshold := fs.Duration("slow-threshold", time.Second, "wall time at or over which a query is slow-logged (0 = log every query)")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	dataDir := fs.String("data-dir", "", "durability directory: recover on start, journal every update, checkpoint on demand (empty = in-memory only)")
	fsync := fs.String("fsync", "always", "WAL fsync policy: always, interval or off")
	fsyncInterval := fs.Duration("fsync-interval", 100*time.Millisecond, "fsync period under -fsync interval")
	checkpointEvery := fs.Duration("checkpoint-every", 0, "background incremental checkpoint period (0 = only POST /checkpoint)")
	follow := fs.String("follow", "", "replicate from a leader URL (e.g. http://leader:3030); the endpoint serves read-only queries")
	maxStaleness := fs.Duration("max-staleness", 0, "with -follow: fail reads with 503 once the leader has been unreachable this long (0 = serve stale reads forever)")
	degradedAfter := fs.Duration("degraded-after", 15*time.Second, "with -follow: leader-contact age at which /stats reports degraded")
	fs.Parse(args)

	if *follow != "" && (*dataDir != "" || *data != "" || *restore != "") {
		return fmt.Errorf("-follow replicates the leader's data and cannot be combined with -data, -restore or -data-dir")
	}

	var st *store.Store
	var l *wal.Log
	var err error
	if *follow != "" {
		// The follower starts empty; the replication loop swaps in the
		// leader's data once the bootstrap snapshot has been restored.
		st = store.New()
	} else if *dataDir != "" {
		policy, perr := wal.ParseSyncPolicy(*fsync)
		if perr != nil {
			return perr
		}
		st, l, err = wal.Open(*dataDir, wal.Options{
			Sync:      policy,
			SyncEvery: *fsyncInterval,
			Indexes:   strings.Split(*indexes, ","),
		})
		if err != nil {
			return err
		}
		defer l.Close()
		ws := l.Stats()
		recovered := st.View().Len()
		fmt.Fprintf(os.Stderr, "pgrdf: recovered %d quads from %s (replayed %d WAL records, dropped %d torn bytes)\n",
			recovered, *dataDir, ws.ReplayedRecords, ws.TornBytesDropped)
		// Seed an empty data dir from -data / -restore, then checkpoint
		// immediately so the seed itself is durable.
		if recovered == 0 && (*data != "" || *restore != "") {
			st, err = openStore(*data, *restore, *indexes)
			if err != nil {
				return err
			}
			if err := l.Checkpoint(st); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "pgrdf: seeded %s with %d quads\n", *dataDir, st.View().Len())
		}
	} else {
		st, err = openStore(*data, *restore, *indexes)
		if err != nil {
			return err
		}
	}
	cfg := httpapi.DefaultConfig()
	cfg.QueryTimeout = *timeout
	cfg.UpdateTimeout = *timeout
	cfg.MaxConcurrent = *maxConcurrent
	cfg.MaxQueue = *maxQueue
	cfg.MaxRows = *maxRows
	cfg.MaxBindings = *maxBindings
	cfg.Parallelism = *parallelism
	cfg.EnablePprof = *enablePprof
	if *slowLog != "" {
		if *slowLog == "-" {
			cfg.SlowQueryLog = os.Stderr
		} else {
			f, ferr := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			cfg.SlowQueryLog = f
		}
		if *slowThreshold <= 0 {
			cfg.SlowQueryThreshold = -1 // log every query
		} else {
			cfg.SlowQueryThreshold = *slowThreshold
		}
	}
	h := httpapi.NewServerWithConfig(st, cfg)
	h.ReadOnly = *readOnly
	if l != nil {
		h.AttachWAL(l)
		l.StartCheckpointer(st, *checkpointEvery)
	}

	srv := &http.Server{Addr: *addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *follow != "" {
		f := repl.New(repl.Options{
			Leader:        *follow,
			MaxStaleness:  *maxStaleness,
			DegradedAfter: *degradedAfter,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "pgrdf: "+format+"\n", args...)
			},
		})
		h.AttachFollower(f)
		go f.Run(ctx) //nolint — returns only ctx.Err, reported via the signal path
		fmt.Fprintf(os.Stderr, "pgrdf: bootstrapping from %s (retrying until the leader answers)...\n", *follow)
		if _, err := f.WaitReady(ctx); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pgrdf: following %s; serving read-only queries\n", *follow)
	}
	fmt.Fprintf(os.Stderr, "SPARQL endpoint on http://%s/sparql (updates: http://%s/update, stats: http://%s/stats, metrics: http://%s/metrics)\n",
		*addr, *addr, *addr, *addr)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "pgrdf: draining in-flight queries...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Shed queued and future requests first, then close listeners and
	// wait for the in-flight ones.
	if err := h.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "pgrdf: drain timed out; forcing shutdown")
	}
	if l != nil {
		// All updates have drained; make their tail of the log durable
		// before the process exits (the deferred Close re-syncs, but by
		// then errors could only be logged, not returned).
		if err := l.Sync(); err != nil {
			fmt.Fprintln(os.Stderr, "pgrdf: final WAL sync failed:", err)
		}
	}
	return srv.Shutdown(dctx)
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	data := fs.String("data", "", "N-Quads data file")
	indexes := fs.String("indexes", "PCSGM,PSCGM,SPCGM,GSPCM", "comma-separated semantic network indexes")
	fs.Parse(args)
	if *data == "" {
		return fmt.Errorf("stats requires -data")
	}
	st, err := loadStore(*data, *indexes)
	if err != nil {
		return err
	}
	view := st.View()
	ds, err := view.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("Quads        %d\nSubjects     %d\nPredicates   %d\nObjects      %d\nNamed Graphs %d\n",
		ds.Quads, ds.Subjects, ds.Predicates, ds.Objects, ds.NamedGraphs)
	rep := view.Storage()
	fmt.Println("\nEstimated storage:")
	for _, o := range rep.Objects {
		fmt.Printf("  %-16s %8.2f MB\n", o.Name, float64(o.Bytes)/(1<<20))
	}
	fmt.Printf("  %-16s %8.2f MB\n", "Total", rep.TotalMB())
	return nil
}
