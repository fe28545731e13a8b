package main

// Answer checking. The oracle holds the same dataset in-process and
// computes, once per distinct request text, the bytes the server must
// answer with: reads are compared by SHA-256 of the whole body against
// sparql.Engine + WriteResultsJSON, /algo replies field by field against
// graph.Project + graph.Runner. The warm-up pass checks every reply this
// way; timed passes check status and body length only.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"

	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/pgrdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// answer is the expected body of one read text.
type answer struct {
	sum  [sha256.Size]byte
	size int
	rows int
}

// algoAnswer is the deterministic part of a POST /algo reply; the
// timing fields (csrBuildMS, runMS, csrCached) are not answers.
type algoAnswer struct {
	Algo       string            `json:"algo"`
	Scheme     string            `json:"scheme"`
	Vertices   int               `json:"vertices"`
	Edges      int               `json:"edges"`
	Iterations int               `json:"iterations"`
	Converged  bool              `json:"converged"`
	Top        []graph.Ranked    `json:"top"`
	Components int               `json:"components"`
	TopComps   []graph.Component `json:"topComponents"`
	Triangles  *int64            `json:"triangles"`
}

// algoTimings are the timing fields of a POST /algo reply.
type algoTimings struct {
	CSRBuildMS float64 `json:"csrBuildMS"`
	CSRCached  bool    `json:"csrCached"`
	RunMS      float64 `json:"runMS"`
}

type oracle struct {
	st     *store.Store
	eng    *sparql.Engine
	scheme pgrdf.Scheme
	reads  map[string]answer
	// algos[state][algorithm]: state 0 is the dataset as loaded, state 1
	// has the toggle edge inserted.
	algos [2]map[string]algoAnswer
}

func newOracle(st *store.Store, scheme pgrdf.Scheme) *oracle {
	return &oracle{st: st, eng: sparql.NewEngine(st), scheme: scheme, reads: map[string]answer{}}
}

// readBytes runs one query in-process and serialises it as the server does.
func (o *oracle) readBytes(ctx context.Context, text string) ([]byte, *sparql.Results, error) {
	res, err := o.eng.QueryContext(ctx, "", text)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := httpapi.WriteResultsJSON(&buf, res); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), res, nil
}

// learnReads computes the expected answer of every distinct read text
// in list. The first text of each class is also parsed back, so a body
// that equals the oracle's is known to be well-formed results JSON.
func (o *oracle) learnReads(ctx context.Context, list []request) error {
	parsed := map[string]bool{}
	for _, r := range list {
		if r.Path != "/sparql" {
			continue
		}
		if _, ok := o.reads[r.Text]; ok {
			continue
		}
		b, res, err := o.readBytes(ctx, r.Text)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", r.Class, err)
		}
		if !parsed[r.Class] {
			parsed[r.Class] = true
			back, _, err := httpapi.ParseResultsJSON(bytes.NewReader(b))
			if err != nil {
				return fmt.Errorf("oracle %s: results JSON does not parse: %w", r.Class, err)
			}
			if !reflect.DeepEqual(back.Vars, res.Vars) || len(back.Rows) != len(res.Rows) {
				return fmt.Errorf("oracle %s: results JSON does not round-trip", r.Class)
			}
		}
		o.reads[r.Text] = answer{sum: sha256.Sum256(b), size: len(b), rows: res.Len()}
	}
	return nil
}

// solutions digests a result as a multiset of rows: without ORDER BY a
// SELECT's row order follows dictionary ids, which differ between
// encodings of one graph, so answers are equal when their sorted rows are.
func solutions(res *sparql.Results) [sha256.Size]byte {
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = fmt.Sprint(row)
	}
	sort.Strings(rows)
	return sha256.Sum256([]byte(fmt.Sprint(res.Vars, rows)))
}

// sameAs asserts that twin, holding the same graph under another
// encoding, gives every scheme-independent text of list the same
// solutions — the paper's equivalence, and the round-trip property.
func (o *oracle) sameAs(ctx context.Context, twin *oracle, list []request) error {
	seen := map[string]bool{}
	for _, r := range list {
		if r.Path != "/sparql" || !sharedClasses[r.Class] || seen[r.Text] {
			continue
		}
		seen[r.Text] = true
		mine, err := o.eng.QueryContext(ctx, "", r.Text)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", r.Class, err)
		}
		theirs, err := twin.eng.QueryContext(ctx, "", r.Text)
		if err != nil {
			return fmt.Errorf("twin %s: %w", r.Class, err)
		}
		if solutions(mine) != solutions(theirs) {
			return fmt.Errorf("%s answers differ between %s and %s", r.Class, o.scheme, twin.scheme)
		}
	}
	return nil
}

// runAlgos projects the oracle's store and runs the three algorithms.
func (o *oracle) runAlgos(ctx context.Context) (map[string]algoAnswer, error) {
	cs, err := graph.Project(ctx, o.st, graph.ProjectOptions{Scheme: o.scheme, Reverse: true}, graph.Budget{})
	if err != nil {
		return nil, err
	}
	base := algoAnswer{Scheme: o.scheme.String(), Vertices: cs.NumVertices(), Edges: cs.NumEdges()}
	var run graph.Runner
	pr, err := run.PageRank(ctx, cs, graph.PageRankOptions{})
	if err != nil {
		return nil, err
	}
	wcc, err := run.WCC(ctx, cs)
	if err != nil {
		return nil, err
	}
	tri, err := run.Triangles(ctx, cs)
	if err != nil {
		return nil, err
	}
	out := map[string]algoAnswer{}
	a := base
	a.Algo, a.Iterations, a.Converged, a.Top = "pagerank", pr.Iterations, pr.Converged, graph.TopScores(cs, pr.Scores, 10)
	out["pagerank"] = a
	a = base
	a.Algo, a.Iterations, a.Components, a.TopComps = "wcc", wcc.Iterations, wcc.Components, graph.TopComponents(cs, wcc, 10)
	out["wcc"] = a
	a = base
	a.Algo, a.Triangles = "triangles", &tri.Count
	out["triangles"] = a
	return out, nil
}

// learnAlgos computes the /algo answers with the toggle edge out and
// in, leaving the store as it found it.
func (o *oracle) learnAlgos(ctx context.Context, list []request) error {
	var err error
	if o.algos[0], err = o.runAlgos(ctx); err != nil {
		return fmt.Errorf("oracle algos: %w", err)
	}
	var ins, del *request
	for i := range list {
		if list[i].Path == "/update" {
			if ins == nil {
				ins = &list[i]
			} else if del == nil {
				del = &list[i]
			}
		}
	}
	if ins == nil || del == nil {
		o.algos[1] = o.algos[0]
		return nil
	}
	if _, err := o.eng.UpdateContext(ctx, "data", ins.Text); err != nil {
		return fmt.Errorf("oracle toggle: %w", err)
	}
	if o.algos[1], err = o.runAlgos(ctx); err != nil {
		return fmt.Errorf("oracle algos: %w", err)
	}
	if _, err := o.eng.UpdateContext(ctx, "data", del.Text); err != nil {
		return fmt.Errorf("oracle toggle: %w", err)
	}
	return nil
}

// fullCheck returns the warm-up pass's judge: every reply must equal
// the oracle's answer.
func (o *oracle) fullCheck(list []request) checkFunc {
	return func(i int, status int, body []byte) string {
		r := list[i]
		if status != http.StatusOK {
			return fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
		}
		switch r.Path {
		case "/sparql":
			want := o.reads[r.Text]
			if len(body) != want.size || sha256.Sum256(body) != want.sum {
				return fmt.Sprintf("answer differs from the in-process engine (%d bytes, want %d)", len(body), want.size)
			}
		case "/update":
			if string(body) != r.Reply {
				return fmt.Sprintf("update answered %q, want %q", body, r.Reply)
			}
		case "/algo":
			var got algoAnswer
			if err := json.Unmarshal(body, &got); err != nil {
				return "algo reply does not parse: " + err.Error()
			}
			// Cycle c follows toggle c: even cycles run with the edge in.
			state := 1 - (i/algoCycle)%2
			if want := o.algos[state][r.Text]; !reflect.DeepEqual(got, want) {
				return fmt.Sprintf("%s answer differs from the in-process runner", r.Text)
			}
		}
		return ""
	}
}

// lengthCheck returns a timed pass's judge: status 200 and, where the
// body is a pure function of the request, the warm-up's body length.
func lengthCheck(list []request, wantLen []int) checkFunc {
	return func(i int, status int, body []byte) string {
		if status != http.StatusOK {
			return fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if list[i].Path == "/algo" {
			if len(body) == 0 {
				return "empty algo reply"
			}
			return ""
		}
		if len(body) != wantLen[i] {
			return fmt.Sprintf("body is %d bytes, the checked warm-up reply was %d", len(body), wantLen[i])
		}
		return ""
	}
}
