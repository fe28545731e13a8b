package bench

import (
	"context"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/pgrdf"
	"repro/internal/sparql"
	"repro/internal/twitter"
)

var (
	testEnvOnce sync.Once
	testEnv     *Env
	testEnvErr  error
)

// sharedEnv builds one small environment for all harness tests.
func sharedEnv(t *testing.T) *Env {
	t.Helper()
	testEnvOnce.Do(func() {
		testEnv, testEnvErr = Setup(twitter.TestConfig())
	})
	if testEnvErr != nil {
		t.Fatal(testEnvErr)
	}
	return testEnv
}

func TestSetupPicksSelectiveTagAndStartNode(t *testing.T) {
	env := sharedEnv(t)
	if env.Tag == "" || !strings.HasPrefix(env.Tag, "#") {
		t.Fatalf("tag = %q", env.Tag)
	}
	if env.TagNodeCount < 1 {
		t.Fatalf("tag node count = %d", env.TagNodeCount)
	}
	if env.TagNodeCount > env.GraphStats.Vertices/10 {
		t.Errorf("tag too common: %d of %d nodes", env.TagNodeCount, env.GraphStats.Vertices)
	}
	if !strings.HasPrefix(env.StartNode, "http://pg/n") {
		t.Errorf("start node = %q", env.StartNode)
	}
}

func TestQueriesSubstituted(t *testing.T) {
	env := sharedEnv(t)
	for name, q := range env.Queries() {
		if strings.Contains(q, "#webseries") {
			t.Errorf("%s still references #webseries", name)
		}
		if strings.Contains(q, "n6160742") {
			t.Errorf("%s still references the paper's start node", name)
		}
	}
}

// TestPaperClaims holds every shape claim of claims.go on the small
// dataset, one subtest per claim; benchpaper checks the same table at
// scale 0.1 into BENCH_paper.json.
func TestPaperClaims(t *testing.T) {
	env := sharedEnv(t)
	for _, c := range Claims {
		t.Run(c.Name, func(t *testing.T) {
			r := c.Eval(context.Background(), env)
			t.Logf("%s: %v", r.Row, r.Values)
			if !r.Holds {
				t.Fatal(r.Failure)
			}
		})
	}
}

// TestCrossSchemeCheck runs every paper query on NG and on SP, each on
// its Table 4 target, and requires the same answer from both.
func TestCrossSchemeCheck(t *testing.T) {
	p := &probe{ctx: context.Background(), env: sharedEnv(t)}
	for _, q := range []string{"EQ5", "EQ6", "EQ7", "EQ8"} {
		p.pair(q+"a", q+"b")
	}
	for _, name := range []string{"EQ1", "EQ2", "EQ3", "EQ4", "EQ9", "EQ10", "EQ11a", "EQ11b", "EQ11c", "EQ11d", "EQ12"} {
		p.pair(name, name)
	}
	if err := p.done(); err != nil {
		t.Fatal(err)
	}
}

// TestEQ9MatchesInMemoryDegrees cross-validates the EQ9 in-degree
// distribution row count against a direct computation.
func TestEQ9MatchesInMemoryDegrees(t *testing.T) {
	env := sharedEnv(t)
	p := &probe{ctx: context.Background(), env: env}
	rows := p.eq(env.NG, "EQ9").count
	if err := p.done(); err != nil {
		t.Fatal(err)
	}
	_, in := env.Graph.DegreeDistribution()
	distinct := 0
	for deg := range in {
		if deg > 0 {
			distinct++
		}
	}
	if rows != distinct {
		t.Fatalf("EQ9 rows = %d but distinct positive in-degrees = %d", rows, distinct)
	}
}

// TestRecommendedIndexesServeTheirPlans: on NG and SP stores built with
// pgrdf.RecommendedIndexes alone, EQ1–EQ12 (NG's a forms and SP's b
// forms, as the claims pick them) answer as the paper env does, and the
// indexes their profiled plans use are the scheme's set exactly.
func TestRecommendedIndexesServeTheirPlans(t *testing.T) {
	env := sharedEnv(t)
	for _, paper := range env.SchemeEnvs() {
		t.Run(paper.Scheme.String(), func(t *testing.T) {
			st, err := pgrdf.NewStore(paper.Scheme)
			if err != nil {
				t.Fatal(err)
			}
			names, err := pgrdf.LoadPartitioned(st, paper.Dataset, "pg")
			if err != nil {
				t.Fatal(err)
			}
			se := &SchemeEnv{Scheme: paper.Scheme, Store: st, Engine: sparql.NewEngine(st), Names: names, Dataset: paper.Dataset}
			form := map[pgrdf.Scheme]string{pgrdf.NG: "a", pgrdf.SP: "b"}[paper.Scheme]
			p := &probe{ctx: context.Background(), env: env}
			var used []string
			for _, name := range sortedKeys(env.Queries()) {
				if strings.ContainsAny(name[2:3], "5678") && !strings.HasSuffix(name, form) {
					continue
				}
				got, want := p.eq(se, name), p.eq(paper, name)
				if err := p.done(); err != nil {
					t.Fatal(err)
				}
				if got.answer != want.answer {
					t.Errorf("%s: %d results, the paper env's %d", name, got.count, want.count)
				}
				walkProfile(got.prof.Plan, func(n *sparql.ProfileNode) {
					if n.Index != "" && !slices.Contains(used, n.Index) {
						used = append(used, n.Index)
					}
				})
			}
			want := pgrdf.RecommendedIndexes(paper.Scheme)
			sort.Strings(used)
			sort.Strings(want)
			if !slices.Equal(used, want) {
				t.Errorf("plans use %v, want the recommended %v", used, want)
			}
		})
	}
}
