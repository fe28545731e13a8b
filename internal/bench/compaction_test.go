package bench

import (
	"context"
	"testing"

	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/twitter"
)

// TestAnswersIgnoreCompaction: a scan merges base and delta in key
// order, so where a row physically lives cannot show in an answer. On
// RF, NG and SP, with thousands of rows in the delta and thousands of
// base rows tombstoned, every EQ query returns the same bytes before
// and after Compact().
func TestAnswersIgnoreCompaction(t *testing.T) {
	g := twitter.Generate(twitter.TestConfig())
	env := &Env{Graph: g, GraphStats: g.ComputeStats()}
	env.pickTag()
	env.pickStartNode()
	queries := env.Queries()
	for _, scheme := range []pgrdf.Scheme{pgrdf.RF, pgrdf.NG, pgrdf.SP} {
		se, err := loadScheme(g, scheme)
		if err != nil {
			t.Fatal(err)
		}
		st := se.Store
		parts := map[string][]rdf.Quad{
			se.Names.Topology: se.Dataset.Topology,
			se.Names.NodeKV:   se.Dataset.NodeKV,
			se.Names.EdgeKV:   se.Dataset.EdgeKV,
		}
		// Every 17th quad leaves the base arrays and comes back as a
		// delta insert; every 19th stays deleted behind a tombstone.
		churn := func(every int, apply func(model string, q rdf.Quad) (bool, error)) {
			for model, quads := range parts {
				for i := every - 1; i < len(quads); i += every {
					if ok, err := apply(model, quads[i]); err != nil || !ok {
						t.Fatalf("%s: churn %s[%d]: %v %v", scheme, model, i, ok, err)
					}
				}
			}
		}
		churn(17, st.Delete)
		st.Compact()
		churn(17, st.Insert)
		churn(19, st.Delete)
		if ws := st.WriteStats(); ws.DeltaRows < 1000 || ws.Tombstones < 1000 {
			t.Fatalf("%s: fixture has %d delta rows and %d tombstones, want thousands of each", scheme, ws.DeltaRows, ws.Tombstones)
		}

		run := func() map[string]string {
			out := make(map[string]string, len(queries))
			for name, q := range queries {
				res, err := se.Engine.QueryContext(context.Background(), TargetModelFor(se, name), q)
				if err != nil {
					t.Fatalf("%s/%s: %v", scheme, name, err)
				}
				out[name] = res.String()
			}
			return out
		}
		before := run()
		st.Compact()
		for name, got := range run() {
			if got != before[name] {
				t.Errorf("%s/%s: answer changed across Compact()\n--- before ---\n%s\n--- after ---\n%s", scheme, name, before[name], got)
			}
		}
	}
}
