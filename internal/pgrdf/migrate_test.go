package pgrdf

import (
	"fmt"
	"testing"

	"repro/internal/sparql"
)

// TestMigrateAllPairs re-encodes a random graph between every ordered
// pair of schemes and checks the result is byte-identical to a direct
// conversion.
func TestMigrateAllPairs(t *testing.T) {
	g := randomSocialGraph(11, 20, 60)
	vocab := DefaultVocabulary()
	opts := DefaultOptions()
	direct := map[Scheme]*Dataset{}
	for _, s := range Schemes {
		direct[s] = (&Converter{Scheme: s, Vocab: vocab, Opts: opts}).Convert(g)
	}
	for _, from := range Schemes {
		for _, to := range Schemes {
			if from == to {
				if _, err := Migrate(direct[from], vocab, to, opts); err == nil {
					t.Errorf("%s->%s: same-scheme migration should error", from, to)
				}
				continue
			}
			got, err := Migrate(direct[from], vocab, to, opts)
			if err != nil {
				t.Fatalf("%s->%s: %v", from, to, err)
			}
			want := direct[to]
			if fmt.Sprint(quadSet(got.All())) != fmt.Sprint(quadSet(want.All())) {
				t.Errorf("%s->%s: migrated dataset differs from direct conversion (%d vs %d quads)",
					from, to, got.Len(), want.Len())
			}
		}
	}
}

// TestMigratedStoreAnswersQueries loads a migrated dataset and checks
// the scheme-specific query formulation works against it.
func TestMigratedStoreAnswersQueries(t *testing.T) {
	g := figure1(t)
	vocab := DefaultVocabulary()
	spDS := NewConverter(SP).Convert(g)
	ngDS, err := Migrate(spDS, vocab, NG, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(NG)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPartitioned(st, ngDS, "pg"); err != nil {
		t.Fatal(err)
	}
	qb := NewQueryBuilder(NG)
	q := qb.Select([]string{"x", "yr"}, qb.EdgeBoundKVPattern("x", "y", "e", "follows", "since", "yr"))
	res, err := sparql.NewEngine(st).QueryContext(t.Context(), "pg", q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][1].Value != "2007" {
		t.Fatalf("migrated NG store query: %s", res)
	}
}
