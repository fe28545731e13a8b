package sparql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func estFixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	for i := 0; i < 2; i++ {
		if _, err := st.Insert("m", rdf.Quad{
			S: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)),
			P: rdf.NewIRI("http://pg/k/rare"),
			O: rdf.NewLiteral(fmt.Sprintf("r%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := st.Insert("m", rdf.Quad{
			S: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)),
			P: rdf.NewIRI("http://pg/k/common"),
			O: rdf.NewLiteral(fmt.Sprintf("c%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func predPattern(st *store.Store, pred string) store.Pattern {
	p := store.AnyPattern()
	p.P = st.Dict().Lookup(rdf.NewIRI(pred))
	return p
}

func TestEstCacheInvalidatesOnStoreVersion(t *testing.T) {
	st := estFixture(t)
	var c estCache
	p := predPattern(st, "http://pg/k/rare")
	if got := c.estimate(st.View(), p); got != st.View().EstimateCount(p) {
		t.Fatalf("first estimate = %d, want %d", got, st.View().EstimateCount(p))
	}
	before := c.estimate(st.View(), p)

	// A successful mutation bumps Store.Version; the cached generation
	// must be discarded, not served stale.
	if _, err := st.Insert("m", rdf.Quad{
		S: rdf.NewIRI("http://pg/v9"), P: rdf.NewIRI("http://pg/k/rare"), O: rdf.NewLiteral("r9")}); err != nil {
		t.Fatal(err)
	}
	after := c.estimate(st.View(), p)
	if after == before {
		t.Fatalf("estimate stayed %d across an insert; cache not invalidated", before)
	}
	if want := st.View().EstimateCount(p); after != want {
		t.Fatalf("post-insert estimate = %d, want %d", after, want)
	}

	// A failed mutation (duplicate insert) must not have bumped anything:
	// the cache may keep serving the same generation.
	v := st.View().Version
	if added, err := st.Insert("m", rdf.Quad{
		S: rdf.NewIRI("http://pg/v9"), P: rdf.NewIRI("http://pg/k/rare"), O: rdf.NewLiteral("r9")}); err != nil || added {
		t.Fatalf("duplicate insert: added=%v err=%v", added, err)
	}
	if st.View().Version != v {
		t.Fatal("no-op insert bumped the store version")
	}
}

func TestEstCacheWholesaleDropAtLimit(t *testing.T) {
	st := estFixture(t)
	var c estCache
	for i := 0; i < estCacheLimit; i++ {
		p := store.AnyPattern()
		p.S = store.ID(i + 1000)
		c.estimate(st.View(), p)
	}
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	if n != estCacheLimit {
		t.Fatalf("cache holds %d entries, want %d", n, estCacheLimit)
	}
	// One more estimate crosses the limit: the map is dropped wholesale
	// and restarted with just the new entry.
	c.estimate(st.View(), store.AnyPattern())
	c.mu.Lock()
	n = len(c.m)
	c.mu.Unlock()
	if n != 1 {
		t.Fatalf("cache holds %d entries after the wholesale drop, want 1", n)
	}
}

// TestPlanReordersAfterBulkInsert is the ISSUE 5 satellite regression:
// the greedy join-order optimizer reads cardinality estimates through a
// per-engine cache, and a successful Update must invalidate it so the
// next plan sees the skewed selectivities.
func TestPlanReordersAfterBulkInsert(t *testing.T) {
	st := estFixture(t)
	e := NewEngine(st)
	const q = `SELECT ?s WHERE { ?s <http://pg/k/rare> ?a . ?s <http://pg/k/common> ?b }`

	order := func() (rare, common int) {
		t.Helper()
		plan, err := e.Explain("m", q)
		if err != nil {
			t.Fatal(err)
		}
		rare = strings.Index(plan, "k/rare")
		common = strings.Index(plan, "k/common")
		if rare < 0 || common < 0 {
			t.Fatalf("plan lacks the patterns:\n%s", plan)
		}
		return rare, common
	}

	// 2 rare vs 8 common rows: rare leads. This Explain also primes the
	// estimate cache, which is the point of the regression.
	if r, c := order(); r > c {
		t.Fatal("selective pattern not ordered first before the bulk insert")
	}

	var ins strings.Builder
	ins.WriteString("INSERT DATA {\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&ins, "<http://pg/bulk%d> <http://pg/k/rare> \"b%d\" .\n", i, i)
	}
	ins.WriteString("}")
	if res, err := e.Update("m", ins.String()); err != nil || res.Inserted != 100 {
		t.Fatalf("bulk insert: %+v, %v", res, err)
	}

	// Now 102 rare vs 8 common rows: the plan must flip. With a stale
	// estimate cache it would not.
	if r, c := order(); r < c {
		t.Fatal("plan did not re-order after a bulk insert skewed selectivities")
	}
}
