package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

func quad(s, p, o, g string) rdf.Quad {
	q := rdf.Quad{S: iri(s), P: iri(p), O: iri(o)}
	if g != "" {
		q.G = iri(g)
	}
	return q
}

func TestDictInternLookup(t *testing.T) {
	d := NewDict()
	a := d.Intern(rdf.NewIRI("http://a"))
	b := d.Intern(rdf.NewLiteral("a"))
	if a == b {
		t.Fatal("distinct terms got same ID")
	}
	if d.Intern(rdf.NewIRI("http://a")) != a {
		t.Error("re-intern changed ID")
	}
	if d.Lookup(rdf.NewIRI("http://a")) != a {
		t.Error("lookup mismatch")
	}
	if d.Lookup(rdf.NewIRI("http://missing")) != NoID {
		t.Error("missing term should be NoID")
	}
	if !d.Term(a).Equal(rdf.NewIRI("http://a")) {
		t.Error("Term round-trip failed")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if d.LexicalBytes() <= 0 {
		t.Error("LexicalBytes should be positive")
	}
}

func TestDictTermPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Term(NoID) should panic")
		}
	}()
	NewDict().Term(NoID)
}

func TestParsePermutation(t *testing.T) {
	for _, ok := range []string{"PCSGM", "PSCGM", "GSPCM", "GPCSM", "SPCGM", "SCPGM", "MGCPS"} {
		p, err := ParsePermutation(ok)
		if err != nil {
			t.Errorf("ParsePermutation(%q): %v", ok, err)
		}
		if p.String() != ok {
			t.Errorf("round-trip %q -> %q", ok, p.String())
		}
	}
	for _, bad := range []string{"", "PCS", "PPSGM", "PCSGX", "PCSGMM"} {
		if _, err := ParsePermutation(bad); err == nil {
			t.Errorf("ParsePermutation(%q) should fail", bad)
		}
	}
}

func TestLoadAndScan(t *testing.T) {
	s := New()
	n, err := s.Load("m1", []rdf.Quad{
		quad("v1", "follows", "v2", "e3"),
		quad("v1", "knows", "v2", "e4"),
		quad("v2", "follows", "v3", "e5"),
	})
	if err != nil || n != 3 {
		t.Fatalf("Load = %d, %v", n, err)
	}
	// Pattern bound on P.
	p := AnyPattern()
	p.P = s.Dict().Lookup(iri("follows"))
	var got []rdf.Quad
	s.Scan(p, func(q IDQuad) bool {
		got = append(got, s.dict.Quad(q))
		return true
	})
	if len(got) != 2 {
		t.Fatalf("P-scan got %d rows", len(got))
	}
	if !s.View().Contains("m1", quad("v1", "follows", "v2", "e3")) {
		t.Error("Contains false for loaded quad")
	}
	if s.View().Contains("m1", quad("v1", "follows", "v2", "")) {
		t.Error("Contains true for same triple in default graph")
	}
}

func TestLoadDeduplicates(t *testing.T) {
	s := New()
	q := quad("a", "p", "b", "")
	n, err := s.Load("m", []rdf.Quad{q, q, q})
	if err != nil || n != 1 {
		t.Fatalf("Load dedup within batch = %d, %v", n, err)
	}
	n, err = s.Load("m", []rdf.Quad{q})
	if err != nil || n != 0 {
		t.Fatalf("Load dedup across batches = %d, %v", n, err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	s := New()
	bad := rdf.Quad{S: rdf.NewLiteral("x"), P: iri("p"), O: iri("o")}
	if _, err := s.Load("m", []rdf.Quad{bad}); err == nil {
		t.Error("invalid quad loaded")
	}
}

func TestInsertDelete(t *testing.T) {
	s := New()
	q := quad("a", "p", "b", "")
	if ok, err := s.Insert("m", q); !ok || err != nil {
		t.Fatalf("Insert = %v, %v", ok, err)
	}
	if ok, _ := s.Insert("m", q); ok {
		t.Error("duplicate insert reported true")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if ok, err := s.Delete("m", q); !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if ok, _ := s.Delete("m", q); ok {
		t.Error("double delete reported true")
	}
	if s.Len() != 0 {
		t.Errorf("Len after delete = %d", s.Len())
	}
	if s.View().Contains("m", q) {
		t.Error("deleted quad still present")
	}
	// Reinsert after delete (exercises tombstone resurrection).
	if ok, _ := s.Insert("m", q); !ok {
		t.Error("reinsert after delete failed")
	}
	s.Compact()
	if !s.View().Contains("m", q) {
		t.Error("quad lost after compaction")
	}
}

func TestDeleteBaseRowThenCompact(t *testing.T) {
	s := New()
	quads := []rdf.Quad{quad("a", "p", "b", ""), quad("a", "p", "c", "")}
	if _, err := s.Load("m", quads); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Delete("m", quads[0]); !ok {
		t.Fatal("delete of base row failed")
	}
	if s.View().Contains("m", quads[0]) {
		t.Error("tombstoned row still visible")
	}
	s.Compact()
	if s.View().Contains("m", quads[0]) || !s.View().Contains("m", quads[1]) {
		t.Error("compaction applied tombstones incorrectly")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestModelsAndVirtualModels(t *testing.T) {
	s := New()
	s.Load("topo", []rdf.Quad{quad("a", "p", "b", "")})
	s.Load("kv", []rdf.Quad{quad("a", "name", "b", "")})
	if err := s.CreateVirtualModel("all", "topo", "kv"); err != nil {
		t.Fatal(err)
	}
	ids, err := s.View().ResolveDataset("all")
	if err != nil || len(ids) != 2 {
		t.Fatalf("ResolveDataset(all) = %v, %v", ids, err)
	}
	// Nested virtual model, with dedup.
	if err := s.CreateVirtualModel("all2", "all", "topo"); err != nil {
		t.Fatal(err)
	}
	ids, _ = s.View().ResolveDataset("all2")
	if len(ids) != 2 {
		t.Errorf("nested virtual model ids = %v", ids)
	}
	if err := s.CreateVirtualModel("bad", "missing"); err == nil {
		t.Error("virtual model over unknown member accepted")
	}
	if err := s.CreateVirtualModel("topo", "kv"); err == nil {
		t.Error("virtual model may not shadow a semantic model")
	}
	if err := s.CreateVirtualModel("empty"); err == nil {
		t.Error("empty virtual model accepted")
	}
	if _, err := s.View().ResolveDataset("missing"); err == nil {
		t.Error("unknown dataset resolved")
	}
	all, err := s.View().ResolveDataset("")
	if err != nil || len(all) != 2 {
		t.Errorf("ResolveDataset(\"\") = %v, %v", all, err)
	}
	if s.View().ModelName(s.View().LookupModel("topo")) != "topo" {
		t.Error("ModelName round-trip failed")
	}
	if got := s.View().Models(); len(got) != 2 || got[0] != "topo" {
		t.Errorf("Models() = %v", got)
	}
}

func TestCreateDropIndex(t *testing.T) {
	s := New()
	s.Load("m", []rdf.Quad{quad("a", "p", "b", "g"), quad("c", "p", "d", "g2")})
	if err := s.CreateIndex("GSPCM"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("GSPCM"); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := s.CreateIndex("XXXXX"); err == nil {
		t.Error("bad spec accepted")
	}
	// New index must see pre-existing rows.
	g := s.Dict().Lookup(iri("g"))
	p := AnyPattern()
	p.G = g
	n := 0
	if err := s.View().ScanIndex("GSPCM", p, func(IDQuad) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("GSPCM scan found %d rows, want 1", n)
	}

	// Several specs land in one published version, each over the rows
	// already loaded and those still in the delta.
	if _, err := s.Insert("m", quad("e", "p", "f", "g")); err != nil {
		t.Fatal(err)
	}
	before, published := s.View(), s.published.Load()
	if err := s.CreateIndex("SPCGM", "GPSCM"); err != nil {
		t.Fatal(err)
	}
	if got := s.published.Load() - published; got != 1 {
		t.Errorf("CreateIndex of two specs published %d versions, want 1", got)
	}
	if got, want := s.View().Indexes(), []string{"PCSGM", "PSCGM", "GSPCM", "SPCGM", "GPSCM"}; !slices.Equal(got, want) {
		t.Errorf("indexes %v, want %v", got, want)
	}
	if got := before.Indexes(); len(got) != 3 {
		t.Errorf("a pinned view sees indexes %v after CreateIndex", got)
	}
	for _, spec := range []string{"SPCGM", "GPSCM"} {
		n := 0
		if err := s.View().ScanIndex(spec, p, func(IDQuad) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Errorf("%s scan of graph g found %d rows, want 2", spec, n)
		}
	}

	// A duplicate or bad spec among several refuses them all.
	for _, specs := range [][]string{
		{"CSPGM", "GSPCM"},
		{"CSPGM", "CSPGM"},
		{"CSPGM", "XXXXX"},
		{"XXXXX", "CSPGM"},
	} {
		published := s.published.Load()
		if err := s.CreateIndex(specs...); err == nil {
			t.Errorf("CreateIndex%v accepted", specs)
		}
		if got := s.View().Indexes(); len(got) != 5 || s.published.Load() != published {
			t.Errorf("refused CreateIndex%v left indexes %v", specs, got)
		}
	}
}

func TestChooseIndexPrefersLongestPrefix(t *testing.T) {
	s, err := NewWithIndexes([]string{"PCSGM", "PSCGM", "GSPCM", "SPCGM"})
	if err != nil {
		t.Fatal(err)
	}
	var quads []rdf.Quad
	for i := 0; i < 100; i++ {
		quads = append(quads, quad(fmt.Sprintf("s%d", i%10), fmt.Sprintf("p%d", i%3), fmt.Sprintf("o%d", i), fmt.Sprintf("g%d", i)))
	}
	s.Load("m", quads)

	lookup := func(name string) ID { return s.Dict().Lookup(iri(name)) }

	p := AnyPattern()
	p.P = lookup("p0")
	p.C = lookup("o0")
	if got := s.View().ChooseIndex(p).Perm().String(); got != "PCSGM" {
		t.Errorf("P+C bound chose %s, want PCSGM", got)
	}
	p = AnyPattern()
	p.P = lookup("p0")
	p.S = lookup("s0")
	if got := s.View().ChooseIndex(p).Perm().String(); got != "PSCGM" && got != "SPCGM" {
		t.Errorf("P+S bound chose %s", got)
	}
	p = AnyPattern()
	p.G = lookup("g5")
	if got := s.View().ChooseIndex(p).Perm().String(); got != "GSPCM" {
		t.Errorf("G bound chose %s, want GSPCM", got)
	}
	p = AnyPattern()
	p.S = lookup("s1")
	if got := s.View().ChooseIndex(p).Perm().String(); got != "SPCGM" {
		t.Errorf("S bound chose %s, want SPCGM", got)
	}
}

func TestIndexStatsCounters(t *testing.T) {
	s := New()
	s.Load("m", []rdf.Quad{quad("a", "p", "b", "")})
	p := AnyPattern()
	p.P = s.Dict().Lookup(iri("p"))
	s.Scan(p, func(IDQuad) bool { return true })
	s.Scan(AnyPattern(), func(IDQuad) bool { return true })
	var ranges, fulls int64
	for _, st := range s.IndexStatsSnapshot() {
		ranges += st.RangeScans
		fulls += st.FullScans
	}
	if ranges != 1 || fulls != 1 {
		t.Errorf("range=%d full=%d, want 1,1", ranges, fulls)
	}
	s.ResetIndexStats()
	for _, st := range s.IndexStatsSnapshot() {
		if st.RangeScans != 0 || st.FullScans != 0 {
			t.Error("stats not reset")
		}
	}
}

func TestStats(t *testing.T) {
	s := New()
	s.Load("m1", []rdf.Quad{
		quad("v1", "follows", "v2", "e3"),
		quad("v1", "knows", "v2", "e4"),
	})
	s.Load("m2", []rdf.Quad{
		{S: iri("v1"), P: iri("name"), O: rdf.NewLiteral("Amy")},
	})
	st, err := s.View().Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := DatasetStats{Quads: 3, Subjects: 1, Predicates: 3, Objects: 2, NamedGraphs: 2}
	if st != want {
		t.Errorf("Stats() = %+v, want %+v", st, want)
	}
	st, _ = s.View().Stats("m2")
	if st.Quads != 1 || st.NamedGraphs != 0 {
		t.Errorf("Stats(m2) = %+v", st)
	}
	if _, err := s.View().Stats("nope"); err == nil {
		t.Error("Stats over unknown model succeeded")
	}
}

func TestStorageReport(t *testing.T) {
	s := New()
	var quads []rdf.Quad
	for i := 0; i < 500; i++ {
		quads = append(quads, quad(fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%2), fmt.Sprintf("o%d", i), fmt.Sprintf("g%d", i)))
	}
	s.Load("m", quads)
	s.CreateIndex("GSPCM")
	rep := s.View().Storage()
	if rep.Total <= 0 {
		t.Fatal("empty storage report")
	}
	var pcsgm, gspcm int64
	for _, o := range rep.Objects {
		switch o.Name {
		case "PCSGM Index":
			pcsgm = o.Bytes
		case "GSPCM Index":
			gspcm = o.Bytes
		}
	}
	if pcsgm == 0 || gspcm == 0 {
		t.Fatalf("missing index objects: %+v", rep.Objects)
	}
	// P has 2 distinct values over 500 rows, G is unique per row: prefix
	// compression must make PCSGM smaller than GSPCM (the Table 9 effect).
	if pcsgm >= gspcm {
		t.Errorf("PCSGM (%d) should compress better than GSPCM (%d)", pcsgm, gspcm)
	}
	if rep.MB("Triples Table") <= 0 || rep.TotalMB() <= 0 {
		t.Error("MB accessors broken")
	}
	if rep.MB("Nope") != 0 {
		t.Error("MB of unknown object should be 0")
	}
}

func TestExportDeterministic(t *testing.T) {
	s := New()
	in := []rdf.Quad{
		quad("b", "p", "c", ""),
		quad("a", "p", "b", "g1"),
		{S: iri("a"), P: iri("name"), O: rdf.NewLiteral("x")},
	}
	s.Load("m", in)
	got, err := s.View().Export("m")
	if err != nil || len(got) != 3 {
		t.Fatalf("Export = %d quads, %v", len(got), err)
	}
	for i := 1; i < len(got); i++ {
		if rdf.CompareQuads(got[i-1], got[i]) >= 0 {
			t.Error("export not sorted")
		}
	}
	if _, err := s.View().Export("missing"); err == nil {
		t.Error("export of unknown model succeeded")
	}
}

// TestScanMatchesNaive is invariant 4: for random data and random
// patterns, every index returns exactly the rows a naive filter over the
// full quad set returns — across interleaved loads, inserts and deletes.
func TestScanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := []string{"PCSGM", "PSCGM", "GSPCM", "GPCSM", "SPCGM", "SCPGM"}
	s, err := NewWithIndexes(specs)
	if err != nil {
		t.Fatal(err)
	}
	mirror := make(map[rdf.Quad]bool) // model m only
	randQuad := func() rdf.Quad {
		g := ""
		if rng.Intn(2) == 0 {
			g = fmt.Sprintf("g%d", rng.Intn(5))
		}
		return quad(
			fmt.Sprintf("s%d", rng.Intn(8)),
			fmt.Sprintf("p%d", rng.Intn(4)),
			fmt.Sprintf("o%d", rng.Intn(8)),
			g)
	}
	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0: // bulk load a small batch
			batch := make([]rdf.Quad, rng.Intn(20))
			for i := range batch {
				batch[i] = randQuad()
				mirror[batch[i]] = true
			}
			if _, err := s.Load("m", batch); err != nil {
				t.Fatal(err)
			}
		case 1, 2: // delete
			q := randQuad()
			ok, err := s.Delete("m", q)
			if err != nil {
				t.Fatal(err)
			}
			if ok != mirror[q] {
				t.Fatalf("step %d: Delete(%v) = %v, mirror says %v", step, q, ok, mirror[q])
			}
			delete(mirror, q)
		case 3: // explicit compaction
			s.Compact()
		default: // insert
			q := randQuad()
			ok, err := s.Insert("m", q)
			if err != nil {
				t.Fatal(err)
			}
			if ok == mirror[q] {
				t.Fatalf("step %d: Insert(%v) = %v but mirror already %v", step, q, ok, mirror[q])
			}
			mirror[q] = true
		}

		if step%20 != 19 {
			continue
		}
		// Random pattern: bind each position with 50% probability.
		pat := AnyPattern()
		var want []rdf.Quad
		bindTerm := func(name string) ID {
			return s.Dict().Lookup(iri(name))
		}
		var sB, pB, oB, gB string
		if rng.Intn(2) == 0 {
			sB = fmt.Sprintf("s%d", rng.Intn(8))
			pat.S = bindTerm(sB)
		}
		if rng.Intn(2) == 0 {
			pB = fmt.Sprintf("p%d", rng.Intn(4))
			pat.P = bindTerm(pB)
		}
		if rng.Intn(2) == 0 {
			oB = fmt.Sprintf("o%d", rng.Intn(8))
			pat.C = bindTerm(oB)
		}
		if rng.Intn(2) == 0 {
			gB = fmt.Sprintf("g%d", rng.Intn(5))
			pat.G = bindTerm(gB)
		}
		for q := range mirror {
			if sB != "" && !q.S.Equal(iri(sB)) {
				continue
			}
			if pB != "" && !q.P.Equal(iri(pB)) {
				continue
			}
			if oB != "" && !q.O.Equal(iri(oB)) {
				continue
			}
			if gB != "" && !q.G.Equal(iri(gB)) {
				continue
			}
			want = append(want, q)
		}
		for _, spec := range specs {
			var got []rdf.Quad
			if err := s.View().ScanIndex(spec, pat, func(q IDQuad) bool {
				got = append(got, s.dict.Quad(q))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("step %d index %s: got %d rows, want %d (pattern s=%q p=%q o=%q g=%q)",
					step, spec, len(got), len(want), sB, pB, oB, gB)
			}
			gotSet := make(map[rdf.Quad]bool, len(got))
			for _, q := range got {
				if gotSet[q] {
					t.Fatalf("step %d index %s: duplicate row %v", step, spec, q)
				}
				gotSet[q] = true
			}
			for _, q := range want {
				if !gotSet[q] {
					t.Fatalf("step %d index %s: missing row %v", step, spec, q)
				}
			}
		}
	}
}

func TestEstimateCountIsUpperBound(t *testing.T) {
	s := New()
	var quads []rdf.Quad
	for i := 0; i < 200; i++ {
		quads = append(quads, quad(fmt.Sprintf("s%d", i%20), fmt.Sprintf("p%d", i%5), fmt.Sprintf("o%d", i%10), ""))
	}
	s.Load("m", quads)
	for i := 0; i < 5; i++ {
		p := AnyPattern()
		p.P = s.Dict().Lookup(iri(fmt.Sprintf("p%d", i)))
		p.C = s.Dict().Lookup(iri(fmt.Sprintf("o%d", i)))
		actual := 0
		s.Scan(p, func(IDQuad) bool { actual++; return true })
		if est := s.View().EstimateCount(p); est < actual {
			t.Errorf("estimate %d below actual %d", est, actual)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := New()
	var quads []rdf.Quad
	for i := 0; i < 50; i++ {
		quads = append(quads, quad(fmt.Sprintf("s%d", i), "p", "o", ""))
	}
	s.Load("m", quads)
	n := 0
	s.Scan(AnyPattern(), func(IDQuad) bool { n++; return n < 7 })
	if n != 7 {
		t.Errorf("early stop visited %d rows", n)
	}
}
