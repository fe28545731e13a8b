package store_test

// Snapshot test suite: the round-trip differential across every index
// config × conversion scheme, a corruption matrix over every byte and
// every truncation point (mirroring the torn-WAL corpus approach), and
// the regressions — snapshot atomicity under concurrent writers, >16 MiB
// literals, and adversarial model names.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/internal/twitter"
)

// indexConfigs spans single-index, the Oracle default pair, the
// NG-scheme config with a graph-leading index, and a full fan of
// permutation prefixes.
var indexConfigs = [][]string{
	{"PCSGM"},
	{"PCSGM", "PSCGM"},
	{"PCSGM", "PSCGM", "GSPCM"},
	{"SPCGM", "GSPCM"},
	{"PCSGM", "PSCGM", "SPCGM", "GSPCM", "CPSGM"},
}

// trickyQuads stresses the dictionary section: quotes, newlines,
// unicode, language tags, typed literals and blank nodes.
func trickyQuads() []rdf.Quad {
	s := rdf.NewIRI("http://pg/v1")
	return []rdf.Quad{
		{S: s, P: rdf.NewIRI("http://pg/k/bio"), O: rdf.NewLiteral("line1\nline2\t\"quoted\" \\slash")},
		{S: s, P: rdf.NewIRI("http://pg/k/name"), O: rdf.NewLangLiteral("Amélie", "fr")},
		{S: s, P: rdf.NewIRI("http://pg/k/age"), O: rdf.NewInt(23)},
		{S: s, P: rdf.NewIRI("http://pg/k/score"), O: rdf.NewDouble(1.5e-8)},
		{S: s, P: rdf.NewIRI("http://pg/k/active"), O: rdf.NewBoolean(true)},
		{S: rdf.NewBlank("b0"), P: rdf.NewIRI("http://pg/k/note"), O: rdf.NewLiteral("from a blank"), G: rdf.NewIRI("http://pg/e99")},
	}
}

func binarySnapshotOf(t *testing.T, st *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.View().SnapshotBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinarySnapshotDifferential is the round-trip differential: for
// every index config × RF/NG/SP scheme, the store restored from a
// snapshot must equal its source — same fingerprint (the crash and
// replication differentials' oracle), same indexes, same virtual
// models — and re-encoding must be a byte-level fixed point.
func TestBinarySnapshotDifferential(t *testing.T) {
	g := twitter.Generate(twitter.PaperConfig().Scale(0.002))
	for _, scheme := range pgrdf.Schemes {
		conv := pgrdf.NewConverter(scheme)
		ds := conv.Convert(g)
		for _, idx := range indexConfigs {
			t.Run(fmt.Sprintf("%s/%v", scheme, idx), func(t *testing.T) {
				st, err := store.NewWithIndexes(idx)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := pgrdf.LoadPartitioned(st, ds, "pg"); err != nil {
					t.Fatal(err)
				}
				if _, err := st.Load("tricky", trickyQuads()); err != nil {
					t.Fatal(err)
				}
				st.Model("empty")
				// Churn so the dump covers the delta buffer and
				// tombstones, not just compacted base rows.
				extra := rdf.Quad{S: rdf.NewIRI("http://pg/vX"), P: rdf.NewIRI("http://pg/k/tmp"), O: rdf.NewLiteral("gone")}
				if _, err := st.Insert("tricky", extra); err != nil {
					t.Fatal(err)
				}
				if _, err := st.Delete("tricky", extra); err != nil {
					t.Fatal(err)
				}
				keep := rdf.Quad{S: rdf.NewIRI("http://pg/vX"), P: rdf.NewIRI("http://pg/k/keep"), O: rdf.NewLiteral("stays")}
				if _, err := st.Insert("tricky", keep); err != nil {
					t.Fatal(err)
				}

				bin := binarySnapshotOf(t, st)
				if !store.IsBinarySnapshot(bin) {
					t.Fatal("binary snapshot does not carry the magic")
				}
				r, err := store.RestoreBinary(bin)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := storetest.Fingerprint(r.View()), storetest.Fingerprint(st.View()); got != want {
					t.Fatalf("fingerprint after the round trip diverges (%d vs %d bytes)", len(got), len(want))
				}
				if got := binarySnapshotOf(t, r); !bytes.Equal(got, bin) {
					t.Fatalf("binary snapshot not a fixed point (%d vs %d bytes)", len(got), len(bin))
				}
				if !reflect.DeepEqual(r.View().Indexes(), st.View().Indexes()) {
					t.Fatalf("indexes: %v vs %v", r.View().Indexes(), st.View().Indexes())
				}
				if r.Len() != st.Len() {
					t.Fatalf("restored %d of %d quads", r.Len(), st.Len())
				}
				for _, vm := range []string{"pg", "pg_topo_nodekv", "pg_topo_edgekv"} {
					want, err1 := st.View().ResolveDataset(vm)
					got, err2 := r.View().ResolveDataset(vm)
					if err1 != nil || err2 != nil || !reflect.DeepEqual(want, got) {
						t.Fatalf("virtual model %s: %v/%v, %v/%v", vm, want, got, err1, err2)
					}
				}
			})
		}
	}
}

// TestBinarySnapshotCorruptionEveryByte proves the CRC framing leaves
// no silent hole: flipping any single byte, or truncating at any
// length, must fail with a typed error — never restore quietly wrong.
func TestBinarySnapshotCorruptionEveryByte(t *testing.T) {
	st, err := store.NewWithIndexes([]string{"PCSGM", "GSPCM"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("m1", trickyQuads()); err != nil {
		t.Fatal(err)
	}
	st.Model("m2")
	if err := st.CreateVirtualModel("both", "m1", "m2"); err != nil {
		t.Fatal(err)
	}
	bin := binarySnapshotOf(t, st)

	typed := func(err error) bool {
		return errors.Is(err, store.ErrBinarySnapshotCorrupt) || errors.Is(err, store.ErrNotBinarySnapshot)
	}
	for i := range bin {
		mut := append([]byte(nil), bin...)
		mut[i] ^= 0x01
		if _, err := store.RestoreBinary(mut); !typed(err) {
			t.Fatalf("flip at byte %d: err = %v, want a typed corruption error", i, err)
		}
	}
	for n := 0; n < len(bin); n++ {
		if _, err := store.RestoreBinary(bin[:n]); !typed(err) {
			t.Fatalf("truncation to %d bytes: err = %v, want a typed corruption error", n, err)
		}
	}
	if _, err := store.RestoreBinary(append(append([]byte(nil), bin...), 0x00)); !errors.Is(err, store.ErrBinarySnapshotCorrupt) {
		t.Fatalf("trailing garbage: err = %v, want ErrBinarySnapshotCorrupt", err)
	}
	if _, err := store.RestoreBinary([]byte("<http://a> <http://p> <http://o> .\n")); !errors.Is(err, store.ErrNotBinarySnapshot) {
		t.Fatalf("N-Quads input: err = %v, want ErrNotBinarySnapshot", err)
	}
}

// TestSnapshotAtomicUnderConcurrentWriter is the atomicity
// regression (run under -race): while a writer streams globally
// sequenced inserts across two models, every snapshot must capture a
// contiguous global prefix — the old multi-lock dump could interleave
// models from different moments — and must restore cleanly.
func TestSnapshotAtomicUnderConcurrentWriter(t *testing.T) {
	st := store.New()
	st.Model("A")
	st.Model("B")
	if err := st.CreateVirtualModel("V", "A", "B"); err != nil {
		t.Fatal(err)
	}
	// The writer is capped: unbounded growth makes each snapshot (taken
	// under the store lock) slower, which under -race compounds into a
	// package timeout. 25k inserts keep the writer live across many
	// snapshot iterations while bounding the dump cost.
	const maxWriterInserts = 25_000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := rdf.NewIRI("http://pg/k/seq")
		for i := 0; i < maxWriterInserts; i++ {
			select {
			case <-stop:
				return
			default:
			}
			model := "A"
			if i%2 == 1 {
				model = "B"
			}
			q := rdf.Quad{S: rdf.NewIRI("http://pg/v"), P: p, O: rdf.NewLiteral(strconv.Itoa(i))}
			if _, err := st.Insert(model, q); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	}()

	for iter := 0; iter < 20; iter++ {
		r, err := store.RestoreBinary(binarySnapshotOf(t, st))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		var seen []int
		for _, m := range []string{"A", "B"} {
			quads, err := r.View().Export(m)
			if err != nil {
				t.Fatalf("iter %d: export %s: %v", iter, m, err)
			}
			for _, q := range quads {
				n, err := strconv.Atoi(q.O.Value)
				if err != nil {
					t.Fatalf("iter %d: bad literal %q", iter, q.O.Value)
				}
				seen = append(seen, n)
			}
		}
		sort.Ints(seen)
		for i, n := range seen {
			if n != i {
				t.Fatalf("iter %d: snapshot is not a contiguous prefix: %d inserts but gap at %d (writer states from different times)", iter, len(seen), i)
			}
		}
		if ids, err := r.View().ResolveDataset("V"); err != nil || len(ids) != 2 {
			t.Fatalf("iter %d: virtual model: %v %v", iter, ids, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRestoreHugeLiteral: a 17 MiB literal (past the 16 MiB line cap
// an N-Quads scanner would impose) must survive the round trip.
func TestRestoreHugeLiteral(t *testing.T) {
	huge := strings.Repeat("x", 17<<20)
	st := store.New()
	q := rdf.Quad{S: rdf.NewIRI("http://pg/v1"), P: rdf.NewIRI("http://pg/k/blob"), O: rdf.NewLiteral(huge)}
	if _, err := st.Insert("m", q); err != nil {
		t.Fatal(err)
	}
	first := binarySnapshotOf(t, st)
	r, err := store.RestoreBinary(first)
	if err != nil {
		t.Fatal(err)
	}
	quads, err := r.View().Export("m")
	if err != nil || len(quads) != 1 || quads[0].O.Value != huge {
		t.Fatalf("huge literal did not round-trip (%d quads, err %v)", len(quads), err)
	}
	if second := binarySnapshotOf(t, r); !bytes.Equal(first, second) {
		t.Fatal("snapshot not a fixed point with a huge literal")
	}
}

// adversarialNames are model/virtual names with separators, comment
// lead-ins, escapes, surrounding whitespace and raw newlines — bytes a
// line-oriented format would have to escape.
var adversarialNames = []string{
	"plain",
	"with,comma",
	"a = b",
	"#leading-hash",
	"# model evil",
	"new\nline",
	"tab\tname",
	" leading-space",
	"trailing-space ",
	"",
	"percent%20literal",
	"%2C",
	"unicode-née",
	"\u00a0nbsp",
	"comma,and = equals,#hash",
}

// TestSnapshotAdversarialNames: a model or virtual name made of any
// bytes must round-trip exactly.
func TestSnapshotAdversarialNames(t *testing.T) {
	st := store.New()
	p := rdf.NewIRI("http://pg/k/name")
	for i, name := range adversarialNames {
		q := rdf.Quad{S: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)), P: p, O: rdf.NewLiteral(name)}
		if _, err := st.Insert(name, q); err != nil {
			t.Fatalf("insert into %q: %v", name, err)
		}
	}
	for i, name := range adversarialNames {
		vname := "virt:" + name
		if err := st.CreateVirtualModel(vname, name, adversarialNames[(i+1)%len(adversarialNames)]); err != nil {
			t.Fatalf("virtual %q: %v", vname, err)
		}
	}

	r, err := store.RestoreBinary(binarySnapshotOf(t, st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.View().Models(), st.View().Models()) {
		t.Fatalf("models %q != %q", r.View().Models(), st.View().Models())
	}
	for i, name := range adversarialNames {
		quads, err := r.View().Export(name)
		if err != nil || len(quads) != 1 || quads[0].O.Value != name {
			t.Fatalf("model %q did not round-trip: %v %v", name, quads, err)
		}
		want, err1 := st.View().ResolveDataset("virt:" + name)
		got, err2 := r.View().ResolveDataset("virt:" + name)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(want, got) {
			t.Fatalf("virtual %q: %v/%v %v/%v", "virt:"+adversarialNames[i], want, got, err1, err2)
		}
	}
	if storetest.Fingerprint(r.View()) != storetest.Fingerprint(st.View()) {
		t.Fatal("fingerprint differs after the round trip over adversarial names")
	}
}
