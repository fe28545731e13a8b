package store_test

// Binary snapshot test suite (ISSUE 9): the binary-vs-text restore
// differential across every index config × conversion scheme, a
// corruption matrix over every byte and every truncation point
// (mirroring the torn-WAL corpus approach), and the satellite
// regressions — snapshot atomicity under concurrent writers, >16 MiB
// literals through Restore, and adversarial directive names.

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
	"repro/internal/twitter"
)

func binarySnapshotOf(t *testing.T, st *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.View().SnapshotBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinarySnapshotDifferential is the binary-vs-text differential:
// for every index config × RF/NG/SP scheme, restoring the binary
// snapshot must re-produce the text snapshot byte for byte (the crash
// differential's oracle), and re-encoding must be a binary fixed point.
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

				text := snapshotOf(t, st)
				bin := binarySnapshotOf(t, st)
				if !store.IsBinarySnapshot(bin) {
					t.Fatal("binary snapshot does not carry the magic")
				}
				r, err := store.RestoreBinary(bin)
				if err != nil {
					t.Fatal(err)
				}
				if got := snapshotOf(t, r); !bytes.Equal(got, text) {
					t.Fatalf("text snapshot after binary round trip diverges (%d vs %d bytes)", len(got), len(text))
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
				// RestoreAny must sniff both formats.
				ra, err := store.RestoreAny(bytes.NewReader(bin))
				if err != nil || ra.Len() != st.Len() {
					t.Fatalf("RestoreAny(binary): %v, %d quads", err, ra.Len())
				}
				rt, err := store.RestoreAny(bytes.NewReader(text))
				if err != nil || rt.Len() != st.Len() {
					t.Fatalf("RestoreAny(text): %v", err)
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
	if _, err := store.RestoreBinary([]byte("# pgrdf-snapshot v1\n")); !errors.Is(err, store.ErrNotBinarySnapshot) {
		t.Fatalf("text input: err = %v, want ErrNotBinarySnapshot", err)
	}
}

// TestSnapshotAtomicUnderConcurrentWriter is the ISSUE 9 atomicity
// regression (run under -race): while a writer streams globally
// sequenced inserts across two models, every Snapshot must capture a
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

	dumps := []struct {
		name string
		dump func() (*store.Store, error)
	}{
		{"text", func() (*store.Store, error) {
			var buf bytes.Buffer
			if err := st.View().Snapshot(&buf); err != nil {
				return nil, err
			}
			return store.Restore(&buf)
		}},
		{"binary", func() (*store.Store, error) {
			var buf bytes.Buffer
			if err := st.View().SnapshotBinary(&buf); err != nil {
				return nil, err
			}
			return store.RestoreBinary(buf.Bytes())
		}},
	}
	// Formats interleave inside one loop so both race against the live
	// writer rather than one format getting a drained store.
	for iter := 0; iter < 20; iter++ {
		for _, d := range dumps {
			fmtName, dump := d.name, d.dump
			r, err := dump()
			if err != nil {
				t.Fatalf("%s iter %d: %v", fmtName, iter, err)
			}
			var seen []int
			for _, m := range []string{"A", "B"} {
				quads, err := r.View().Export(m)
				if err != nil {
					t.Fatalf("%s iter %d: export %s: %v", fmtName, iter, m, err)
				}
				for _, q := range quads {
					n, err := strconv.Atoi(q.O.Value)
					if err != nil {
						t.Fatalf("%s iter %d: bad literal %q", fmtName, iter, q.O.Value)
					}
					seen = append(seen, n)
				}
			}
			sort.Ints(seen)
			for i, n := range seen {
				if n != i {
					t.Fatalf("%s iter %d: snapshot is not a contiguous prefix: %d inserts but gap at %d (writer states from different times)", fmtName, iter, len(seen), i)
				}
			}
			if ids, err := r.View().ResolveDataset("V"); err != nil || len(ids) != 2 {
				t.Fatalf("%s iter %d: virtual model: %v %v", fmtName, iter, ids, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestRestoreHugeLiteral is the bufio.ErrTooLong regression: Snapshot
// happily writes a 17 MiB literal on one line, and Restore must read
// it back (the old Scanner capped lines at 16 MiB).
func TestRestoreHugeLiteral(t *testing.T) {
	huge := strings.Repeat("x", 17<<20)
	st := store.New()
	q := rdf.Quad{S: rdf.NewIRI("http://pg/v1"), P: rdf.NewIRI("http://pg/k/blob"), O: rdf.NewLiteral(huge)}
	if _, err := st.Insert("m", q); err != nil {
		t.Fatal(err)
	}
	first := snapshotOf(t, st)
	r, err := store.Restore(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("Restore with a >16MiB line: %v", err)
	}
	quads, err := r.View().Export("m")
	if err != nil || len(quads) != 1 || quads[0].O.Value != huge {
		t.Fatalf("huge literal did not round-trip (%d quads, err %v)", len(quads), err)
	}
	if second := snapshotOf(t, r); !bytes.Equal(first, second) {
		t.Fatal("snapshot not a fixed point with a huge literal")
	}
	// The binary path has no line structure at all; verify anyway.
	rb, err := store.RestoreBinary(binarySnapshotOf(t, st))
	if err != nil {
		t.Fatal(err)
	}
	if quads, _ := rb.View().Export("m"); len(quads) != 1 || quads[0].O.Value != huge {
		t.Fatal("huge literal did not survive the binary round trip")
	}
}

// adversarialNames are model/virtual names that collide with the text
// snapshot's directive grammar: separators, comment lead-ins, escapes,
// whitespace (which Restore trims) and raw newlines.
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
	" nbsp",
	"comma,and = equals,#hash",
}

// TestSnapshotAdversarialNames is the directive-escaping regression: a
// model or virtual name containing the grammar's metacharacters must
// round-trip exactly instead of silently mis-restoring.
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

	for fmtName, trip := range map[string]func() (*store.Store, error){
		"text": func() (*store.Store, error) {
			var buf bytes.Buffer
			if err := st.View().Snapshot(&buf); err != nil {
				return nil, err
			}
			return store.Restore(&buf)
		},
		"binary": func() (*store.Store, error) {
			var buf bytes.Buffer
			if err := st.View().SnapshotBinary(&buf); err != nil {
				return nil, err
			}
			return store.RestoreBinary(buf.Bytes())
		},
	} {
		r, err := trip()
		if err != nil {
			t.Fatalf("%s: %v", fmtName, err)
		}
		if !reflect.DeepEqual(r.View().Models(), st.View().Models()) {
			t.Fatalf("%s: models %q != %q", fmtName, r.View().Models(), st.View().Models())
		}
		for i, name := range adversarialNames {
			quads, err := r.View().Export(name)
			if err != nil || len(quads) != 1 || quads[0].O.Value != name {
				t.Fatalf("%s: model %q did not round-trip: %v %v", fmtName, name, quads, err)
			}
			want, err1 := st.View().ResolveDataset("virt:" + name)
			got, err2 := r.View().ResolveDataset("virt:" + name)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: virtual %q: %v/%v %v/%v", fmtName, "virt:"+adversarialNames[i], want, got, err1, err2)
			}
		}
		first := snapshotOf(t, st)
		if second := snapshotOf(t, r); !bytes.Equal(first, second) {
			t.Fatalf("%s: text snapshot not a fixed point over adversarial names", fmtName)
		}
	}
}
