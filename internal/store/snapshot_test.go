package store

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rdf"
)

func snapshotFixture(t *testing.T) *Store {
	t.Helper()
	s, err := NewWithIndexes([]string{"PCSGM", "PSCGM", "GSPCM"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("topo", []rdf.Quad{
		quad("v1", "follows", "v2", "e3"),
		quad("v2", "follows", "v3", "e4"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("kv", []rdf.Quad{
		{S: iri("v1"), P: iri("name"), O: rdf.NewLiteral("Amy")},
		{S: iri("v1"), P: iri("age"), O: rdf.NewInt(23)},
	}); err != nil {
		t.Fatal(err)
	}
	s.Model("emptymodel")
	if err := s.CreateVirtualModel("all", "topo", "kv"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := snapshotFixture(t)
	var buf bytes.Buffer
	if err := s.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# pgrdf-snapshot v1\n") {
		t.Errorf("missing header:\n%s", buf.String()[:60])
	}

	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.View().Indexes(), s.View().Indexes()) {
		t.Errorf("indexes: %v vs %v", r.View().Indexes(), s.View().Indexes())
	}
	if !reflect.DeepEqual(r.View().Models(), s.View().Models()) {
		t.Errorf("models: %v vs %v", r.View().Models(), s.View().Models())
	}
	for _, m := range s.View().Models() {
		want, _ := s.View().Export(m)
		got, err := r.View().Export(m)
		if err != nil {
			t.Fatalf("export %s: %v", m, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("model %s differs: %v vs %v", m, got, want)
		}
	}
	// Virtual model survives.
	ids, err := r.View().ResolveDataset("all")
	if err != nil || len(ids) != 2 {
		t.Errorf("virtual model: %v, %v", ids, err)
	}
}

func TestRestorePlainNQuads(t *testing.T) {
	input := `<http://x/a> <http://x/p> <http://x/b> .
<http://x/a> <http://x/p> "lit" <http://x/g> .`
	st, err := Restore(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("quads = %d", st.Len())
	}
	if st.View().LookupModel("data") == NoID {
		t.Error("plain N-Quads should restore into model \"data\"")
	}
	if !reflect.DeepEqual(st.View().Indexes(), DefaultIndexes) {
		t.Errorf("indexes = %v", st.View().Indexes())
	}
}

func TestRestoreErrors(t *testing.T) {
	cases := []string{
		"# model m\nbogus line\n",
		"# virtual broken\n", // malformed directive
		"# model m\n<http://a> <http://p> <http://o> .\n# indexes PCSGM\n", // late indexes
		"# virtual v = missing\n# model m\n<http://a> <http://p> <http://o> .\n",
	}
	for _, src := range cases {
		if _, err := Restore(strings.NewReader(src)); err == nil {
			t.Errorf("accepted invalid snapshot: %q", src)
		}
	}
}

func TestSnapshotLargeRoundTrip(t *testing.T) {
	s := New()
	var quads []rdf.Quad
	for i := 0; i < 3000; i++ {
		quads = append(quads, quad(fmt.Sprintf("s%d", i%100), fmt.Sprintf("p%d", i%7), fmt.Sprintf("o%d", i), fmt.Sprintf("g%d", i%11)))
	}
	s.Load("big", quads)
	var buf bytes.Buffer
	if err := s.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != s.Len() {
		t.Fatalf("restored %d of %d quads", r.Len(), s.Len())
	}
}
