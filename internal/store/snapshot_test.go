package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rdf"
)

func snapshotFixture(t testing.TB) *Store {
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

func snapshotBinary(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.View().SnapshotBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := snapshotFixture(t)
	bin := snapshotBinary(t, s)
	r, err := RestoreBinary(bin)
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
	// The restored store takes writes like any other.
	if _, err := r.Insert("emptymodel", quad("v9", "follows", "v1", "")); err != nil {
		t.Fatal(err)
	}
	if r.Len() != s.Len()+1 {
		t.Errorf("after insert: %d quads, want %d", r.Len(), s.Len()+1)
	}
}

func TestSnapshotLargeRoundTrip(t *testing.T) {
	s := New()
	var quads []rdf.Quad
	for i := 0; i < 3000; i++ {
		quads = append(quads, quad(fmt.Sprintf("s%d", i%100), fmt.Sprintf("p%d", i%7), fmt.Sprintf("o%d", i), fmt.Sprintf("g%d", i%11)))
	}
	if _, err := s.Load("big", quads); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreBinary(snapshotBinary(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != s.Len() {
		t.Fatalf("restored %d of %d quads", r.Len(), s.Len())
	}
	want, _ := s.View().Export("big")
	got, _ := r.View().Export("big")
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored model differs from its source")
	}
}

// reframe re-encodes sections as a snapshot whose every section CRC,
// section count and whole-file CRC are valid, so RestoreBinary gets past
// the framing and must catch the damage in the contents.
func reframe(sections []binSection) []byte {
	out := []byte(binMagic)
	frame := func(typ byte, payload []byte) {
		start := len(out)
		out = append(out, typ)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[start:], crcTable))
	}
	for _, sec := range sections {
		frame(sec.typ, sec.payload)
	}
	fileCRC := crc32.Checksum(out, crcTable)
	trailer := binary.AppendUvarint(nil, uint64(len(sections)))
	frame(secTrailer, binary.LittleEndian.AppendUint32(trailer, fileCRC))
	return out
}

// restoreEdit is one edit of a snapshot's sections that leaves its
// framing intact but its contents inconsistent: RestoreBinary must fail
// with ErrBinarySnapshotCorrupt about want.
type restoreEdit struct {
	name string
	want string // in the error message
	edit func(secs []binSection) []binSection
}

// restoreEdits returns TestRestoreErrors' edits of snapshotFixture's
// sections, whose header is hdr. An edit may change the slice it is
// given, not the payloads it shares.
func restoreEdits(t testing.TB, hdr binHeader) []restoreEdit {
	find := func(secs []binSection, typ byte) int {
		for i, sec := range secs {
			if sec.typ == typ {
				return i
			}
		}
		t.Fatalf("no section of type %d", typ)
		return -1
	}
	header := func(fields ...uint64) []byte {
		var p []byte
		for _, f := range fields {
			p = binary.AppendUvarint(p, f)
		}
		return p
	}
	return []restoreEdit{
		{name: "first section not the header", want: "first section is not the header", edit: func(secs []binSection) []binSection {
			secs[0], secs[1] = secs[1], secs[0]
			return secs
		}},
		{name: "newer format version", want: "format version", edit: func(secs []binSection) []binSection {
			secs[0].payload = header(binVersion+1, hdr.quads, hdr.terms, hdr.models, hdr.virtuals, hdr.indexes)
			return secs
		}},
		{name: "unknown section type", want: "unknown section type", edit: func(secs []binSection) []binSection {
			return append(secs, binSection{typ: 9, payload: []byte("x")})
		}},
		{name: "missing model section", want: "missing dict, model or virtual-model section", edit: func(secs []binSection) []binSection {
			i := find(secs, secModels)
			return append(secs[:i], secs[i+1:]...)
		}},
		{name: "duplicate index section", want: "duplicate index section", edit: func(secs []binSection) []binSection {
			secs = append(secs, secs[find(secs, secIndex)])
			secs[0].payload = header(binVersion, hdr.quads, hdr.terms, hdr.models, hdr.virtuals, hdr.indexes+1)
			return secs
		}},
		{name: "index rows disagree with the header", want: "rows, header declares", edit: func(secs []binSection) []binSection {
			secs[0].payload = header(binVersion, hdr.quads+1, hdr.terms, hdr.models, hdr.virtuals, hdr.indexes)
			return secs
		}},
		{name: "index rows out of order", want: "out of order", edit: func(secs []binSection) []binSection {
			i := find(secs, secIndex)
			p := append([]byte(nil), secs[i].payload...)
			_, n := binary.Uvarint(p[numCols:])
			rows := p[int(numCols)+n:]
			// Every ID in the fixture fits one varint byte, so a row is
			// exactly numCols bytes: swap the first two rows.
			a := append([]byte(nil), rows[:numCols]...)
			copy(rows[:numCols], rows[numCols:2*numCols])
			copy(rows[numCols:2*numCols], a)
			secs[i].payload = p
			return secs
		}},
		{name: "duplicate model name", want: "duplicate model name", edit: func(secs []binSection) []binSection {
			var p []byte
			for _, name := range []string{"topo", "kv", "topo"} {
				p = binary.AppendUvarint(p, uint64(len(name)))
				p = append(p, name...)
			}
			secs[find(secs, secModels)].payload = p
			return secs
		}},
		{name: "virtual member out of range", want: "out of range", edit: func(secs []binSection) []binSection {
			p := binary.AppendUvarint(nil, uint64(len("all")))
			p = append(p, "all"...)
			p = binary.AppendUvarint(p, 1)
			p = binary.AppendUvarint(p, hdr.models+1)
			secs[find(secs, secVirtual)].payload = p
			return secs
		}},
		{name: "virtual collides with a model name", want: "collides with a model name", edit: func(secs []binSection) []binSection {
			p := binary.AppendUvarint(nil, uint64(len("kv")))
			p = append(p, "kv"...)
			p = binary.AppendUvarint(p, 1)
			p = binary.AppendUvarint(p, 1)
			secs[find(secs, secVirtual)].payload = p
			return secs
		}},
	}
}

// fixtureSections returns snapshotFixture's snapshot as sections, and
// its header.
func fixtureSections(t testing.TB) ([]binSection, binHeader) {
	t.Helper()
	sections, err := parseSections(snapshotBinary(t, snapshotFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := decodeHeader(sections[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	return sections, hdr
}

// TestRestoreErrors: a snapshot whose framing and CRCs are intact but
// whose contents are inconsistent must fail with ErrBinarySnapshotCorrupt.
// CRC damage never reaches these checks (TestBinarySnapshotCorruptionEveryByte
// stops at the framing), so each case re-frames edited sections.
func TestRestoreErrors(t *testing.T) {
	sections, hdr := fixtureSections(t)
	if _, err := RestoreBinary(reframe(sections)); err != nil {
		t.Fatalf("re-framing an intact snapshot broke it: %v", err)
	}
	for _, c := range restoreEdits(t, hdr) {
		t.Run(c.name, func(t *testing.T) {
			secs := c.edit(append([]binSection(nil), sections...))
			_, err := RestoreBinary(reframe(secs))
			if !errors.Is(err, ErrBinarySnapshotCorrupt) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want ErrBinarySnapshotCorrupt about %q", err, c.want)
			}
		})
	}
}

// FuzzRestoreBinary feeds the section decoders behind the CRC gate
// hostile contents: the input picks one of restoreEdits' edits of
// snapshotFixture's sections (or none) and a section whose payload it
// replaces, and the sections are re-framed with valid CRCs (reframe).
// Whatever the bytes, RestoreBinary must return a typed error or a
// store whose snapshot restores to a store with the same snapshot —
// and never panic. The seeds are the fixture's sections and the ten
// edited snapshots, each section payload as it is.
func FuzzRestoreBinary(f *testing.F) {
	sections, hdr := fixtureSections(f)
	edits := restoreEdits(f, hdr)
	edited := func(e uint8) []binSection {
		secs := append([]binSection(nil), sections...)
		if i := int(e) % (len(edits) + 1); i < len(edits) {
			secs = edits[i].edit(secs)
		}
		return secs
	}
	for e := range len(edits) + 1 {
		for at, sec := range edited(uint8(e)) {
			f.Add(uint8(e), uint8(at), sec.payload)
		}
	}
	f.Fuzz(func(t *testing.T, e, at uint8, payload []byte) {
		secs := edited(e)
		secs[int(at)%len(secs)].payload = payload
		st, err := RestoreBinary(reframe(secs))
		if err != nil {
			if !errors.Is(err, ErrBinarySnapshotCorrupt) && !errors.Is(err, ErrNotBinarySnapshot) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		snap := snapshotBinary(t, st)
		again, err := RestoreBinary(snap)
		if err != nil {
			t.Fatalf("restoring a restored store's snapshot: %v", err)
		}
		if got := snapshotBinary(t, again); !bytes.Equal(got, snap) {
			t.Fatalf("restore → snapshot is not a fixed point (%d vs %d bytes)", len(got), len(snap))
		}
	})
}
