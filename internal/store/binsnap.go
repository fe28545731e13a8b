package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"

	"repro/internal/rdf"
)

// Snapshot format (DESIGN.md §16): the store's one serialized form,
// written by durability checkpoints, `pgrdf snapshot` and the
// replication bootstrap. It dumps the storage representation — the
// value dictionary once, and each semantic-network index's ID rows in
// index order — so restore is a bulk decode: no parsing, no interning,
// no sorting, and the index sections decode in parallel.
//
//	file    := magic section* trailer
//	magic   := "PGRDFBC1" (8 bytes)
//	section := u8 type | u64le payloadLen | payload | u32le crc32c(type|len|payload)
//
// Section types, in file order:
//
//	1 header  : uv version=1 | uv quads | uv terms | uv models | uv virtuals | uv indexes
//	2 dict    : terms × term (ID order; term := u8 kind | uv len | bytes
//	            | typed: uv len | datatype | lang-tagged: uv len | lang)
//	3 models  : models × (uv len | name), ID order
//	4 virtual : virtuals × (uv len | name | uv n | n × uv modelID), sorted by name
//	5 index   : 5-byte permutation spec | uv rows | rows × (uv id per
//	            column, key order) — one section per index, rows sorted,
//	            tombstones elided and the delta buffer merged in
//	ff trailer: uv sectionCount | u32le crc32c(file bytes before trailer)
//
// Every integer suffix "uv" is an unsigned varint. CRCs are CRC32-C
// (Castagnoli — hardware-accelerated on amd64/arm64). The per-section
// CRC localizes corruption to a section; the trailer's section count
// and whole-file CRC catch truncation after any section boundary.

// binMagic identifies a binary snapshot ("pgrdf binary checkpoint v1").
const binMagic = "PGRDFBC1"

// binVersion is the current format version; decoders reject anything
// newer so a downgraded binary never misreads a future layout.
const binVersion = 1

const (
	secHeader  = 1
	secDict    = 2
	secModels  = 3
	secVirtual = 4
	secIndex   = 5
	secTrailer = 0xFF
)

// Term kind tags in the dict section. Literals split by shape so plain
// literals pay no empty datatype/lang fields.
const (
	binTermIRI     = 1
	binTermBlank   = 2
	binTermLiteral = 3
	binTermTyped   = 4
	binTermLang    = 5
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNotBinarySnapshot reports that the input does not begin with the
// binary-snapshot magic — it is some other file (an N-Quads dump, say),
// not a damaged snapshot.
var ErrNotBinarySnapshot = errors.New("store: not a binary snapshot")

// ErrBinarySnapshotCorrupt reports a binary snapshot that begins with
// the right magic but fails validation: a truncated or CRC-damaged
// section, a missing trailer, or inconsistent section contents.
var ErrBinarySnapshotCorrupt = errors.New("store: corrupt binary snapshot")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBinarySnapshotCorrupt, fmt.Sprintf(format, args...))
}

// IsBinarySnapshot reports whether data begins with the binary
// snapshot magic. Callers sniffing a checkpoint file pass any prefix
// of at least 8 bytes.
func IsBinarySnapshot(data []byte) bool {
	return len(data) >= len(binMagic) && string(data[:len(binMagic)]) == binMagic
}

// crcWriter tracks the running CRC32-C and byte count of everything
// written through it, so the trailer can seal the whole file.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crcTable, p[:n])
	cw.n += int64(n)
	return n, err
}

// SnapshotBinary writes the whole version (all models, virtual model
// definitions and index configuration) in the binary snapshot format. A
// View is a point in time: the dump can never contain half of a
// concurrent update or models from different moments, and no writer
// waits for it.
func (v *View) SnapshotBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &crcWriter{w: bw}
	if _, err := io.WriteString(cw, binMagic); err != nil {
		return err
	}

	terms := v.st.dict.snapshotTerms()
	sections := 0
	var buf []byte
	writeSection := func(typ byte, payload []byte) error {
		var hdr [9]byte
		hdr[0] = typ
		binary.LittleEndian.PutUint64(hdr[1:], uint64(len(payload)))
		crc := crc32.Update(0, crcTable, hdr[:])
		crc = crc32.Update(crc, crcTable, payload)
		if _, err := cw.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := cw.Write(payload); err != nil {
			return err
		}
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], crc)
		if _, err := cw.Write(tail[:]); err != nil {
			return err
		}
		sections++
		return nil
	}

	// Header.
	buf = binary.AppendUvarint(buf[:0], binVersion)
	buf = binary.AppendUvarint(buf, uint64(v.Len()))
	buf = binary.AppendUvarint(buf, uint64(len(terms)))
	buf = binary.AppendUvarint(buf, uint64(len(v.modelNames)))
	buf = binary.AppendUvarint(buf, uint64(len(v.virtual)))
	buf = binary.AppendUvarint(buf, uint64(len(v.runs)))
	if err := writeSection(secHeader, buf); err != nil {
		return err
	}

	// Dict: every interned term in ID order, including terms no live
	// quad references — preserving the exact ID assignment makes
	// restore-then-resnapshot a byte-level fixed point.
	buf = buf[:0]
	for _, t := range terms {
		buf = appendTerm(buf, t)
	}
	if err := writeSection(secDict, buf); err != nil {
		return err
	}

	// Model-name table, ID order.
	buf = buf[:0]
	for _, name := range v.modelNames {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	if err := writeSection(secModels, buf); err != nil {
		return err
	}

	// Virtual-model table, sorted by name for determinism.
	buf = buf[:0]
	for _, name := range v.VirtualModels() {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		ids := v.virtual[name]
		buf = binary.AppendUvarint(buf, uint64(len(ids)))
		for _, id := range ids {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}
	if err := writeSection(secVirtual, buf); err != nil {
		return err
	}

	// One section per index: its live rows in its own key order — the
	// final row array, ready for bulk decode.
	for i := range v.runs {
		r := &v.runs[i]
		buf = append(buf[:0], r.ix.perm.String()...)
		buf = binary.AppendUvarint(buf, uint64(v.Len()))
		r.merge(r.base, dpos{}, dpos{c: len(r.delta)}, AnyPattern(), DefaultBatchRows, func(rows []IDQuad) bool {
			for _, q := range rows {
				for _, c := range r.ix.perm {
					buf = binary.AppendUvarint(buf, uint64(q.Get(c)))
				}
			}
			return true
		})
		if err := writeSection(secIndex, buf); err != nil {
			return err
		}
	}

	// Trailer: seal section count and whole-file CRC so truncation at
	// any section boundary (or byte) is detectable.
	fileCRC := cw.crc
	buf = binary.AppendUvarint(buf[:0], uint64(sections))
	buf = binary.LittleEndian.AppendUint32(buf, fileCRC)
	if err := writeSection(secTrailer, buf); err != nil {
		return err
	}
	return bw.Flush()
}

// appendTerm encodes one dictionary term.
func appendTerm(buf []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.KindIRI:
		buf = append(buf, binTermIRI)
	case rdf.KindBlank:
		buf = append(buf, binTermBlank)
	default:
		switch {
		case t.Lang != "":
			buf = append(buf, binTermLang)
		case t.Datatype != "":
			buf = append(buf, binTermTyped)
		default:
			buf = append(buf, binTermLiteral)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.Value)))
	buf = append(buf, t.Value...)
	if t.Kind == rdf.KindLiteral {
		if t.Lang != "" {
			buf = binary.AppendUvarint(buf, uint64(len(t.Lang)))
			buf = append(buf, t.Lang...)
		} else if t.Datatype != "" {
			buf = binary.AppendUvarint(buf, uint64(len(t.Datatype)))
			buf = append(buf, t.Datatype...)
		}
	}
	return buf
}

// binSection is one framed, CRC-verified section.
type binSection struct {
	typ     byte
	payload []byte
}

// RestoreBinary rebuilds a store from a binary snapshot. The dict and
// index sections decode concurrently (bounded by GOMAXPROCS — the same
// worker budget bulk loads use), so restore scales with cores instead
// of re-interning terms one by one.
//
// It returns ErrNotBinarySnapshot when data lacks the magic, and
// ErrBinarySnapshotCorrupt (wrapped with detail) for any framing, CRC
// or consistency failure.
func RestoreBinary(data []byte) (*Store, error) {
	if !IsBinarySnapshot(data) {
		return nil, ErrNotBinarySnapshot
	}
	sections, err := parseSections(data)
	if err != nil {
		return nil, err
	}
	if len(sections) == 0 || sections[0].typ != secHeader {
		return nil, corruptf("first section is not the header")
	}
	hdr, err := decodeHeader(sections[0].payload)
	if err != nil {
		return nil, err
	}

	var dictSec, modelSec, virtSec []byte
	var indexSecs [][]byte
	for _, sec := range sections[1:] {
		switch sec.typ {
		case secDict:
			if dictSec != nil {
				return nil, corruptf("duplicate dict section")
			}
			dictSec = sec.payload
		case secModels:
			if modelSec != nil {
				return nil, corruptf("duplicate model section")
			}
			modelSec = sec.payload
		case secVirtual:
			if virtSec != nil {
				return nil, corruptf("duplicate virtual-model section")
			}
			virtSec = sec.payload
		case secIndex:
			indexSecs = append(indexSecs, sec.payload)
		default:
			// Unknown section types are an error within version 1: the
			// version bump is the compatibility mechanism, not silent
			// skipping (a skipped section is silently lost data).
			return nil, corruptf("unknown section type %d", sec.typ)
		}
	}
	if dictSec == nil || modelSec == nil || virtSec == nil {
		return nil, corruptf("missing dict, model or virtual-model section")
	}
	if len(indexSecs) != int(hdr.indexes) || len(indexSecs) == 0 {
		return nil, corruptf("%d index sections, header declares %d", len(indexSecs), hdr.indexes)
	}

	// Models and virtuals are tiny; decode them inline. Dict and index
	// sections carry the bulk — fan those out.
	modelNames, err := decodeModels(modelSec, hdr.models)
	if err != nil {
		return nil, err
	}
	virtuals, err := decodeVirtuals(virtSec, hdr.virtuals, hdr.models)
	if err != nil {
		return nil, err
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		decErr error
		dict   *Dict
		runs   = make([]run, len(indexSecs))
	)
	fail := func(err error) {
		mu.Lock()
		if decErr == nil {
			decErr = err
		}
		mu.Unlock()
	}
	workers := runtime.GOMAXPROCS(0)
	sem := make(chan struct{}, max(workers, 1))
	run := func(fn func()) {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fn()
		}()
	}
	run(func() {
		terms, err := decodeTerms(dictSec, hdr.terms)
		if err != nil {
			fail(err)
			return
		}
		dict = newDictFromTerms(terms)
	})
	for i := range indexSecs {
		i := i
		run(func() {
			r, err := decodeIndex(indexSecs[i], hdr)
			if err != nil {
				fail(err)
				return
			}
			runs[i] = r
		})
	}
	wg.Wait()
	if decErr != nil {
		return nil, decErr
	}
	for i := range runs {
		for j := 0; j < i; j++ {
			if runs[j].ix.perm == runs[i].ix.perm {
				return nil, corruptf("duplicate index section %s", runs[i].ix.perm.String())
			}
		}
	}

	st := &Store{dict: dict}
	v := &View{
		st:         st,
		runs:       runs,
		modelIDs:   make(map[string]ModelID, len(modelNames)),
		modelNames: modelNames,
		virtual:    make(map[string][]ModelID, len(virtuals)),
	}
	for i, name := range modelNames {
		if _, dup := v.modelIDs[name]; dup {
			return nil, corruptf("duplicate model name %q", name)
		}
		v.modelIDs[name] = ModelID(i + 1)
	}
	for _, vm := range virtuals {
		if _, clash := v.modelIDs[vm.name]; clash {
			return nil, corruptf("virtual model %q collides with a model name", vm.name)
		}
		if _, dup := v.virtual[vm.name]; dup {
			return nil, corruptf("duplicate virtual model %q", vm.name)
		}
		v.virtual[vm.name] = vm.ids
	}
	st.cur.Store(v)
	return st, nil
}

// parseSections walks the section frames, verifying each CRC and the
// trailer's section count and whole-file CRC. The returned sections
// exclude the trailer.
func parseSections(data []byte) ([]binSection, error) {
	var sections []binSection
	off := len(binMagic)
	for {
		if off == len(data) {
			return nil, corruptf("missing trailer (file truncated at a section boundary)")
		}
		if len(data)-off < 13 {
			return nil, corruptf("truncated section frame at offset %d", off)
		}
		typ := data[off]
		plen := binary.LittleEndian.Uint64(data[off+1 : off+9])
		if plen > uint64(len(data)-off-13) {
			return nil, corruptf("section %d at offset %d: payload of %d bytes exceeds file", typ, off, plen)
		}
		payload := data[off+9 : off+9+int(plen)]
		wantCRC := binary.LittleEndian.Uint32(data[off+9+int(plen):])
		crc := crc32.Update(0, crcTable, data[off:off+9+int(plen)])
		if crc != wantCRC {
			return nil, corruptf("section %d at offset %d: CRC mismatch", typ, off)
		}
		if typ == secTrailer {
			count, n := binary.Uvarint(payload)
			if n <= 0 || len(payload) != n+4 {
				return nil, corruptf("malformed trailer")
			}
			if int(count) != len(sections) {
				return nil, corruptf("trailer declares %d sections, file has %d", count, len(sections))
			}
			fileCRC := binary.LittleEndian.Uint32(payload[n:])
			if crc32.Checksum(data[:off], crcTable) != fileCRC {
				return nil, corruptf("whole-file CRC mismatch")
			}
			if off+13+int(plen) != len(data) {
				return nil, corruptf("%d trailing bytes after trailer", len(data)-off-13-int(plen))
			}
			return sections, nil
		}
		sections = append(sections, binSection{typ: typ, payload: payload})
		off += 13 + int(plen)
	}
}

type binHeader struct {
	quads, terms, models, virtuals, indexes uint64
}

func decodeHeader(p []byte) (binHeader, error) {
	var h binHeader
	fields := []*uint64{new(uint64), &h.quads, &h.terms, &h.models, &h.virtuals, &h.indexes}
	off := 0
	for _, f := range fields {
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return h, corruptf("truncated header")
		}
		*f = v
		off += n
	}
	if off != len(p) {
		return h, corruptf("header has %d trailing bytes", len(p)-off)
	}
	if version := *fields[0]; version != binVersion {
		return h, corruptf("format version %d (this build reads version %d)", version, binVersion)
	}
	return h, nil
}

// decodeTerms rebuilds the dictionary's term table.
func decodeTerms(p []byte, count uint64) ([]rdf.Term, error) {
	if count > uint64(len(p)) { // every term costs >= 2 bytes
		return nil, corruptf("dict declares %d terms in %d bytes", count, len(p))
	}
	readStr := func(off int) (string, int, error) {
		l, n := binary.Uvarint(p[off:])
		if n <= 0 || l > uint64(len(p)-off-n) {
			return "", 0, corruptf("truncated dict string at offset %d", off)
		}
		return string(p[off+n : off+n+int(l)]), off + n + int(l), nil
	}
	terms := make([]rdf.Term, 0, count)
	off := 0
	for i := uint64(0); i < count; i++ {
		if off >= len(p) {
			return nil, corruptf("dict ends after %d of %d terms", i, count)
		}
		kind := p[off]
		off++
		value, next, err := readStr(off)
		if err != nil {
			return nil, err
		}
		off = next
		var t rdf.Term
		switch kind {
		case binTermIRI:
			t = rdf.Term{Kind: rdf.KindIRI, Value: value}
		case binTermBlank:
			t = rdf.Term{Kind: rdf.KindBlank, Value: value}
		case binTermLiteral:
			t = rdf.Term{Kind: rdf.KindLiteral, Value: value}
		case binTermTyped:
			dt, next, err := readStr(off)
			if err != nil {
				return nil, err
			}
			off = next
			t = rdf.Term{Kind: rdf.KindLiteral, Value: value, Datatype: dt}
		case binTermLang:
			lang, next, err := readStr(off)
			if err != nil {
				return nil, err
			}
			off = next
			t = rdf.Term{Kind: rdf.KindLiteral, Value: value, Lang: lang}
		default:
			return nil, corruptf("dict term %d has unknown kind %d", i+1, kind)
		}
		terms = append(terms, t)
	}
	if off != len(p) {
		return nil, corruptf("dict has %d trailing bytes", len(p)-off)
	}
	return terms, nil
}

func decodeModels(p []byte, count uint64) ([]string, error) {
	if count > uint64(len(p))+1 {
		return nil, corruptf("model table declares %d models in %d bytes", count, len(p))
	}
	names := make([]string, 0, count)
	off := 0
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(p[off:])
		if n <= 0 || l > uint64(len(p)-off-n) {
			return nil, corruptf("truncated model table at entry %d", i)
		}
		names = append(names, string(p[off+n:off+n+int(l)]))
		off += n + int(l)
	}
	if off != len(p) {
		return nil, corruptf("model table has %d trailing bytes", len(p)-off)
	}
	return names, nil
}

type binVirtual struct {
	name string
	ids  []ModelID
}

func decodeVirtuals(p []byte, count, models uint64) ([]binVirtual, error) {
	if count > uint64(len(p))+1 {
		return nil, corruptf("virtual table declares %d entries in %d bytes", count, len(p))
	}
	out := make([]binVirtual, 0, count)
	off := 0
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(p[off:])
		if n <= 0 || l > uint64(len(p)-off-n) {
			return nil, corruptf("truncated virtual table at entry %d", i)
		}
		name := string(p[off+n : off+n+int(l)])
		off += n + int(l)
		nm, n := binary.Uvarint(p[off:])
		if n <= 0 || nm == 0 || nm > models {
			return nil, corruptf("virtual model %q declares %d members of %d models", name, nm, models)
		}
		off += n
		ids := make([]ModelID, 0, nm)
		for j := uint64(0); j < nm; j++ {
			id, n := binary.Uvarint(p[off:])
			if n <= 0 || id == 0 || id > models {
				return nil, corruptf("virtual model %q member %d: model ID %d out of range", name, j, id)
			}
			off += n
			ids = append(ids, ModelID(id))
		}
		out = append(out, binVirtual{name: name, ids: ids})
	}
	if off != len(p) {
		return nil, corruptf("virtual table has %d trailing bytes", len(p)-off)
	}
	return out, nil
}

// decodeIndex decodes one index section: permutation spec, then the
// sorted row array. Every column value is range-checked against the
// dict and model tables and the sort order is verified, so a decoded
// index can never panic a later Term lookup or break binary search.
func decodeIndex(p []byte, hdr binHeader) (run, error) {
	if len(p) < int(numCols) {
		return run{}, corruptf("index section shorter than its permutation spec")
	}
	perm, err := ParsePermutation(string(p[:numCols]))
	if err != nil {
		return run{}, corruptf("index section: %v", err)
	}
	off := int(numCols)
	count, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return run{}, corruptf("index %s: truncated row count", perm.String())
	}
	off += n
	if count != hdr.quads {
		return run{}, corruptf("index %s declares %d rows, header declares %d quads", perm.String(), count, hdr.quads)
	}
	if count > uint64(len(p)-off)+1 {
		return run{}, corruptf("index %s declares %d rows in %d bytes", perm.String(), count, len(p)-off)
	}
	ix := &Index{perm: perm}
	rows := make([]IDQuad, count)
	for i := range rows {
		var q IDQuad
		for _, c := range perm {
			v, n := binary.Uvarint(p[off:])
			if n <= 0 {
				return run{}, corruptf("index %s: truncated row %d", perm.String(), i)
			}
			off += n
			id := ID(v)
			switch c {
			case ColS, ColP, ColC:
				if id == NoID || uint64(id) > hdr.terms {
					return run{}, corruptf("index %s row %d: term ID %d out of range", perm.String(), i, id)
				}
			case ColG:
				if uint64(id) > hdr.terms {
					return run{}, corruptf("index %s row %d: graph ID %d out of range", perm.String(), i, id)
				}
			case ColM:
				if id == NoID || uint64(id) > hdr.models {
					return run{}, corruptf("index %s row %d: model ID %d out of range", perm.String(), i, id)
				}
			}
			switch c {
			case ColS:
				q.S = id
			case ColP:
				q.P = id
			case ColC:
				q.C = id
			case ColG:
				q.G = id
			case ColM:
				q.M = id
			}
		}
		if i > 0 && !ix.less(rows[i-1], q) {
			return run{}, corruptf("index %s rows %d..%d out of order", perm.String(), i-1, i)
		}
		rows[i] = q
	}
	if off != len(p) {
		return run{}, corruptf("index %s has %d trailing bytes", perm.String(), len(p)-off)
	}
	return run{ix: ix, base: rows}, nil
}
