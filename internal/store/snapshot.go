package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ntriples"
	"repro/internal/rdf"
)

// Snapshot serialization: the store's contents as sectioned N-Quads,
// with directive comments carrying the parts N-Quads cannot express —
// model boundaries, virtual model definitions and the index
// configuration:
//
//	# pgrdf-snapshot v1
//	# indexes PCSGM,PSCGM
//	# virtual all = topo,kv
//	# model topo
//	<s> <p> <o> <g> .
//	# model kv
//	...
//
// The format stays a valid N-Quads document (comments are ignored by
// plain N-Quads parsers), so snapshots double as ordinary exports.
//
// Model and virtual-model names appearing in directives are
// percent-escaped (see escapeName): the directive grammar reserves
// ',', " = " and line structure, and an unescaped name containing
// those would silently mis-restore. Names without reserved bytes are
// written verbatim, so snapshots of ordinary stores are unchanged and
// old snapshots (which never escaped) parse identically.
//
// The text format is the interchange format (/export?format=snapshot,
// pgrdf snapshot). Durability checkpoints use the binary format in
// binsnap.go, which restores an order of magnitude faster; Restore
// here remains the decoder for text snapshots and plain N-Quads.

const snapshotHeader = "# pgrdf-snapshot v1"

// Snapshot writes the whole version (all models, virtual model
// definitions and index configuration) to w. A View is a point in time:
// the dump can never contain half of a concurrent update, a
// virtual-model directive out of step with the model sections, or
// quads from different models at different times — and no writer waits
// for it.
func (v *View) Snapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, snapshotHeader); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "# indexes %s\n", strings.Join(v.Indexes(), ",")); err != nil {
		return err
	}

	// v.virtual is a map; sort so equal stores snapshot to equal bytes
	// (crash recovery is verified by byte-comparing snapshots).
	for _, vd := range v.virtualDefs() {
		escaped := make([]string, len(vd.members))
		for i, m := range vd.members {
			escaped[i] = escapeName(m)
		}
		if _, err := fmt.Fprintf(bw, "# virtual %s = %s\n", escapeName(vd.name), strings.Join(escaped, ",")); err != nil {
			return err
		}
	}

	for i, model := range v.modelNames {
		if _, err := fmt.Fprintf(bw, "# model %s\n", escapeName(model)); err != nil {
			return err
		}
		nw := ntriples.NewWriter(bw)
		for _, q := range v.exportModel(ModelID(i + 1)) {
			if err := nw.Write(q); err != nil {
				return err
			}
		}
		if err := nw.Flush(); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Snapshot is View.Snapshot on the current version.
func (s *Store) Snapshot(w io.Writer) error { return s.View().Snapshot(w) }

// vdef is one virtual-model definition with member names resolved.
type vdef struct {
	name    string
	members []string
}

// virtualDefs resolves the virtual-model table to names, sorted by
// virtual-model name for deterministic serialization.
func (v *View) virtualDefs() []vdef {
	vdefs := make([]vdef, 0, len(v.virtual))
	for name, ids := range v.virtual {
		members := make([]string, len(ids))
		for i, id := range ids {
			members[i] = v.modelNames[id-1]
		}
		vdefs = append(vdefs, vdef{name: name, members: members})
	}
	sort.Slice(vdefs, func(i, j int) bool { return vdefs[i].name < vdefs[j].name })
	return vdefs
}

// escapeName percent-escapes a model or virtual-model name for use in
// a snapshot directive. The directive grammar reserves ',' (member
// separator), '=' (the " = " definition separator), '#' (comment
// lead-in), '%' (the escape itself) and all whitespace/control bytes
// (line structure, and Restore trims surrounding space). Every other
// byte — including multi-byte UTF-8 — passes through, so ordinary
// names are unchanged.
func escapeName(s string) string {
	if !nameNeedsEscape(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if nameByteReserved(c) {
			b.WriteByte('%')
			b.WriteByte(hexUpper[c>>4])
			b.WriteByte(hexUpper[c&0xF])
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

const hexUpper = "0123456789ABCDEF"

func nameNeedsEscape(s string) bool {
	for i := 0; i < len(s); i++ {
		if nameByteReserved(s[i]) {
			return true
		}
	}
	return false
}

// nameByteReserved reports whether a byte must be escaped in directive
// names. 0x7F..0xFF are escaped too: Restore trims any unicode
// whitespace around names, so a name beginning with U+00A0 would
// otherwise round-trip wrong, and escaping all high bytes keeps the
// rule byte-local (no UTF-8 decoding of possibly invalid names).
func nameByteReserved(c byte) bool {
	return c <= 0x20 || c >= 0x7F || c == '%' || c == ',' || c == '=' || c == '#'
}

// unescapeName reverses escapeName. Decoding is lenient: a '%' not
// followed by two hex digits is kept literally, so names from old
// snapshots (written unescaped) round-trip even when they contain '%'.
func unescapeName(s string) string {
	if !strings.Contains(s, "%") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			hi, okHi := unhex(s[i+1])
			lo, okLo := unhex(s[i+2])
			if okHi && okLo {
				b.WriteByte(hi<<4 | lo)
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// Restore rebuilds a store from a snapshot. Index configuration and
// virtual models are restored from the directives; a plain N-Quads file
// (no directives) restores into a single model named "data" with the
// default indexes.
//
// Lines are streamed through a bufio.Reader rather than a Scanner, so
// a single long line — one multi-megabyte literal is enough — cannot
// fail the restore with a buffer-cap error the way Snapshot's
// unbounded writer side could produce it.
func Restore(r io.Reader) (*Store, error) {
	br := bufio.NewReaderSize(r, 64*1024)

	var st *Store
	indexes := DefaultIndexes
	var virtuals []vdef
	model := "data"
	var pending []rdf.Quad
	line := 0

	flush := func() error {
		if st == nil {
			var err error
			st, err = NewWithIndexes(indexes)
			if err != nil {
				return err
			}
		}
		if len(pending) > 0 {
			if _, err := st.Load(model, pending); err != nil {
				return err
			}
			pending = pending[:0]
		}
		return nil
	}

	for {
		raw, rerr := br.ReadString('\n')
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return nil, rerr
		}
		atEOF := errors.Is(rerr, io.EOF)
		if raw == "" && atEOF {
			break
		}
		line++
		text := strings.TrimSpace(raw)
		switch {
		case text == "" || text == snapshotHeader:
			// skip
		case strings.HasPrefix(text, "# indexes "):
			if st != nil {
				return nil, fmt.Errorf("store: line %d: indexes directive after data", line)
			}
			indexes = strings.Split(strings.TrimPrefix(text, "# indexes "), ",")
		case strings.HasPrefix(text, "# virtual "):
			spec := strings.TrimPrefix(text, "# virtual ")
			name, members, ok := strings.Cut(spec, " = ")
			if !ok {
				return nil, fmt.Errorf("store: line %d: malformed virtual directive", line)
			}
			v := vdef{name: unescapeName(name)}
			for _, m := range strings.Split(members, ",") {
				v.members = append(v.members, unescapeName(m))
			}
			virtuals = append(virtuals, v)
		case strings.HasPrefix(text, "# model ") || text == "# model":
			if err := flush(); err != nil {
				return nil, err
			}
			model = unescapeName(strings.TrimPrefix(text, "# model "))
			if text == "# model" {
				model = "" // empty name: the trailing space was trimmed away
			}
			// Register even if the model ends up empty.
			st.Model(model)
		case strings.HasPrefix(text, "#"):
			// ordinary comment
		default:
			quads, err := ntriples.NewReader(strings.NewReader(text)).ReadAll()
			if err != nil {
				return nil, fmt.Errorf("store: line %d: %w", line, err)
			}
			if st == nil {
				if err := flush(); err != nil {
					return nil, err
				}
			}
			pending = append(pending, quads...)
			if len(pending) >= 65536 {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
		if atEOF {
			break
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	for _, v := range virtuals {
		if err := st.CreateVirtualModel(v.name, v.members...); err != nil {
			return nil, err
		}
	}
	return st, nil
}
