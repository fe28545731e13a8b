// Package store implements an in-memory RDF quad store patterned after
// Oracle Database's RDF Semantic Graph storage (§3 of the paper):
//
//   - a values table (dictionary) mapping lexical RDF terms to numeric IDs,
//   - an ID-based quads table with columns S (subject), P (predicate),
//     C (canonical object), G (named graph) and M (semantic model),
//   - semantic-network indexes over any permutation of those columns
//     (PCSGM, PSCGM, GSPCM, GPCSM, SPCGM, SCPGM, ...), served by
//     range scans that locate the first key column's range in a
//     direct-address directory and binary-search any column after it,
//   - semantic models acting as partitions (the M column) and virtual
//     models defined as unions of models.
//
// Queries are answered from the indexes alone; the "table" is only
// scanned for full-scan plans, mirroring the paper's observation that
// "SPARQL query processing in Oracle typically involves accessing only
// the indexes".
package store

import (
	"sync"

	"repro/internal/rdf"
)

// ID is a numeric identifier assigned by the dictionary. 0 is reserved:
// in the G column it denotes the default graph, and as a lookup result it
// means "not present".
type ID uint64

// NoID is the zero ID: absent term / default graph.
const NoID ID = 0

// Any is the wildcard ID used in scan patterns.
const Any ID = ^ID(0)

// Dict is the values table: a bijection between RDF terms and dense
// numeric IDs starting at 1. It is safe for concurrent use.
type Dict struct {
	mu sync.RWMutex
	//pgrdf:guardedby mu
	byKey map[string]ID
	//pgrdf:guardedby mu
	terms []rdf.Term
	// total lexical bytes, for storage accounting
	//pgrdf:guardedby mu
	lexLen int64
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byKey: make(map[string]ID)}
}

// Intern returns the ID for t, assigning a fresh one on first sight.
func (d *Dict) Intern(t rdf.Term) ID {
	key := t.String()
	d.mu.RLock()
	id, ok := d.byKey[key]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var buf []byte
	return d.internTo(&buf, t)
}

// internChunk is how many quads internRows interns per lock hold.
const internChunk = 4096

// internRows interns the terms of quads in the order Intern would, S,
// P, O, G quad by quad, and returns their rows in model m. Every key is
// rendered into one reused buffer, so only a new term allocates.
func (d *Dict) internRows(m ModelID, quads []rdf.Quad) []IDQuad {
	rows := make([]IDQuad, len(quads))
	var buf []byte
	for lo := 0; lo < len(quads); lo += internChunk {
		d.mu.Lock()
		for i := lo; i < min(lo+internChunk, len(quads)); i++ {
			q := &quads[i]
			rows[i] = IDQuad{S: d.internTo(&buf, q.S), P: d.internTo(&buf, q.P), C: d.internTo(&buf, q.O), M: m}
			if !q.G.IsZero() {
				rows[i].G = d.internTo(&buf, q.G)
			}
		}
		d.mu.Unlock()
	}
	return rows
}

// internTo returns the ID for t, assigning a fresh one on first sight,
// with t's key rendered into *buf: the lookup by string(*buf) does not
// allocate, so only a new term copies its key.
//
//pgrdf:locks mu
func (d *Dict) internTo(buf *[]byte, t rdf.Term) ID {
	*buf = t.AppendTo((*buf)[:0])
	if id, ok := d.byKey[string(*buf)]; ok {
		return id
	}
	key := string(*buf)
	d.terms = append(d.terms, t)
	id := ID(len(d.terms))
	d.byKey[key] = id
	d.lexLen += int64(len(key))
	return id
}

// Lookup returns the ID for t, or NoID if the term has never been seen.
func (d *Dict) Lookup(t rdf.Term) ID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.byKey[t.String()]
}

// Term returns the term for a valid ID. It panics on NoID or an ID never
// issued, which always indicates a bug in the caller.
func (d *Dict) Term(id ID) rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == NoID || int(id) > len(d.terms) {
		panic("store: Term called with invalid ID")
	}
	return d.terms[id-1]
}

// Quad materializes a row's IDs back into RDF terms. The dictionary is
// append-only and self-locking, so this is safe while the store mutates.
func (d *Dict) Quad(q IDQuad) rdf.Quad {
	r := rdf.Quad{S: d.Term(q.S), P: d.Term(q.P), O: d.Term(q.C)}
	if q.G != NoID {
		r.G = d.Term(q.G)
	}
	return r
}

// snapshotTerms returns a stable view of all interned terms in ID
// order (index i holds the term for ID i+1). The returned slice is a
// capped view of the append-only terms table: existing entries are
// never mutated, so the view stays valid, and is read without the
// lock, after the lock is released (binary snapshots, TermOverlay).
func (d *Dict) snapshotTerms() []rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[:len(d.terms):len(d.terms)]
}

// newDictFromTerms rebuilds a dictionary whose ID assignment is
// exactly terms[i] -> ID(i+1) — the bulk path binary-snapshot restore
// uses instead of re-interning term by term.
func newDictFromTerms(terms []rdf.Term) *Dict {
	d := &Dict{byKey: make(map[string]ID, len(terms)), terms: terms}
	for i, t := range terms {
		key := t.String()
		d.byKey[key] = ID(i + 1)
		d.lexLen += int64(len(key))
	}
	return d
}

// Len returns the number of distinct terms interned.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// LexicalBytes returns the total lexical length of all interned terms,
// the dominant component of the values-table size in Table 9.
func (d *Dict) LexicalBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lexLen
}
