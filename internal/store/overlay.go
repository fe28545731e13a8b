package store

import "repro/internal/rdf"

// scratchBase is the first ID of the range reserved for per-query
// scratch terms. The dictionary assigns dense IDs from 1 upward and
// would need to intern ~4.6e18 terms to collide; Any (^ID(0)) stays
// clear of the range's top because scratch tables are bounded by the
// per-query binding budget long before that.
const scratchBase ID = 1 << 62

// TermOverlay is a read-through term table layered over a Dict: Intern
// resolves against the shared dictionary first (so terms that already
// exist keep their real, joinable IDs) and assigns IDs from a private
// scratch range to terms the dictionary has never seen. Computed values
// produced while answering a read-only query (extended projection,
// BIND, VALUES, aggregate results) go through an overlay so they never
// grow the store's dictionary — scratch IDs live exactly as long as the
// overlay.
//
// Scratch IDs compare equal only to themselves, and no stored quad ever
// carries one, so using them in scan patterns or join keys is safe: a
// scratch-identified term matches nothing in the store, which is the
// correct semantics for a term the store does not contain.
//
// An overlay belongs to one query, which one goroutine runs: it takes
// no lock and must not be shared between goroutines.
type TermOverlay struct {
	dict  *Dict
	byKey map[string]ID
	terms []rdf.Term
}

// NewTermOverlay returns an empty overlay over d. It allocates nothing
// beyond the struct until the first scratch term is interned.
func NewTermOverlay(d *Dict) *TermOverlay {
	return &TermOverlay{dict: d}
}

// Intern returns the dictionary ID for t when the term is already
// known, or a scratch ID private to this overlay otherwise. The shared
// dictionary is never modified.
func (o *TermOverlay) Intern(t rdf.Term) ID {
	if id := o.dict.Lookup(t); id != NoID {
		return id
	}
	key := t.String()
	if id, ok := o.byKey[key]; ok {
		return id
	}
	if o.byKey == nil {
		o.byKey = make(map[string]ID)
	}
	o.terms = append(o.terms, t)
	id := scratchBase + ID(len(o.terms)-1)
	o.byKey[key] = id
	return id
}

// Term resolves an ID from either range. It panics on an ID never
// issued, matching Dict.Term.
func (o *TermOverlay) Term(id ID) rdf.Term {
	if id < scratchBase {
		return o.dict.Term(id)
	}
	i := int(id - scratchBase)
	if i >= len(o.terms) {
		panic("store: Term called with invalid scratch ID")
	}
	return o.terms[i]
}

// Len returns the number of scratch terms this overlay holds.
func (o *TermOverlay) Len() int { return len(o.terms) }
