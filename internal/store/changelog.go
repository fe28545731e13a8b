package store

// The change log: what a consumer needs to keep a structure derived from
// the store (the /algo CSR) in step with it instead of rebuilding per
// version. DESIGN.md §17 has the contract.

// ChangeLogSize is how many version bumps the change log remembers. A
// consumer further behind than this must rebuild from a scan.
const ChangeLogSize = 4096

// Change is one logged mutation: the quad an Apply added or removed.
// Every version bump except Load's is exactly one Change.
type Change struct {
	Quad    IDQuad
	Deleted bool
}

// ChangesSince returns the changes that took the store from version
// since to the view's Version, oldest first — exactly Version-since of
// them, whatever has been written after the view was pinned. ok is
// false when the log cannot itemize that range: the ring has since
// been overwritten past it (overflow), a Load lies in between
// (barrier), or since is a version the view never reached.
func (v *View) ChangesSince(since uint64) (changes []Change, ok bool) {
	if since > v.Version || since < v.barrier {
		return nil, false
	}
	s := v.st
	s.mu.Lock()
	defer s.mu.Unlock()
	// The writer that produces version n overwrites the entry of
	// n-ChangeLogSize.
	if s.cur.Load().Version-since > ChangeLogSize {
		return nil, false
	}
	out := make([]Change, 0, v.Version-since)
	for i := since + 1; i <= v.Version; i++ {
		out = append(out, s.changeLog[i%ChangeLogSize])
	}
	return out, true
}
