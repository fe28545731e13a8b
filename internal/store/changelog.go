package store

// The change log and the consistent read view: what a consumer needs to
// keep a structure derived from the store (the /algo CSR) in step with
// it instead of rebuilding per version. DESIGN.md §17 has the contract.

// ChangeLogSize is how many version bumps the change log remembers. A
// consumer further behind than this must rebuild from a scan.
const ChangeLogSize = 4096

// Change is one logged mutation: the quad a successful Insert added or a
// successful Delete removed. Every version bump except Load's is
// exactly one Change.
type Change struct {
	Quad    IDQuad
	Deleted bool
}

// logChangeLocked bumps the version for one single-quad mutation and
// records it in the ring slot of the new version.
//
//pgrdf:locks mu
func (s *Store) logChangeLocked(row IDQuad, deleted bool) {
	if s.changeLog == nil {
		s.changeLog = make([]Change, ChangeLogSize)
	}
	v := s.version.Add(1)
	s.changeLog[v%ChangeLogSize] = Change{Quad: row, Deleted: deleted}
}

// ChangesSince returns the mutations that took the store from version v
// to its current version, oldest first — exactly Version()-v of them.
// ok is false when the log cannot itemize that range: more than
// ChangeLogSize bumps ago (overflow), a Load in between (barrier), or a
// v this store never reached. A caller that also reads store contents
// must do both under one View, or the contents may be newer than the
// log it got.
func (s *Store) ChangesSince(v uint64) (changes []Change, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.changesSinceLocked(v)
}

//pgrdf:locks mu
func (s *Store) changesSinceLocked(v uint64) ([]Change, bool) {
	cur := s.version.Load()
	if v > cur || cur-v > ChangeLogSize || v < s.logBarrier {
		return nil, false
	}
	out := make([]Change, 0, cur-v)
	for i := v + 1; i <= cur; i++ {
		out = append(out, s.changeLog[i%ChangeLogSize])
	}
	return out, true
}

// View is a consistent read-only view of the store, valid only inside
// the callback of Store.View: every read through it sees the contents
// at exactly Version.
type View struct {
	// Version is the store version the view reads at.
	Version uint64

	scanBatch    func(p Pattern, max int, fn func([]IDQuad) bool)
	changesSince func(v uint64) ([]Change, bool)
	dataset      func(name string) ([]ModelID, error)
}

// View runs fn with the store's read lock held for the whole call, so
// any number of scans, the change log and the version label all
// describe one state. fn must not call methods of the Store itself (a
// second RLock behind a queued writer deadlocks) nor keep the View.
func (s *Store) View(fn func(*View)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(&View{
		Version:      s.version.Load(),
		scanBatch:    func(p Pattern, max int, fn func([]IDQuad) bool) { s.scanBatchLocked(p, max, fn) },
		changesSince: func(v uint64) ([]Change, bool) { return s.changesSinceLocked(v) },
		dataset:      func(name string) ([]ModelID, error) { return s.resolveDatasetLocked(name) },
	})
}

// ScanBatch is Store.ScanBatch on the view's state.
func (v *View) ScanBatch(p Pattern, max int, fn func([]IDQuad) bool) { v.scanBatch(p, max, fn) }

// ChangesSince is Store.ChangesSince ending at the view's Version.
func (v *View) ChangesSince(since uint64) ([]Change, bool) { return v.changesSince(since) }

// ResolveDataset is Store.ResolveDataset on the view's state.
func (v *View) ResolveDataset(name string) ([]ModelID, error) { return v.dataset(name) }
