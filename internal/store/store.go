package store

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rdf"
)

// ModelID identifies a semantic model (a partition of the quads table).
type ModelID = ID

// compactThreshold is the number of delta inserts, or of tombstones,
// that triggers automatic compaction into new base arrays.
const compactThreshold = 8192

// ErrUnknownModel is wrapped by every error that reports a model or
// virtual-model name the store does not know; match it with errors.Is.
var ErrUnknownModel = errors.New("store: unknown model")

func unknownModel(name string) error { return fmt.Errorf("%w %q", ErrUnknownModel, name) }

// Store is the quad store. A Store holds any number of semantic models
// (partitions); every quad belongs to exactly one model. Virtual models
// name unions of models and are resolved at query time.
//
// The contents are an immutable View behind an atomic pointer. Readers
// pin the current View with one atomic load and never take a lock;
// writers serialise on mu, build the successor View copy-on-write and
// publish it with one pointer store, so a reader sees each write
// operation entirely or not at all (DESIGN.md §18). The read methods on
// Store are shorthand for the same method on View(): each call pins its
// own version, so a caller that needs several reads of one state pins a
// View itself.
//
// All methods are safe for concurrent use.
type Store struct {
	// mu serialises writers. No read path takes it except ChangesSince,
	// briefly, for the ring.
	mu  sync.Mutex
	cur atomic.Pointer[View]

	// dict is set once at construction and internally synchronized.
	dict *Dict

	// fault optionally perturbs scans for degradation testing; nil in
	// production. See FaultInjector.
	fault atomic.Pointer[FaultInjector]

	// changeLog is a ring over the last ChangeLogSize single-quad
	// changes: the Change that produced version v sits at
	// changeLog[v%ChangeLogSize]. Allocated by the first Apply, so
	// bulk-loaded read-only stores never pay for it.
	//pgrdf:guardedby mu
	changeLog []Change

	published       atomic.Int64 // Views stored into cur
	compactions     atomic.Int64
	compactionNanos atomic.Int64
}

// DefaultIndexes are the two indexes Oracle creates on every semantic
// model by default (§3.2).
var DefaultIndexes = []string{"PCSGM", "PSCGM"}

// New creates a store with the default PCSGM and PSCGM indexes.
func New() *Store {
	s, err := NewWithIndexes(DefaultIndexes)
	if err != nil {
		panic(err) // DefaultIndexes are statically valid
	}
	return s
}

// NewWithIndexes creates a store with the given semantic-network indexes.
// At least one index is required, since all reads go through indexes.
func NewWithIndexes(specs []string) (*Store, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("store: at least one index is required")
	}
	s := &Store{dict: NewDict()}
	s.cur.Store(&View{st: s})
	if err := s.CreateIndex(specs...); err != nil {
		return nil, err
	}
	return s, nil
}

// Dict exposes the values table.
func (s *Store) Dict() *Dict { return s.dict }

// View pins the current version of the store.
func (s *Store) View() *View { return s.cur.Load() }

// edit returns a private copy of the current View for a writer to
// build the next version in. The copy shares every table and array
// with the original; the writer replaces what it changes.
//
//pgrdf:locks mu
func (s *Store) edit() *View {
	w := *s.cur.Load()
	w.runs = append([]run(nil), w.runs...)
	return &w
}

// publish makes w the current version.
//
//pgrdf:locks mu
func (s *Store) publish(w *View) {
	s.cur.Store(w)
	s.published.Add(1)
}

// eachRun replaces each of runs by build's result. Bulk operations
// (Load, Compact, CreateIndex) build the runs concurrently, one
// goroutine per index, when GOMAXPROCS allows.
func eachRun(runs []run, build func(r *run) run) {
	if runtime.GOMAXPROCS(0) <= 1 || len(runs) == 1 {
		for i := range runs {
			runs[i] = build(&runs[i])
		}
		return
	}
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(r *run) {
			defer wg.Done()
			*r = build(r)
		}(&runs[i])
	}
	wg.Wait()
}

// compact folds w's deltas into new base arrays.
func (s *Store) compact(w *View) {
	if w.inserts == 0 && w.tombs == 0 {
		return
	}
	start := time.Now()
	eachRun(w.runs, func(r *run) run { return r.compacted() })
	w.inserts, w.tombs = 0, 0
	s.compactions.Add(1)
	s.compactionNanos.Add(time.Since(start).Nanoseconds())
}

// CreateIndex adds semantic-network indexes with the given key specs
// (e.g. "GSPCM"), populated from the current contents. It builds them
// concurrently, as Load builds its runs, and publishes them together;
// a bad spec, or one the store or the list already has, refuses them
// all.
func (s *Store) CreateIndex(specs ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.edit()
	have := len(w.runs)
	for _, spec := range specs {
		perm, err := ParsePermutation(spec)
		if err != nil {
			return err
		}
		if slices.ContainsFunc(w.runs, func(r run) bool { return r.ix.perm == perm }) {
			return fmt.Errorf("store: index %s already exists", spec)
		}
		w.runs = append(w.runs, run{ix: &Index{perm: perm}})
	}
	if have > 0 {
		from := &w.runs[0]
		h := newRadixHist(from.base)
		eachRun(w.runs[have:], func(r *run) run {
			built := newRun(r.ix, h.sort(from.base, r.ix.perm))
			var entries []dentry
			for _, c := range from.delta {
				entries = append(entries, c.e...)
			}
			sort.Slice(entries, func(i, j int) bool { return r.ix.less(entries[i].q, entries[j].q) })
			built.delta = appendChunks(nil, entries)
			return built
		})
	}
	s.publish(w)
	return nil
}

// Model returns the ID for a semantic model, creating it if necessary.
func (s *Store) Model(name string) ModelID {
	if id := s.View().LookupModel(name); id != NoID {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.edit()
	id := w.model(name)
	s.publish(w)
	return id
}

// model returns the ID of the named model in a writer's working View,
// creating it (on copies of the model tables) when it is new.
func (w *View) model(name string) ModelID {
	if id, ok := w.modelIDs[name]; ok {
		return id
	}
	ids := make(map[string]ModelID, len(w.modelIDs)+1)
	for k, v := range w.modelIDs {
		ids[k] = v
	}
	id := ModelID(len(w.modelNames) + 1)
	ids[name] = id
	w.modelIDs = ids
	w.modelNames = append(w.modelNames[:len(w.modelNames):len(w.modelNames)], name)
	return id
}

// CreateVirtualModel defines name as the union of the given models,
// mirroring Oracle's virtual semantic models (§3.1). Members may include
// previously defined virtual models; the union is flattened.
func (s *Store) CreateVirtualModel(name string, members ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.edit()
	if _, exists := w.modelIDs[name]; exists {
		return fmt.Errorf("store: %q already names a semantic model", name)
	}
	var ids []ModelID
	seen := make(map[ModelID]struct{})
	for _, m := range members {
		var memberIDs []ModelID
		if vm, ok := w.virtual[m]; ok {
			memberIDs = vm
		} else if id, ok := w.modelIDs[m]; ok {
			memberIDs = []ModelID{id}
		} else {
			return fmt.Errorf("%w %q in virtual model %q", ErrUnknownModel, m, name)
		}
		for _, id := range memberIDs {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("store: virtual model %q has no members", name)
	}
	virtual := make(map[string][]ModelID, len(w.virtual)+1)
	for k, v := range w.virtual {
		virtual[k] = v
	}
	virtual[name] = ids
	w.virtual = virtual
	s.publish(w)
	return nil
}

// internQuad interns a quad's terms and returns its ID row.
func (s *Store) internQuad(m ModelID, q rdf.Quad) IDQuad {
	row := IDQuad{
		S: s.dict.Intern(q.S),
		P: s.dict.Intern(q.P),
		C: s.dict.Intern(q.O),
		M: m,
	}
	if !q.G.IsZero() {
		row.G = s.dict.Intern(q.G)
	}
	return row
}

// Load bulk-loads quads into the named model, rebuilding all indexes
// once and publishing once, and returns how many of the quads were new.
// This is the fast path corresponding to Oracle's N-Quads bulk load;
// prefer it over repeated Insert calls for large datasets.
func (s *Store) Load(model string, quads []rdf.Quad) (int, error) {
	for i := range quads {
		if err := quads[i].Validate(); err != nil {
			return 0, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.edit()
	m := w.model(model)
	s.compact(w)
	rows := s.dict.internRows(m, quads)
	h := newRadixHist(rows)
	before := len(w.runs[0].base)
	eachRun(w.runs, func(r *run) run { return r.loaded(rows, h) })
	added := len(w.runs[0].base) - before
	if added > 0 {
		w.Version++
		w.barrier = w.Version
	}
	s.publish(w)
	return added, nil
}

// Op is one quad-level mutation of an Apply set: assert the quad in the
// model, or retract it.
type Op struct {
	Delete bool
	Model  string
	Quad   rdf.Quad
}

// Apply performs ops in order as one publication: readers see all of
// them or none. An insert of a present quad and a delete of an absent
// one (or against a model the store does not have) are no-ops; an
// insert creates its model when new. Every effective change advances
// the version by one and is recorded in the change log, so the version
// ends inserted+deleted higher. An invalid quad fails the whole set
// before anything is applied.
func (s *Store) Apply(ops []Op) (inserted, deleted int, err error) {
	for i := range ops {
		if err := ops[i].Quad.Validate(); err != nil {
			return 0, 0, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.edit()
	st := staging{w: w, rows: make(map[IDQuad]stagedRow, len(ops))}
	for i := range ops {
		op := &ops[i]
		var row IDQuad
		if op.Delete {
			var ok bool
			if row, ok = w.lookupRow(w.modelIDs[op.Model], op.Quad); !ok || row.M == NoID {
				continue
			}
		} else {
			row = s.internQuad(w.model(op.Model), op.Quad)
		}
		if !st.set(row, !op.Delete) {
			continue
		}
		if s.changeLog == nil {
			s.changeLog = make([]Change, ChangeLogSize)
		}
		w.Version++
		s.changeLog[w.Version%ChangeLogSize] = Change{Quad: row, Deleted: op.Delete}
		if op.Delete {
			deleted++
		} else {
			inserted++
		}
		// Same trigger, at the same op, as when each quad was its own
		// write: the base arrays (and so Storage) do not depend on how
		// operations group quads.
		if w.inserts >= compactThreshold || w.tombs >= compactThreshold {
			st.flush()
			s.compact(w)
		}
	}
	st.flush()
	s.publish(w)
	return inserted, deleted, nil
}

// stagedRow is the state of one quad an Apply set has touched.
type stagedRow struct {
	was, now bool // live in w.runs, live after the ops so far
	inBase   bool // held by the base arrays of w.runs
}

// staging accumulates an Apply set's effect on the working View w
// without touching w.runs, so the delta chunks are copied once per
// flush instead of once per quad.
type staging struct {
	w    *View
	rows map[IDQuad]stagedRow
}

// set makes row live or not. It reports whether that changed anything,
// and keeps w's delta sizes in step.
func (st *staging) set(row IDQuad, live bool) bool {
	sr, seen := st.rows[row]
	if !seen {
		sr.was, sr.inBase = st.w.runs[0].lookup(row)
		sr.now = sr.was
	}
	if sr.now == live {
		return false
	}
	sr.now = live
	st.rows[row] = sr
	w, d := st.w, -1
	if live {
		d = 1
	}
	if sr.inBase {
		w.tombs -= d // the base row's tombstone goes or comes
	} else {
		w.inserts += d
	}
	return true
}

// flush folds the staged net changes into every run's delta.
func (st *staging) flush() {
	var changes []dentry
	for row, sr := range st.rows {
		if sr.now != sr.was {
			changes = append(changes, dentry{q: row, tomb: !sr.now})
		}
		delete(st.rows, row)
	}
	if len(changes) == 0 {
		return
	}
	for i := range st.w.runs {
		r := &st.w.runs[i]
		if len(changes) > 1 {
			sort.Slice(changes, func(a, b int) bool { return r.ix.less(changes[a].q, changes[b].q) })
		}
		r.delta = r.delta.with(changes, r.ix.less)
	}
}

// Insert adds a single quad to the model (incremental DML). Duplicate
// inserts are no-ops returning false.
func (s *Store) Insert(model string, q rdf.Quad) (bool, error) {
	n, _, err := s.Apply([]Op{{Model: model, Quad: q}})
	return n == 1, err
}

// Delete removes a single quad from the model. It returns false when the
// quad was not present.
func (s *Store) Delete(model string, q rdf.Quad) (bool, error) {
	if s.View().LookupModel(model) == NoID {
		return false, unknownModel(model)
	}
	_, n, err := s.Apply([]Op{{Delete: true, Model: model, Quad: q}})
	return n == 1, err
}

// Compact folds the delta into the sorted base arrays. Contents, scan
// order and Version are unchanged.
func (s *Store) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.edit()
	s.compact(w)
	s.publish(w)
}

// Len and Scan are View.Len and View.Scan on the version current at
// the call. They are the only read shorthands: the benchmark module
// imports them. Every other read pins a View, so a read that asks the
// store two things gets both answers from one version.

func (s *Store) Len() int                             { return s.View().Len() }
func (s *Store) Scan(p Pattern, fn func(IDQuad) bool) { s.View().Scan(p, fn) }
