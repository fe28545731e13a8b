package store

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
)

// ModelID identifies a semantic model (a partition of the quads table).
type ModelID = ID

// compactThreshold is the delta-buffer size that triggers automatic
// compaction into the sorted indexes.
const compactThreshold = 8192

// ErrUnknownModel is wrapped by every error that reports a model or
// virtual-model name the store does not know; match it with errors.Is.
var ErrUnknownModel = errors.New("store: unknown model")

func unknownModel(name string) error { return fmt.Errorf("%w %q", ErrUnknownModel, name) }

// Store is the quad store. A Store holds any number of semantic models
// (partitions); every quad belongs to exactly one model. Virtual models
// name unions of models and are resolved at query time.
//
// All methods are safe for concurrent use.
type Store struct {
	mu sync.RWMutex

	// dict is set once at construction and internally synchronized; it
	// is deliberately NOT guarded by mu (read paths resolve terms
	// without the store lock).
	dict *Dict

	//pgrdf:guardedby mu
	modelIDs map[string]ModelID
	//pgrdf:guardedby mu
	modelNames []string

	//pgrdf:guardedby mu
	virtual map[string][]ModelID

	// all indexes hold the same row set
	//pgrdf:guardedby mu
	indexes []*Index

	// inserted but not yet merged
	//pgrdf:guardedby mu
	delta []IDQuad
	// membership for delta
	//pgrdf:guardedby mu
	deltaSet map[IDQuad]struct{}
	// tombstones for base rows
	//pgrdf:guardedby mu
	dead map[IDQuad]struct{}
	// live quads = base + delta - dead
	//pgrdf:guardedby mu
	count int

	// par is the worker budget for bulk operations (Load, Compact,
	// CreateIndex): all configured indexes are built concurrently and
	// large batch sorts are chunked across goroutines. 0 = GOMAXPROCS,
	// 1 = fully serial. See SetParallelism.
	par atomic.Int32

	// fault optionally perturbs scans for degradation testing; nil in
	// production. See FaultInjector.
	fault atomic.Pointer[FaultInjector]

	// openCursors counts Cursors created but not yet closed (leak gauge).
	openCursors atomic.Int64

	// version counts successful content mutations (Insert, Delete,
	// Load); derived caches key their validity to it. See Version.
	version atomic.Uint64

	// changeLog is a ring over the last ChangeLogSize single-quad
	// mutations: the Change that produced version v sits at
	// changeLog[v%ChangeLogSize]. Allocated by the first Insert/Delete,
	// so bulk-loaded read-only stores never pay for it.
	//pgrdf:guardedby mu
	changeLog []Change
	// logBarrier is the newest version produced by a mutation the log
	// does not itemize (Load); no ChangesSince range may span it.
	//pgrdf:guardedby mu
	logBarrier uint64
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
	s := &Store{
		dict:     NewDict(),
		modelIDs: make(map[string]ModelID),
		virtual:  make(map[string][]ModelID),
		deltaSet: make(map[IDQuad]struct{}),
		dead:     make(map[IDQuad]struct{}),
	}
	for _, spec := range specs {
		if err := s.createIndexLocked(spec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Dict exposes the values table.
func (s *Store) Dict() *Dict { return s.dict }

// SetParallelism sets the worker budget for bulk operations (Load,
// Compact, CreateIndex). n <= 0 restores the default of
// runtime.GOMAXPROCS(0); 1 makes bulk loads fully serial. Safe to call
// concurrently with readers and writers.
func (s *Store) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	s.par.Store(int32(n))
}

// Parallelism returns the effective bulk-operation worker budget.
func (s *Store) Parallelism() int {
	if n := s.par.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// insertAllLocked merges a deduplicated batch into every index. With a
// worker budget above 1 the per-index merges run concurrently, and each
// index's batch sort gets an equal share of the remaining budget —
// bulk load builds all semantic-network indexes at once instead of one
// after another. Must be called with mu held.
//
//pgrdf:locks mu
func (s *Store) insertAllLocked(batch []IDQuad) {
	if len(batch) == 0 {
		return
	}
	w := s.Parallelism()
	if w <= 1 {
		for _, ix := range s.indexes {
			ix.insertSorted(append([]IDQuad(nil), batch...))
		}
		return
	}
	sortW := w / len(s.indexes)
	if sortW < 1 {
		sortW = 1
	}
	var wg sync.WaitGroup
	for _, ix := range s.indexes {
		wg.Add(1)
		go func(ix *Index) {
			defer wg.Done()
			ix.insertSortedN(append([]IDQuad(nil), batch...), sortW)
		}(ix)
	}
	wg.Wait()
}

// removeAllLocked applies tombstones to every index, concurrently when
// the worker budget allows. Must be called with mu held.
//
//pgrdf:locks mu
func (s *Store) removeAllLocked(del map[IDQuad]struct{}) {
	if len(del) == 0 {
		return
	}
	if s.Parallelism() <= 1 || len(s.indexes) == 1 {
		for _, ix := range s.indexes {
			ix.remove(del)
		}
		return
	}
	var wg sync.WaitGroup
	for _, ix := range s.indexes {
		wg.Add(1)
		go func(ix *Index) {
			defer wg.Done()
			ix.remove(del)
		}(ix)
	}
	wg.Wait()
}

// CreateIndex adds a semantic-network index with the given key spec
// (e.g. "GSPCM"), populating it from the current contents.
func (s *Store) CreateIndex(spec string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.createIndexLocked(spec)
}

//pgrdf:locks mu
func (s *Store) createIndexLocked(spec string) error {
	perm, err := ParsePermutation(spec)
	if err != nil {
		return err
	}
	for _, ix := range s.indexes {
		if ix.perm == perm {
			return fmt.Errorf("store: index %s already exists", spec)
		}
	}
	ix := NewIndex(perm)
	if len(s.indexes) > 0 {
		rows := make([]IDQuad, 0, s.indexes[0].Len())
		for _, q := range s.indexes[0].rows {
			rows = append(rows, q)
		}
		ix.build(rows, s.Parallelism())
	}
	s.indexes = append(s.indexes, ix)
	return nil
}

// DropIndex removes the index with the given key spec. The last index
// cannot be dropped.
func (s *Store) DropIndex(spec string) error {
	perm, err := ParsePermutation(spec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ix := range s.indexes {
		if ix.perm == perm {
			if len(s.indexes) == 1 {
				return fmt.Errorf("store: cannot drop the last index")
			}
			s.indexes = append(s.indexes[:i], s.indexes[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("store: no index %s", spec)
}

// Indexes returns the key specs of all indexes.
func (s *Store) Indexes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	specs := make([]string, len(s.indexes))
	for i, ix := range s.indexes {
		specs[i] = ix.perm.String()
	}
	return specs
}

// Model returns the ID for a semantic model, creating it if necessary.
func (s *Store) Model(name string) ModelID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.modelLocked(name)
}

//pgrdf:locks mu
func (s *Store) modelLocked(name string) ModelID {
	if id, ok := s.modelIDs[name]; ok {
		return id
	}
	s.modelNames = append(s.modelNames, name)
	id := ModelID(len(s.modelNames))
	s.modelIDs[name] = id
	return id
}

// LookupModel returns the ID for an existing model, or NoID.
func (s *Store) LookupModel(name string) ModelID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.modelIDs[name]
}

// ModelName returns the name of a model ID.
func (s *Store) ModelName(id ModelID) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id == NoID || int(id) > len(s.modelNames) {
		return ""
	}
	return s.modelNames[id-1]
}

// Models returns the names of all semantic models, in creation order.
func (s *Store) Models() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.modelNames...)
}

// CreateVirtualModel defines name as the union of the given models,
// mirroring Oracle's virtual semantic models (§3.1). Members may include
// previously defined virtual models; the union is flattened.
func (s *Store) CreateVirtualModel(name string, members ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.modelIDs[name]; exists {
		return fmt.Errorf("store: %q already names a semantic model", name)
	}
	var ids []ModelID
	seen := make(map[ModelID]struct{})
	for _, m := range members {
		var memberIDs []ModelID
		if vm, ok := s.virtual[m]; ok {
			memberIDs = vm
		} else if id, ok := s.modelIDs[m]; ok {
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
	s.virtual[name] = ids
	return nil
}

// ResolveDataset maps a model or virtual-model name to the set of model
// IDs it denotes. An empty name denotes all models.
func (s *Store) ResolveDataset(name string) ([]ModelID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.resolveDatasetLocked(name)
}

//pgrdf:locks mu
func (s *Store) resolveDatasetLocked(name string) ([]ModelID, error) {
	if name == "" {
		ids := make([]ModelID, len(s.modelNames))
		for i := range s.modelNames {
			ids[i] = ModelID(i + 1)
		}
		return ids, nil
	}
	if ids, ok := s.virtual[name]; ok {
		return append([]ModelID(nil), ids...), nil
	}
	if id, ok := s.modelIDs[name]; ok {
		return []ModelID{id}, nil
	}
	return nil, unknownModel(name)
}

// internQuad interns a quad's terms and returns its ID row.
func (s *Store) internQuad(m ModelID, q rdf.Quad) (IDQuad, error) {
	if err := q.Validate(); err != nil {
		return IDQuad{}, err
	}
	row := IDQuad{
		S: s.dict.Intern(q.S),
		P: s.dict.Intern(q.P),
		C: s.dict.Intern(q.O),
		M: m,
	}
	if !q.G.IsZero() {
		row.G = s.dict.Intern(q.G)
	}
	return row, nil
}

// Load bulk-loads quads into the named model, rebuilding all indexes
// once. This is the fast path corresponding to Oracle's N-Quads bulk
// load; prefer it over repeated Insert calls for large datasets.
func (s *Store) Load(model string, quads []rdf.Quad) (int, error) {
	rows := make([]IDQuad, 0, len(quads))
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.modelLocked(model)
	for _, q := range quads {
		row, err := s.internQuad(m, q)
		if err != nil {
			return 0, err
		}
		rows = append(rows, row)
	}
	s.compactLocked()
	// Deduplicate against existing contents and within the batch.
	fresh := rows[:0]
	batch := make(map[IDQuad]struct{}, len(rows))
	for _, row := range rows {
		if _, dup := batch[row]; dup {
			continue
		}
		if s.indexes[0].Contains(row) {
			continue
		}
		batch[row] = struct{}{}
		fresh = append(fresh, row)
	}
	s.insertAllLocked(fresh)
	s.count += len(fresh)
	if len(fresh) > 0 {
		s.logBarrier = s.version.Add(1)
	}
	return len(fresh), nil
}

// Version returns a counter bumped by every successful content
// mutation (Insert, Delete, Load that changed at least one quad).
// Consumers caching data derived from store contents — e.g. the
// optimizer's cardinality estimates — compare versions to decide
// whether their cache is still valid; ChangesSince tells a consumer
// that wants to follow the store what happened in between.
func (s *Store) Version() uint64 { return s.version.Load() }

// Insert adds a single quad to the model (incremental DML). Duplicate
// inserts are no-ops returning false.
func (s *Store) Insert(model string, q rdf.Quad) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.modelLocked(model)
	row, err := s.internQuad(m, q)
	if err != nil {
		return false, err
	}
	if _, dying := s.dead[row]; dying {
		delete(s.dead, row)
		s.count++
		s.logChangeLocked(row, false)
		return true, nil
	}
	if _, inDelta := s.deltaSet[row]; inDelta {
		return false, nil
	}
	if s.indexes[0].Contains(row) {
		return false, nil
	}
	s.delta = append(s.delta, row)
	s.deltaSet[row] = struct{}{}
	s.count++
	s.logChangeLocked(row, false)
	if len(s.delta) >= compactThreshold {
		s.compactLocked()
	}
	return true, nil
}

// Delete removes a single quad from the model. It returns false when the
// quad was not present.
func (s *Store) Delete(model string, q rdf.Quad) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.modelIDs[model]
	if !ok {
		return false, unknownModel(model)
	}
	if err := q.Validate(); err != nil {
		return false, err
	}
	row := IDQuad{S: s.dict.Lookup(q.S), P: s.dict.Lookup(q.P), C: s.dict.Lookup(q.O), M: m}
	if !q.G.IsZero() {
		row.G = s.dict.Lookup(q.G)
		if row.G == NoID {
			return false, nil
		}
	}
	if row.S == NoID || row.P == NoID || row.C == NoID {
		return false, nil
	}
	if _, inDelta := s.deltaSet[row]; inDelta {
		delete(s.deltaSet, row)
		for i, d := range s.delta {
			if d == row {
				s.delta = append(s.delta[:i], s.delta[i+1:]...)
				break
			}
		}
		s.count--
		s.logChangeLocked(row, true)
		return true, nil
	}
	if !s.indexes[0].Contains(row) {
		return false, nil
	}
	if _, dying := s.dead[row]; dying {
		return false, nil
	}
	s.dead[row] = struct{}{}
	s.count--
	s.logChangeLocked(row, true)
	if len(s.dead) >= compactThreshold {
		s.compactLocked()
	}
	return true, nil
}

// Compact merges the delta buffer into the sorted indexes and applies
// tombstones.
func (s *Store) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactLocked()
}

//pgrdf:locks mu
func (s *Store) compactLocked() {
	if len(s.dead) > 0 {
		s.removeAllLocked(s.dead)
		s.dead = make(map[IDQuad]struct{})
	}
	if len(s.delta) > 0 {
		s.insertAllLocked(s.delta)
		s.delta = s.delta[:0]
		s.deltaSet = make(map[IDQuad]struct{})
	}
}

// Len returns the number of live quads across all models.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// ModelLen returns the number of live quads in one model.
func (s *Store) ModelLen(model string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.modelIDs[model]
	if !ok {
		return 0
	}
	n := 0
	p := AnyPattern()
	p.M = m
	s.scanLocked(p, func(IDQuad) bool { n++; return true })
	return n
}

// ChooseIndex returns the index that best serves the pattern: the one
// with the longest bound key prefix, ties broken by the smaller estimated
// range. This is the store's "optimizer hint" used by the SPARQL engine
// and reported in query plans.
func (s *Store) ChooseIndex(p Pattern) *Index {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.chooseIndexLocked(p)
}

//pgrdf:locks mu
func (s *Store) chooseIndexLocked(p Pattern) *Index {
	best := s.indexes[0]
	bestPrefix := best.prefixLen(p)
	for _, ix := range s.indexes[1:] {
		n := ix.prefixLen(p)
		if n > bestPrefix {
			best, bestPrefix = ix, n
			continue
		}
		// Tie-break by estimated range size only for single-column
		// prefixes: two indexes with the same prefix LENGTH >= 2 cover
		// the same bound-column set in practice (the range size depends
		// only on the set, not the order), so the extra binary searches
		// would be pure overhead on the per-probe NLJ path.
		if n == bestPrefix && n == 1 && ix.EstimateCount(p) < best.EstimateCount(p) {
			best = ix
		}
	}
	return best
}

// ChooseIndexByBound returns the spec of the index that would serve a
// pattern whose bound columns are exactly cols: the index with the
// longest key prefix covered by the bound set, ties broken by creation
// order. Used for EXPLAIN-style plan reporting when concrete IDs are not
// yet known.
func (s *Store) ChooseIndexByBound(cols []Col) string {
	var bound [numCols]bool
	for _, c := range cols {
		bound[c] = true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	best, bestPrefix := s.indexes[0], -1
	for _, ix := range s.indexes {
		n := 0
		for _, c := range ix.perm {
			if !bound[c] {
				break
			}
			n++
		}
		if n > bestPrefix {
			best, bestPrefix = ix, n
		}
	}
	return best.perm.String()
}

// Scan calls fn for each quad matching the pattern, choosing the best
// index automatically. fn returning false stops iteration. The delta
// buffer is merged in, and tombstoned rows are skipped.
func (s *Store) Scan(p Pattern, fn func(IDQuad) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.scanLocked(p, fn)
}

//pgrdf:locks mu
func (s *Store) scanLocked(p Pattern, fn func(IDQuad) bool) {
	fn = s.faultWrap(fn)
	ix := s.chooseIndexLocked(p)
	stopped := false
	ix.Scan(p, func(q IDQuad) bool {
		if _, gone := s.dead[q]; gone {
			return true
		}
		if !fn(q) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for _, q := range s.delta {
		if p.Matches(q) && !fn(q) {
			return
		}
	}
}

// ScanIndex is like Scan but forces a particular index (for plan tests
// and ablations). The spec must name an existing index.
func (s *Store) ScanIndex(spec string, p Pattern, fn func(IDQuad) bool) error {
	perm, err := ParsePermutation(spec)
	if err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn = s.faultWrap(fn)
	for _, ix := range s.indexes {
		if ix.perm == perm {
			ix.Scan(p, func(q IDQuad) bool {
				if _, gone := s.dead[q]; gone {
					return true
				}
				return fn(q)
			})
			for _, q := range s.delta {
				if p.Matches(q) && !fn(q) {
					break
				}
			}
			return nil
		}
	}
	return fmt.Errorf("store: no index %s", spec)
}

// EstimateCount estimates the number of quads matching the pattern using
// the best index's bound-prefix range. It is an upper bound and costs
// O(log n).
func (s *Store) EstimateCount(p Pattern) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.chooseIndexLocked(p).EstimateCount(p)
	if len(s.delta) > 0 {
		for _, q := range s.delta {
			if p.Matches(q) {
				n++
			}
		}
	}
	return n
}

// Contains reports whether the quad exists in the model.
func (s *Store) Contains(model string, q rdf.Quad) bool {
	s.mu.RLock()
	m, ok := s.modelIDs[model]
	s.mu.RUnlock()
	if !ok {
		return false
	}
	row := IDQuad{S: s.dict.Lookup(q.S), P: s.dict.Lookup(q.P), C: s.dict.Lookup(q.O), M: m}
	if !q.G.IsZero() {
		row.G = s.dict.Lookup(q.G)
		if row.G == NoID {
			return false
		}
	}
	if row.S == NoID || row.P == NoID || row.C == NoID {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, gone := s.dead[row]; gone {
		return false
	}
	if _, inDelta := s.deltaSet[row]; inDelta {
		return true
	}
	return s.indexes[0].Contains(row)
}

// Quads materializes the quads matching the pattern as rdf.Quads, in
// index order. Intended for tests, export and small results.
func (s *Store) Quads(p Pattern) []rdf.Quad {
	var out []rdf.Quad
	s.Scan(p, func(q IDQuad) bool {
		out = append(out, s.quadTerms(q))
		return true
	})
	return out
}

func (s *Store) quadTerms(q IDQuad) rdf.Quad {
	r := rdf.Quad{S: s.dict.Term(q.S), P: s.dict.Term(q.P), O: s.dict.Term(q.C)}
	if q.G != NoID {
		r.G = s.dict.Term(q.G)
	}
	return r
}

// Export returns all quads of a model in deterministic order, suitable
// for N-Quads serialization.
func (s *Store) Export(model string) ([]rdf.Quad, error) {
	s.mu.RLock()
	m, ok := s.modelIDs[model]
	s.mu.RUnlock()
	if !ok {
		return nil, unknownModel(model)
	}
	p := AnyPattern()
	p.M = m
	quads := s.Quads(p)
	sort.Slice(quads, func(i, j int) bool { return rdf.CompareQuads(quads[i], quads[j]) < 0 })
	return quads, nil
}
