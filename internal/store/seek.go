package store

import (
	"math"
	"slices"
	"sort"
)

// Seeks: the access path of the engine's sorted intersection joins
// (DESIGN.md §20). A join step that binds one variable and the steps
// that only check it can all read their candidates for that variable
// from an index whose key is the step's bound columns followed by the
// variable's column; for one binding those rows are a key range sorted
// by the variable, so the steps intersect instead of scanning and
// probing a hash table. A Seeker serves such a step for a whole query:
// it resolves the pattern's constant key prefix once, and each Seek
// narrows that range by the columns the current binding fixes.

// Seeker reads one index of a View under a fixed constant key prefix.
// It holds no lock and needs no release; like the View it came from it
// sees one store version. A Seeker is not safe for concurrent use: each
// executor opens its own.
type Seeker struct {
	st       *Store
	r        *run
	n0       int      // length of the constant key prefix
	base     []IDQuad // base rows under the constant prefix
	from, to dpos     // delta entries under the constant prefix
	buf      []IDQuad // merged rows of the last Seek that met the delta

	// The directory of the constant-prefix base range (DirPayback) over
	// the values of the key column after the constant prefix. narrows
	// counts the one-column narrows until the directory is built or
	// declined, then is -1; built and dirHit report the last Seek
	// (LastSeek).
	dir     colDir
	narrows int
	built   int
	dirHit  bool
}

// DirPayback decides when a Seeker builds its directory: at the
// one-column narrow that brings the narrows times DirPayback to the
// rows of its constant-prefix range. The build reads each of those rows
// once, in order (DirSpan keeps the table it writes smaller than they
// are); every narrow after it reads its run's bounds from two adjacent
// entries instead of searching the rows, whose deep levels miss the
// cache. A narrow that searches the rows costs about as much as reading
// DirPayback rows in order, so the build costs about what the narrows
// before it did: a seeker that stops right after it pays at most about
// twice what searching alone would have, and one that keeps narrowing
// gains (DESIGN.md §20).
const DirPayback = 64

// DirSpan bounds a directory, a Seeker's or an index run's (colDir): a
// range of rows gets one only when its values span at most DirSpan IDs
// per row, so the table's 4-byte entries add at most a fifth to the
// 40-byte rows the build reads. A range whose values span more keeps
// searching rows. On NG data the follows range's nodes span 1.08 IDs
// per row, interleaved with the edges' graph IDs; on SP data they span
// 0.04. A whole run's first column spans at most the dictionary, which
// at NG scale 0.05 is 0.39 IDs per row.
const DirSpan = 2

// colDir is a direct-address directory over one key column of sorted
// rows (DESIGN.md §20): starts[id-lo] is where id's run of rows starts
// — the next value's start when the rows hold no id — and the last
// entry is len(rows). Locating a value's run reads two adjacent entries
// instead of searching the rows. The zero colDir has no table.
type colDir struct {
	lo     ID
	starts []uint32
}

// newColDir builds the directory of rows, which must be sorted by c, in
// one pass, when their values of c span at most DirSpan IDs per row and
// the starts fit 32 bits; otherwise it returns the zero colDir.
func newColDir(rows []IDQuad, c Col) colDir {
	if len(rows) == 0 || len(rows) > math.MaxUint32 {
		return colDir{}
	}
	lo, hi := rows[0].Get(c), rows[len(rows)-1].Get(c)
	if hi-lo >= DirSpan*ID(len(rows)) {
		return colDir{}
	}
	starts := make([]uint32, hi-lo+2)
	next := lo // the smallest value whose start is not set yet
	for i, q := range rows {
		for v := q.Get(c); next <= v; next++ {
			starts[next-lo] = uint32(i)
		}
	}
	starts[len(starts)-1] = uint32(len(rows))
	return colDir{lo: lo, starts: starts}
}

// locate returns the half-open range of the rows whose column holds id.
// An id outside the directory's span has no rows: its empty range is
// where a search would put it, before the first row or after the last.
// The directory must have a table.
func (d colDir) locate(id ID) (from, to int) {
	// Below lo the difference wraps past every entry.
	if i := id - d.lo; i < ID(len(d.starts)-1) {
		return int(d.starts[i]), int(d.starts[i+1])
	}
	if id < d.lo {
		return 0, 0
	}
	n := int(d.starts[len(d.starts)-1])
	return n, n
}

// SeekIndex returns the first index whose key starts with the columns
// of bound, in any order, followed by next: the index a Seeker over
// those columns must read so that the rows of one Seek come back sorted
// by next. It returns nil when no index has that key.
func (v *View) SeekIndex(bound []Col, next Col) *Index {
	var want [numCols]bool
	for _, c := range bound {
		want[c] = true
	}
	for i := range v.runs {
		perm := v.runs[i].ix.perm
		n := 0
		for n < len(perm) && want[perm[n]] {
			n++
		}
		if n == len(bound) && n < len(perm) && perm[n] == next {
			return v.runs[i].ix
		}
	}
	return nil
}

// Seeker opens a seeker on index ix (a SeekIndex result) for patterns
// whose constant columns are p's bound ones; the leading key columns p
// binds form the range every Seek starts from. It returns nil when ix
// is not an index of the view.
func (v *View) Seeker(ix *Index, p Pattern) *Seeker {
	for i := range v.runs {
		r := &v.runs[i]
		if r.ix != ix {
			continue
		}
		n0 := r.ix.prefixLen(p)
		lo, hi := r.baseRange(p, n0)
		from, to := r.deltaRange(p, n0)
		return &Seeker{st: v.st, r: r, n0: n0, base: r.base[lo:hi], from: from, to: to}
	}
	return nil
}

// Seek returns the live rows whose key columns equal p's bound ones, in
// key order, so sorted by the first key column p leaves unbound. p must
// bind the seeker's constant columns with the same values, and its bound
// columns must be a key prefix (the seeker's constant prefix and the
// columns after it). The rows are a zero-copy subslice of the version's
// base array when no delta entry falls inside the range; otherwise the
// range is merged with its delta entries through the scan kernel into a
// buffer the next Seek reuses — tombstoned rows are absent, inserted
// ones present. Either way the slice is valid until the next Seek and
// must not be mutated. A Seek that narrows by the one column after the
// constant prefix searches the base rows until the seeker has done that
// often enough (DirPayback), then builds a directory of the range's
// runs and from then on looks the run up in it (narrowOne). Each Seek
// counts as one range scan of the index, and an installed FaultInjector
// observes every row it returns.
func (s *Seeker) Seek(p Pattern) []IDQuad {
	s.r.ix.rangeScans.Add(1)
	s.built, s.dirHit = 0, false
	rows := s.narrow(p)
	if f := s.st.fault.Load(); f != nil {
		for range rows {
			f.observeRow()
		}
	}
	return rows
}

// LastSeek reports what the last Seek did beyond returning its rows:
// built is how many base rows it read to build the directory (zero
// unless that Seek built it), and dir whether the directory located its
// range.
func (s *Seeker) LastSeek() (built int, dir bool) {
	return s.built, s.dirHit
}

// narrow resolves p's range inside the constant-prefix base range and
// merges it with the delta entries inside it, if any. When more than
// one column narrows the range, it binary-searches the rows; when one
// does (the usual case), narrowOne finds the run.
func (s *Seeker) narrow(p Pattern) []IDQuad {
	r := s.r
	n := r.ix.prefixLen(p)
	rows := s.base
	switch cols := r.ix.perm[s.n0:n]; len(cols) {
	case 0:
	case 1:
		rows = s.narrowOne(cols[0], p.Get(cols[0]))
	default:
		rows = rows[sort.Search(len(rows), func(i int) bool { return compareKey(rows[i], p, cols) >= 0 }):]
		rows = rows[:sort.Search(len(rows), func(i int) bool { return compareKey(rows[i], p, cols) > 0 })]
	}
	if s.from != s.to {
		if from, to := r.deltaRange(p, n); from != to {
			s.buf = s.buf[:0]
			r.merge(rows, from, to, AnyPattern(), DefaultBatchRows, func(run []IDQuad) bool {
				s.buf = append(s.buf, run...)
				return true
			})
			rows = s.buf
		}
	}
	return rows
}

// narrowOne returns the base rows whose column c — the one after the
// constant prefix, which sorts the constant-prefix range — holds id:
// from the directory once it is built (an id outside its span has no
// entry and no rows), else by a binary search of the rows for the start
// and a gallop to the (usually near) end.
func (s *Seeker) narrowOne(c Col, id ID) []IDQuad {
	rows := s.base
	if s.narrows >= 0 {
		if s.narrows++; s.narrows*DirPayback >= len(rows) {
			s.narrows = -1
			s.buildDir(c)
		}
	}
	if s.dir.starts != nil {
		s.dirHit = true
		from, to := s.dir.locate(id)
		return rows[from:to]
	}
	lo, hi := 0, len(rows)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); rows[m].Get(c) < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	rows = rows[lo:]
	return rows[:SeekCol(rows, 0, c, id+1)]
}

// buildDir builds the directory of the constant-prefix base range,
// which is sorted by c, when its values span at most DirSpan IDs per
// row (newColDir); otherwise it builds nothing.
func (s *Seeker) buildDir(c Col) {
	if s.dir = newColDir(s.base, c); s.dir.starts != nil {
		s.built = len(s.base)
	}
}

// compareKey compares q's values in the key columns cols with p's: -1,
// 0 or +1 as q sorts before, inside or after the range they address.
func compareKey(q IDQuad, p Pattern, cols []Col) int {
	for _, c := range cols {
		if qv, pv := q.Get(c), p.Get(c); qv != pv {
			if qv < pv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Leapfrog advances sorted row ranges to the next value they all hold
// (Veldhuizen's leapfrog join): rows[i] must be sorted by column
// cols[i] from pos[i] on, and every side in turn gallops to the largest
// value any side is at until all agree. It returns that value with each
// pos[i] at the side's first row holding it, and the number of gallops
// it took; ok is false once a side runs out.
func Leapfrog(rows [][]IDQuad, cols []Col, pos []int) (x ID, seeks int, ok bool) {
	for i, r := range rows {
		if pos[i] == len(r) {
			return 0, seeks, false
		}
		x = max(x, r[pos[i]].Get(cols[i]))
	}
	for {
		agree := true
		for i, r := range rows {
			p, c := pos[i], cols[i]
			if r[p].Get(c) < x {
				if p = SeekCol(r, p, c, x); p == len(r) {
					return 0, seeks, false
				}
				pos[i] = p
				seeks++
			}
			if y := r[p].Get(c); y != x {
				x, agree = y, false
			}
		}
		if agree {
			return x, seeks, true
		}
	}
}

// Marks is a set of IDs held as a bitmap indexed by ID: the side of a
// two-sided intersection whose range repeats across input rows (DESIGN.md
// §20). Mark sets the values of one range, Probe walks the other side's
// rows testing each value against the bitmap, Sum adds up what such a
// walk would hit (DESIGN.md §22), and Clear unsets exactly the values
// Mark set — from its own copy of them, since a Seek's rows may live in
// a buffer the seeker's next Seek reuses — so no row pays a memclr. The
// bitmap grows to the largest ID ever marked: at most one bit per
// dictionary term. The zero Marks is empty and ready to use.
type Marks struct {
	bits []uint64
	ids  []ID // the values set, for Clear
	// simple says each value set is held by one marked row and every
	// marked row is visible: a hit then stands for exactly one row.
	simple bool
}

// Mark adds the values of column c of rows, which must be sorted by c,
// to the set. visible reports which rows the reader sees (nil: every
// row); it decides only whether the marks are simple.
func (m *Marks) Mark(rows []IDQuad, c Col, visible func(IDQuad) bool) {
	prev := NoID
	m.simple = len(m.ids) == 0
	for _, q := range rows {
		if visible != nil && !visible(q) {
			m.simple = false
		}
		id := q.Get(c)
		if id == prev {
			m.simple = false
			continue
		}
		prev = id
		w := int(id >> 6)
		if w >= len(m.bits) {
			m.bits = slices.Grow(m.bits, w+1-len(m.bits))[:w+1]
		}
		m.bits[w] |= 1 << (id & 63)
		m.ids = append(m.ids, id)
	}
}

// Clear empties the set and returns how many values it unset.
func (m *Marks) Clear() int {
	for _, id := range m.ids {
		m.bits[id>>6] &^= 1 << (id & 63)
	}
	n := len(m.ids)
	m.ids = m.ids[:0]
	return n
}

// has reports whether bits holds x.
func has(bits []uint64, x ID) bool {
	i := x >> 6
	return i < ID(len(bits)) && bits[i]&(1<<(x&63)) != 0
}

// Probe is Leapfrog for two sides when the marks hold the values of
// side marked's range: it walks the other side's rows one by one from
// its position, testing each value against the marks, to the first
// value both sides hold, then gallops the marked side to its first row
// holding that value. It returns the value with each side's position at
// it, and its cost: the rows walked past plus one for the hit; ok is
// false once the walk runs out. Values come in the walked side's key
// order, ascending like Leapfrog's.
func (m *Marks) Probe(rows [][]IDQuad, cols []Col, pos []int, marked int) (x ID, cost int, ok bool) {
	w := 1 - marked
	r, c, from := rows[w], cols[w], pos[w]
	bits := m.bits
	for p := from; p < len(r); p++ {
		if x = r[p].Get(c); !has(bits, x) {
			continue
		}
		pos[w] = p
		pos[marked] = SeekCol(rows[marked], pos[marked], cols[marked], x)
		return x, p - from + 1, true
	}
	pos[w] = len(r)
	return 0, len(r) - from, false
}

// Sum is every remaining Probe of a walk added up, when the marks hold
// the values of side marked's range: over the values both sides hold,
// it sums the product of the two sides' numbers of rows holding the
// value that visible accepts (nil: every row), and returns that sum and
// the last value whose product is nonzero. When the marks are simple a
// hit is one visible marked row, so the walk never looks at the marked
// side: per walked row it tests the bitmap and, on a hit, the row's
// visibility. Otherwise each value hit gallops the marked side to its
// run and counts it. cost is the rows walked plus the marked rows
// counted. Both sides end at their ends.
func (m *Marks) Sum(rows [][]IDQuad, cols []Col, pos []int, marked int, visible func(IDQuad) bool) (sum int64, last ID, cost int) {
	w := 1 - marked
	r := rows[w][pos[w]:]
	pos[w] = len(rows[w])
	cost = len(r)
	bits := m.bits
	if !m.simple {
		mr, mc, mp := rows[marked], cols[marked], pos[marked]
		prev, mult := NoID, int64(0)
		for _, q := range r {
			x := q.Get(cols[w])
			if !has(bits, x) || visible != nil && !visible(q) {
				continue
			}
			if x != prev {
				prev, mult, mp = x, 0, SeekCol(mr, mp, mc, x)
				for ; mp < len(mr) && mr[mp].Get(mc) == x; mp++ {
					cost++
					if visible == nil || visible(mr[mp]) {
						mult++
					}
				}
			}
			if mult > 0 {
				sum, last = sum+mult, x
			}
		}
		pos[marked] = mp
		return sum, last, cost
	}
	// The walk loop specialised for the column EQ12's walk reads:
	// IDQuad.Get's switch per row costs about as much as the bitmap test.
	hit := func(q IDQuad, x ID) {
		if visible == nil || visible(q) {
			sum, last = sum+1, x
		}
	}
	switch cols[w] {
	case ColS:
		for i := range r {
			if x := r[i].S; has(bits, x) {
				hit(r[i], x)
			}
		}
	default:
		for _, q := range r {
			if x := q.Get(cols[w]); has(bits, x) {
				hit(q, x)
			}
		}
	}
	pos[marked] = len(rows[marked])
	return sum, last, cost
}

// Orbit is the rule by which a count over a pattern that rotating three
// of its variables (x → y → z → x) maps onto itself counts each orbit
// of solutions once (DESIGN.md §22): every rotation of a solution is a
// solution, so the count takes the one whose (x, y, z) is the least of
// its rotations in the order the indexes sort IDs by and weighs it by
// the rotations it stands for. Orbit returns that weight for (x, y, z):
// 3, or 1 when x = y = z, its only rotation; 0 when it is not the
// least — x > y, z < x, or x = z < y, whose rotation (x, x, y) is less.
func Orbit(x, y, z ID) int64 {
	switch {
	case x > y || z < x:
		return 0
	case z > x:
		return 3
	case x == y:
		return 1
	}
	return 0
}

// OrbitLead reports whether a solution binding x and y can be the least
// of its rotations whatever z is: x ≤ y.
func OrbitLead(x, y ID) bool { return x <= y }

// SeekColNear is SeekCol over all of rows searching on from hint, the
// answer of an earlier search of the same rows for an ID at most id,
// when the answer lies there; otherwise from the first row.
func SeekColNear(rows []IDQuad, hint int, c Col, id ID) int {
	if hint > len(rows) || hint > 0 && rows[hint-1].Get(c) >= id {
		hint = 0
	}
	return SeekCol(rows, hint, c, id)
}

// seekLinear is how many rows SeekCol steps through one by one before it
// gallops.
const seekLinear = 8

// SeekCol returns the index of the first of rows[from:] whose column c
// is at least id, or len(rows). Those rows must be sorted by c, as a
// Seek's rows are by the first column its pattern leaves unbound. The
// answer is usually near from — an intersection advances through a
// range — so it probes at doubling distances, then binary-searches the
// last gap.
func SeekCol(rows []IDQuad, from int, c Col, id ID) int {
	// Most moves are short: step through the next few rows (adjacent in
	// memory) before galloping.
	for end := min(from+seekLinear, len(rows)); from < end; from++ {
		if rows[from].Get(c) >= id {
			return from
		}
	}
	if from == len(rows) {
		return from
	}
	before, step := from-1, 1 // rows[before] sorts before id
	for before+step < len(rows) && rows[before+step].Get(c) < id {
		before += step
		step *= 2
	}
	lo, hi := before+1, min(before+step, len(rows))
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); rows[m].Get(c) < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
