package store

// Storage accounting for Table 9 ("Physical storage characteristics").
//
// The model is deliberately simple but preserves the effects the paper
// reports: the quads table grows linearly with rows; the values table
// with distinct lexical bytes; and each index costs one entry per row
// whose key cells are PREFIX-COMPRESSED in key order — so an index whose
// leading columns repeat heavily (PCSGM: few distinct predicates) is
// smaller than one whose leading column is nearly unique per row (GPSCM
// on NG data: one named graph per edge).
const (
	// bytesPerTableRow approximates a stored quads-table row: five ID
	// columns plus row overhead.
	bytesPerTableRow = 38
	// bytesPerValueOverhead is the per-entry overhead of the values
	// table on top of the lexical bytes.
	bytesPerValueOverhead = 12
	// bytesPerKeyCell is the cost of one uncompressed index key cell.
	bytesPerKeyCell = 8
	// bytesPerIndexEntry is the per-entry rowid + slot overhead.
	bytesPerIndexEntry = 6
)

// ObjectSize reports the estimated size of one database object.
type ObjectSize struct {
	Name  string
	Bytes int64
}

// StorageReport mirrors Table 9: per-object estimated sizes plus the
// total.
type StorageReport struct {
	Objects []ObjectSize
	Total   int64
}

// MB returns the size of the named object in megabytes (0 when absent).
func (r StorageReport) MB(name string) float64 {
	for _, o := range r.Objects {
		if o.Name == name {
			return float64(o.Bytes) / (1 << 20)
		}
	}
	return 0
}

// TotalMB returns the total size in megabytes.
func (r StorageReport) TotalMB() float64 { return float64(r.Total) / (1 << 20) }

// Storage computes the estimated physical storage of the store: the
// quads (triples) table, the values table, and every index. An index is
// costed on its base array, so the report moves with compaction, not
// with each write.
func (v *View) Storage() StorageReport {
	var rep StorageReport
	dict := v.st.dict
	table := ObjectSize{Name: "Triples Table", Bytes: int64(v.Len()) * bytesPerTableRow}
	values := ObjectSize{
		Name:  "Values Table",
		Bytes: dict.LexicalBytes() + int64(dict.Len())*bytesPerValueOverhead,
	}
	rep.Objects = append(rep.Objects, table, values)
	rep.Total = table.Bytes + values.Bytes
	for i := range v.runs {
		r := &v.runs[i]
		b := r.keyCompressedCells()*bytesPerKeyCell + int64(len(r.base))*bytesPerIndexEntry
		o := ObjectSize{Name: r.ix.perm.String() + " Index", Bytes: b}
		rep.Objects = append(rep.Objects, o)
		rep.Total += b
	}
	return rep
}
