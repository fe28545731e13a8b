package pgrdf

import (
	"fmt"

	"repro/internal/store"
)

// ModelNames are the semantic-model names used when loading a dataset
// into a store under a prefix.
type ModelNames struct {
	// Topology, NodeKV and EdgeKV are the three partitions of §3.2.
	Topology, NodeKV, EdgeKV string
	// All is a virtual model over all three (the paper's virtual model
	// mechanism for queries spanning partitions).
	All string
	// TopoNodeKV is a virtual model over topology + node KVs (used by
	// node-centric queries, Table 4).
	TopoNodeKV string
	// TopoEdgeKV is a virtual model over topology + edge KVs (what NG
	// edge+edge-KV queries need, Table 4).
	TopoEdgeKV string
}

// PartitionNames derives the standard model names for a prefix.
func PartitionNames(prefix string) ModelNames {
	return ModelNames{
		Topology:   prefix + "_topo",
		NodeKV:     prefix + "_nodekv",
		EdgeKV:     prefix + "_edgekv",
		All:        prefix,
		TopoNodeKV: prefix + "_topo_nodekv",
		TopoEdgeKV: prefix + "_topo_edgekv",
	}
}

// LoadPartitioned bulk-loads a dataset into three semantic models
// (partitions) and defines the virtual models of §3.2. It returns the
// model names; query the .All virtual model for full coverage, or a
// narrower partition for partition-local scans.
func LoadPartitioned(st *store.Store, ds *Dataset, prefix string) (ModelNames, error) {
	names := PartitionNames(prefix)
	if _, err := st.Load(names.Topology, ds.Topology); err != nil {
		return names, fmt.Errorf("pgrdf: loading topology partition: %w", err)
	}
	if _, err := st.Load(names.NodeKV, ds.NodeKV); err != nil {
		return names, fmt.Errorf("pgrdf: loading node-KV partition: %w", err)
	}
	if _, err := st.Load(names.EdgeKV, ds.EdgeKV); err != nil {
		return names, fmt.Errorf("pgrdf: loading edge-KV partition: %w", err)
	}
	if err := st.CreateVirtualModel(names.All, names.Topology, names.NodeKV, names.EdgeKV); err != nil {
		return names, err
	}
	if err := st.CreateVirtualModel(names.TopoNodeKV, names.Topology, names.NodeKV); err != nil {
		return names, err
	}
	if err := st.CreateVirtualModel(names.TopoEdgeKV, names.Topology, names.EdgeKV); err != nil {
		return names, err
	}
	return names, nil
}

// LoadSingle bulk-loads a dataset into one semantic model (the
// unpartitioned baseline for the partitioning ablation).
func LoadSingle(st *store.Store, ds *Dataset, model string) error {
	if _, err := st.Load(model, ds.All()); err != nil {
		return fmt.Errorf("pgrdf: loading %s: %w", model, err)
	}
	return nil
}

// RecommendedIndexes returns the semantic-network indexes §4.4 creates
// for a scheme: PCSGM, PSCGM, SPCGM always, and GPSCM when an edge
// template puts the edge resource in the graph slot (NG; SP stores no
// named graphs, which is why Table 9's totals come out similar despite
// SP's extra triples). EQ1–EQ12's NG and SP plans use exactly this set,
// which `pgrdf` builds for the scheme it detects in a file it loads.
func RecommendedIndexes(s Scheme) []string {
	base := []string{"PCSGM", "PSCGM", "SPCGM"}
	if encodings[s].edgeHas(func(t Template) bool { return t.G == Edge }) {
		return append(base, "GPSCM")
	}
	return base
}

// NewStore creates a store with the recommended indexes for a scheme.
func NewStore(s Scheme) (*store.Store, error) {
	return store.NewWithIndexes(RecommendedIndexes(s))
}
