// Package storetest holds helpers for tests that compare stores.
package storetest

import (
	"fmt"
	"strings"

	"repro/internal/store"
)

// Fingerprint renders everything a snapshot of v carries as canonical
// text: the index configuration, the model names in creation order
// (empty models included), each virtual model with its members in
// definition order, sorted by name, and each model's quads in Export
// order. Two stores hold the same state exactly when their fingerprints
// are equal, so differentials — a recovered store against the one that
// was served, a follower against its leader — compare fingerprints.
func Fingerprint(v *store.View) string {
	var b strings.Builder
	fmt.Fprintf(&b, "indexes %q\n", v.Indexes())
	// Every name below comes from v itself, so ResolveDataset and Export
	// cannot report an unknown model.
	for _, name := range v.VirtualModels() {
		ids, _ := v.ResolveDataset(name)
		members := make([]string, len(ids))
		for i, id := range ids {
			members[i] = v.ModelName(id)
		}
		fmt.Fprintf(&b, "virtual %q = %q\n", name, members)
	}
	for _, m := range v.Models() {
		fmt.Fprintf(&b, "model %q\n", m)
		quads, _ := v.Export(m)
		for _, q := range quads {
			fmt.Fprintf(&b, "%s .\n", q)
		}
	}
	return b.String()
}
