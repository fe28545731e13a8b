package storetest_test

import (
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// build makes a store with the given indexes, models a and b loaded in
// the given order, an empty model when empty is set, and a virtual
// model v over members.
func build(t *testing.T, indexes, order []string, empty bool, members ...string) *store.Store {
	t.Helper()
	st, err := store.NewWithIndexes(indexes)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range order {
		q := rdf.Quad{S: rdf.NewIRI("http://pg/" + m), P: rdf.NewIRI("http://pg/k/name"), O: rdf.NewLiteral(m)}
		if _, err := st.Insert(m, q); err != nil {
			t.Fatal(err)
		}
	}
	if empty {
		st.Model("e")
	}
	if err := st.CreateVirtualModel("v", members...); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFingerprintSeesEveryPart: equal stores fingerprint equal, and a
// store that differs in any part a snapshot carries fingerprints
// differently.
func TestFingerprintSeesEveryPart(t *testing.T) {
	two := []string{"PCSGM", "PSCGM"}
	ab := []string{"a", "b"}
	want := storetest.Fingerprint(build(t, two, ab, true, "a", "b").View())
	if got := storetest.Fingerprint(build(t, two, ab, true, "a", "b").View()); got != want {
		t.Fatalf("equal stores fingerprint differently:\n%s\nvs\n%s", got, want)
	}
	variants := map[string]*store.Store{
		"no empty model":     build(t, two, ab, false, "a", "b"),
		"one virtual member": build(t, two, ab, true, "a"),
		"members reordered":  build(t, two, ab, true, "b", "a"),
		"one index":          build(t, []string{"PCSGM"}, ab, true, "a", "b"),
		"models reordered":   build(t, two, []string{"b", "a"}, true, "a", "b"),
		"an extra quad":      build(t, two, ab, true, "a", "b"),
	}
	extra := rdf.Quad{S: rdf.NewIRI("http://pg/x"), P: rdf.NewIRI("http://pg/k/name"), O: rdf.NewLiteral("x")}
	if _, err := variants["an extra quad"].Insert("e", extra); err != nil {
		t.Fatal(err)
	}
	for name, st := range variants {
		if storetest.Fingerprint(st.View()) == want {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
}
