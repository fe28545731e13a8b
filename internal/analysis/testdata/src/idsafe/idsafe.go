// Package idsafetest exercises the idsafe analyzer outside the store
// package, where dictionary IDs must stay opaque.
package idsafetest

import (
	"repro/internal/rdf"
	"repro/internal/store"
)

func badArith(a, b store.ID, n int) store.ID {
	x := a + 1 // want "arithmetic \\(\\+\\) on a store.ID"
	x = a - b  // want "arithmetic \\(-\\) on a store.ID"
	x = a | b  // want "arithmetic \\(\\|\\) on a store.ID"
	x = a << 2 // want "arithmetic \\(<<\\) on a store.ID"
	return x
}

func badOrder(a, b store.ID) bool {
	if a < b { // want "ordering store.IDs with <"
		return true
	}
	return a >= b // want "ordering store.IDs with >="
}

// badReach has the shape of the recorded catch (DESIGN.md §9): a path's
// end test that orders IDs instead of comparing them.
func badReach(reached []store.ID, end store.ID, write func() bool) bool {
	for _, node := range reached {
		if node <= end && !write() { // want "ordering store.IDs with <="
			return false
		}
	}
	return true
}

func badMutate(a store.ID) store.ID {
	a += 2 // want "compound arithmetic assignment \\(\\+=\\) on a store.ID"
	a++    // want "\\+\\+ on a store.ID"
	return a
}

func badFabricate(n int, u uint64) store.ID {
	x := store.ID(n) // want "store.ID fabricated from a non-constant integer"
	x = store.ID(u)  // want "store.ID fabricated from a non-constant integer"
	return x
}

func good(d *store.Dict, t rdf.Term, a, b store.ID) bool {
	id := d.Intern(t)     // the dictionary is the only ID mint
	if id == store.NoID { // equality against sentinels is the contract
		return false
	}
	if a == b || a != b {
		return true
	}
	seen := map[store.ID]bool{a: true} // IDs as opaque map keys are fine
	_ = seen
	const fixture = store.ID(7) // constant conversions: test fixtures, sentinels
	p := store.Pattern{S: a, P: store.Any, C: store.Any, G: store.Any, M: store.Any}
	_ = p
	return fixture == b
}

func suppressed(a store.ID) uint64 {
	//pgrdfvet:ignore idsafe -- hashing an ID for shard routing keeps equal IDs together
	return uint64(a * 0x9e3779b97f4a7c15)
}
