package store

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rdf"
)

func logQuad(i int) rdf.Quad {
	return rdf.Quad{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLiteral(fmt.Sprintf("o%d", i))}
}

// TestChangesSinceExact: one entry per version bump, in order, naming
// the quad and the direction; no-op mutations log nothing.
func TestChangesSinceExact(t *testing.T) {
	st := New()
	v0 := st.Version()
	must := func(changed bool, err error) {
		t.Helper()
		if err != nil || !changed {
			t.Fatalf("changed=%v err=%v", changed, err)
		}
	}
	must(st.Insert("m", logQuad(1)))
	must(st.Insert("m", logQuad(2)))
	if changed, _ := st.Insert("m", logQuad(2)); changed {
		t.Fatal("duplicate insert reported a change")
	}
	must(st.Delete("m", logQuad(1)))
	if changed, _ := st.Delete("m", logQuad(1)); changed {
		t.Fatal("second delete reported a change")
	}
	st.Compact() // moves rows between delta and base, not between versions
	must(st.Delete("m", logQuad(2)))
	must(st.Insert("m", logQuad(2))) // resurrects a tombstoned base row

	changes, ok := st.ChangesSince(v0)
	if !ok || uint64(len(changes)) != st.Version()-v0 {
		t.Fatalf("ok=%v, %d changes for %d version bumps", ok, len(changes), st.Version()-v0)
	}
	var got []string
	for _, c := range changes {
		got = append(got, fmt.Sprintf("%v %s", c.Deleted, st.Dict().Term(c.Quad.C).Value))
	}
	want := []string{"false o1", "false o2", "true o1", "true o2", "false o2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log %v, want %v", got, want)
	}
	if tail, ok := st.ChangesSince(v0 + 3); !ok || len(tail) != 2 || !tail[0].Deleted || tail[1].Deleted {
		t.Fatalf("suffix of the log: ok=%v %v", ok, tail)
	}
}

// TestChangesSinceBoundaries pins the ring's edges: the whole ring is
// readable, one more bump is overflow, and no range spans a Load.
func TestChangesSinceBoundaries(t *testing.T) {
	st := New()
	if _, err := st.Load("m", []rdf.Quad{logQuad(-1)}); err != nil {
		t.Fatal(err)
	}
	loaded := st.Version()
	if _, ok := st.ChangesSince(loaded - 1); ok {
		t.Fatal("a range spanning the initial Load must not be itemized")
	}
	if c, ok := st.ChangesSince(loaded); !ok || len(c) != 0 {
		t.Fatalf("v == version right after a Load: ok=%v len=%d", ok, len(c))
	}

	for i := 0; i < ChangeLogSize+10; i++ {
		if _, err := st.Insert("m", logQuad(i)); err != nil {
			t.Fatal(err)
		}
	}
	v := st.Version()
	if c, ok := st.ChangesSince(v); !ok || len(c) != 0 {
		t.Fatalf("v == version: ok=%v len=%d", ok, len(c))
	}
	c, ok := st.ChangesSince(v - ChangeLogSize)
	if !ok || len(c) != ChangeLogSize {
		t.Fatalf("v == version-N: ok=%v len=%d, want the whole ring", ok, len(c))
	}
	// The oldest surviving entry is insert number 10 (0..9 were overwritten).
	if got := st.Dict().Term(c[0].Quad.C).Value; got != "o10" {
		t.Fatalf("oldest ring entry is %s, want o10", got)
	}
	if got := st.Dict().Term(c[len(c)-1].Quad.C).Value; got != fmt.Sprintf("o%d", ChangeLogSize+9) {
		t.Fatalf("newest ring entry is %s", got)
	}
	if _, ok := st.ChangesSince(v - ChangeLogSize - 1); ok {
		t.Fatal("v == version-N-1 must overflow")
	}
	if _, ok := st.ChangesSince(v + 1); ok {
		t.Fatal("a version the store never reached must not be ok")
	}

	// A Load is a barrier even well inside the ring.
	if _, err := st.Load("m", []rdf.Quad{logQuad(-2)}); err != nil {
		t.Fatal(err)
	}
	barrier := st.Version()
	if _, err := st.Insert("m", logQuad(-3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.ChangesSince(barrier - 1); ok {
		t.Fatal("a range spanning a Load must not be itemized")
	}
	if c, ok := st.ChangesSince(barrier); !ok || len(c) != 1 {
		t.Fatalf("from the barrier itself: ok=%v len=%d", ok, len(c))
	}
	// A Load that adds nothing is not a version, so not a barrier either.
	if n, err := st.Load("m", []rdf.Quad{logQuad(-2)}); err != nil || n != 0 {
		t.Fatalf("duplicate Load: n=%d err=%v", n, err)
	}
	if c, ok := st.ChangesSince(barrier); !ok || len(c) != 1 {
		t.Fatalf("after a no-op Load: ok=%v len=%d", ok, len(c))
	}
}

// TestViewIsOneState: the version, the log and the scans of a View all
// describe the same contents.
func TestViewIsOneState(t *testing.T) {
	st := New()
	for i := 0; i < 5; i++ {
		if _, err := st.Insert("m", logQuad(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.View(func(v *View) {
		if v.Version != 5 {
			t.Fatalf("view version %d, want 5", v.Version)
		}
		changes, ok := v.ChangesSince(2)
		if !ok || len(changes) != 3 {
			t.Fatalf("view log: ok=%v len=%d", ok, len(changes))
		}
		rows := 0
		v.ScanBatch(AnyPattern(), 2, func(b []IDQuad) bool { rows += len(b); return true })
		if rows != 5 {
			t.Fatalf("view scan saw %d rows, want 5", rows)
		}
		if ids, err := v.ResolveDataset("m"); err != nil || len(ids) != 1 {
			t.Fatalf("view dataset: %v %v", ids, err)
		}
	})
}
