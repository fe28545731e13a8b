package store

import (
	"fmt"
	"math/rand"
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
	v0 := st.View().Version
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

	changes, ok := st.View().ChangesSince(v0)
	if !ok || uint64(len(changes)) != st.View().Version-v0 {
		t.Fatalf("ok=%v, %d changes for %d version bumps", ok, len(changes), st.View().Version-v0)
	}
	var got []string
	for _, c := range changes {
		got = append(got, fmt.Sprintf("%v %s", c.Deleted, st.Dict().Term(c.Quad.C).Value))
	}
	want := []string{"false o1", "false o2", "true o1", "true o2", "false o2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log %v, want %v", got, want)
	}
	if tail, ok := st.View().ChangesSince(v0 + 3); !ok || len(tail) != 2 || !tail[0].Deleted || tail[1].Deleted {
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
	loaded := st.View().Version
	if _, ok := st.View().ChangesSince(loaded - 1); ok {
		t.Fatal("a range spanning the initial Load must not be itemized")
	}
	if c, ok := st.View().ChangesSince(loaded); !ok || len(c) != 0 {
		t.Fatalf("v == version right after a Load: ok=%v len=%d", ok, len(c))
	}

	for i := 0; i < ChangeLogSize+10; i++ {
		if _, err := st.Insert("m", logQuad(i)); err != nil {
			t.Fatal(err)
		}
	}
	v := st.View().Version
	if c, ok := st.View().ChangesSince(v); !ok || len(c) != 0 {
		t.Fatalf("v == version: ok=%v len=%d", ok, len(c))
	}
	c, ok := st.View().ChangesSince(v - ChangeLogSize)
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
	if _, ok := st.View().ChangesSince(v - ChangeLogSize - 1); ok {
		t.Fatal("v == version-N-1 must overflow")
	}
	if _, ok := st.View().ChangesSince(v + 1); ok {
		t.Fatal("a version the store never reached must not be ok")
	}

	// A Load is a barrier even well inside the ring.
	if _, err := st.Load("m", []rdf.Quad{logQuad(-2)}); err != nil {
		t.Fatal(err)
	}
	barrier := st.View().Version
	if _, err := st.Insert("m", logQuad(-3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.View().ChangesSince(barrier - 1); ok {
		t.Fatal("a range spanning a Load must not be itemized")
	}
	if c, ok := st.View().ChangesSince(barrier); !ok || len(c) != 1 {
		t.Fatalf("from the barrier itself: ok=%v len=%d", ok, len(c))
	}
	// A Load that adds nothing is not a version, so not a barrier either.
	if n, err := st.Load("m", []rdf.Quad{logQuad(-2)}); err != nil || n != 0 {
		t.Fatalf("duplicate Load: n=%d err=%v", n, err)
	}
	if c, ok := st.View().ChangesSince(barrier); !ok || len(c) != 1 {
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
	v := st.View()
	// Writes after the pin do not reach the view.
	if _, err := st.Insert("m", logQuad(5)); err != nil {
		t.Fatal(err)
	}
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
}

// TestPinnedViewChangesSince: a view's log ends at the view's version
// whatever is written afterwards, until the ring has lapped it.
func TestPinnedViewChangesSince(t *testing.T) {
	st := New()
	for i := 0; i < 10; i++ {
		if _, err := st.Insert("m", logQuad(i)); err != nil {
			t.Fatal(err)
		}
	}
	v := st.View()
	for i := 10; i < 20; i++ {
		if _, err := st.Insert("m", logQuad(i)); err != nil {
			t.Fatal(err)
		}
	}
	changes, ok := v.ChangesSince(7)
	if !ok || len(changes) != 3 {
		t.Fatalf("pinned at 10, since 7: ok=%v len=%d, want 3", ok, len(changes))
	}
	for i, c := range changes {
		if got := st.Dict().Term(c.Quad.C).Value; got != fmt.Sprintf("o%d", 7+i) {
			t.Fatalf("change %d is %s, want o%d", i, got, 7+i)
		}
	}
	if _, ok := v.ChangesSince(11); ok {
		t.Fatal("a version after the view's must not be ok")
	}
	// Entry 8 (the change that made version 8) is overwritten by the
	// writer of version 8+ChangeLogSize.
	for i := 20; st.View().Version < 7+ChangeLogSize; i++ {
		if _, err := st.Insert("m", logQuad(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c, ok := v.ChangesSince(7); !ok || len(c) != 3 {
		t.Fatalf("one write before the lap: ok=%v len=%d", ok, len(c))
	}
	if _, err := st.Insert("m", logQuad(-7)); err != nil {
		t.Fatal(err)
	}
	if _, ok := v.ChangesSince(7); ok {
		t.Fatal("the ring has lapped version 8: must not be ok")
	}
	if c, ok := v.ChangesSince(8); !ok || len(c) != 2 {
		t.Fatalf("since 8 is still whole: ok=%v len=%d", ok, len(c))
	}
}

// TestApplyAgainstReference applies random operation sets — with a quad
// inserted then deleted and deleted then inserted inside one set,
// duplicates, and deletes against a model the store does not have — and
// checks counts, version, contents and the change log against a
// reference map that applies the same ops one at a time.
func TestApplyAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := New()
	ref := make(map[rdf.Quad]bool)
	state := make(map[IDQuad]bool) // the change log replayed
	randQuad := func() rdf.Quad {
		return quad(fmt.Sprintf("s%d", rng.Intn(6)), fmt.Sprintf("p%d", rng.Intn(3)), fmt.Sprintf("o%d", rng.Intn(6)), "")
	}
	for round := 0; round < 300; round++ {
		var ops []Op
		for n := rng.Intn(8); n >= 0; n-- {
			q := randQuad()
			switch rng.Intn(6) {
			case 0:
				ops = append(ops, Op{Model: "m", Quad: q}, Op{Delete: true, Model: "m", Quad: q})
			case 1:
				ops = append(ops, Op{Delete: true, Model: "m", Quad: q}, Op{Model: "m", Quad: q})
			case 2:
				ops = append(ops, Op{Model: "m", Quad: q}, Op{Model: "m", Quad: q})
			case 3:
				ops = append(ops, Op{Delete: true, Model: "nosuchmodel", Quad: q})
			case 4:
				ops = append(ops, Op{Delete: true, Model: "m", Quad: q})
			default:
				ops = append(ops, Op{Model: "m", Quad: q})
			}
		}
		wantIns, wantDel := 0, 0
		for _, op := range ops {
			switch {
			case op.Model != "m":
			case op.Delete && ref[op.Quad]:
				delete(ref, op.Quad)
				wantDel++
			case !op.Delete && !ref[op.Quad]:
				ref[op.Quad] = true
				wantIns++
			}
		}
		before := st.View()
		ins, del, err := st.Apply(ops)
		if err != nil || ins != wantIns || del != wantDel {
			t.Fatalf("round %d: Apply = %d, %d, %v; want %d, %d", round, ins, del, err, wantIns, wantDel)
		}
		after := st.View()
		if after.Version != before.Version+uint64(ins+del) {
			t.Fatalf("round %d: version %d -> %d for %d changes", round, before.Version, after.Version, ins+del)
		}
		changes, ok := after.ChangesSince(before.Version)
		if !ok || len(changes) != ins+del {
			t.Fatalf("round %d: log ok=%v len=%d, want %d", round, ok, len(changes), ins+del)
		}
		for _, c := range changes {
			if state[c.Quad] == !c.Deleted {
				t.Fatalf("round %d: log entry %+v changes nothing", round, c)
			}
			state[c.Quad] = !c.Deleted
		}
		if round%7 == 0 {
			st.Compact()
		}
		if st.Len() != len(ref) {
			t.Fatalf("round %d: Len = %d, reference has %d", round, st.Len(), len(ref))
		}
		for q := range ref {
			if !st.View().Contains("m", q) {
				t.Fatalf("round %d: store lost %v", round, q)
			}
		}
		for row, live := range state {
			if live != ref[st.dict.Quad(row)] {
				t.Fatalf("round %d: replayed log disagrees with the reference on %v", round, st.dict.Quad(row))
			}
		}
	}
	if st.View().LookupModel("nosuchmodel") != NoID {
		t.Fatal("a delete created its model")
	}
	// An invalid quad fails the whole set, before anything is applied.
	v := st.View().Version
	_, _, err := st.Apply([]Op{{Model: "m", Quad: quad("fresh", "p0", "o0", "")}, {Model: "m", Quad: rdf.Quad{S: rdf.NewLiteral("bad"), P: iri("p"), O: iri("o")}}})
	if err == nil || st.View().Version != v || st.View().Contains("m", quad("fresh", "p0", "o0", "")) {
		t.Fatalf("invalid set: err=%v version %d -> %d", err, v, st.View().Version)
	}
}

// TestApplyCompactsMidSet: the compaction trigger fires at the same
// quad whether quads arrive one per write or thousands per set, so the
// base arrays — and with them Storage() — do not depend on grouping.
func TestApplyCompactsMidSet(t *testing.T) {
	one, set := New(), New()
	ops := make([]Op, compactThreshold+1000)
	for i := range ops {
		ops[i] = Op{Model: "m", Quad: logQuad(i)}
		if _, err := one.Insert("m", ops[i].Quad); err != nil {
			t.Fatal(err)
		}
	}
	if ins, _, err := set.Apply(ops); err != nil || ins != len(ops) {
		t.Fatalf("Apply = %d, %v", ins, err)
	}
	for _, st := range []*Store{one, set} {
		ws := st.WriteStats()
		if ws.DeltaRows != 1000 || ws.Compactions != 1 || st.Len() != len(ops) {
			t.Fatalf("delta rows %d, compactions %d, len %d; want 1000, 1, %d", ws.DeltaRows, ws.Compactions, st.Len(), len(ops))
		}
	}
	if a, b := one.View().Storage(), set.View().Storage(); !reflect.DeepEqual(a, b) {
		t.Fatalf("storage differs: %+v vs %+v", a, b)
	}
	if got, want := collectScan(set, AnyPattern()), collectScan(one, AnyPattern()); !reflect.DeepEqual(got, want) {
		t.Fatal("contents differ")
	}
}
