package store

import (
	"testing"

	"repro/internal/rdf"
)

func TestOverlayInternReadsThrough(t *testing.T) {
	d := NewDict()
	known := rdf.NewLiteral("known")
	kid := d.Intern(known)
	before := d.Len()

	o := NewTermOverlay(d)
	if got := o.Intern(known); got != kid {
		t.Errorf("known term got scratch ID %d, want dictionary ID %d", got, kid)
	}
	novel := rdf.NewLiteral("novel")
	sid := o.Intern(novel)
	if sid < scratchBase {
		t.Errorf("novel term got dictionary-range ID %d", sid)
	}
	if d.Len() != before {
		t.Errorf("overlay grew the dictionary: %d -> %d", before, d.Len())
	}
	if o.Len() != 1 {
		t.Errorf("overlay len = %d, want 1", o.Len())
	}
	// Interning the same novel term again is stable.
	if again := o.Intern(novel); again != sid {
		t.Errorf("re-intern gave %d, want %d", again, sid)
	}
}

func TestOverlayTermRoutesByRange(t *testing.T) {
	d := NewDict()
	known := rdf.NewIRI("http://x/known")
	kid := d.Intern(known)
	o := NewTermOverlay(d)
	novel := rdf.NewInt(12345)
	sid := o.Intern(novel)

	if got := o.Term(kid); got.String() != known.String() {
		t.Errorf("Term(%d) = %v, want %v", kid, got, known)
	}
	if got := o.Term(sid); got.String() != novel.String() {
		t.Errorf("Term(%d) = %v, want %v", sid, got, novel)
	}
}

func TestOverlayTermPanicsOnBogusScratchID(t *testing.T) {
	o := NewTermOverlay(NewDict())
	defer func() {
		if recover() == nil {
			t.Error("Term on never-issued scratch ID did not panic")
		}
	}()
	o.Term(scratchBase + 99)
}

// TestOverlaysAreIndependent: each query owns its overlay, so two
// overlays over one dictionary number their scratch terms apart, never
// see each other's terms, and leave the dictionary as it was.
func TestOverlaysAreIndependent(t *testing.T) {
	d := NewDict()
	d.Intern(rdf.NewLiteral("known"))
	before := d.Len()

	a, b := NewTermOverlay(d), NewTermOverlay(d)
	onlyA := rdf.NewLiteral("only-a")
	shared := rdf.NewLiteral("shared")
	aOnly := a.Intern(onlyA)
	aShared := a.Intern(shared)
	bShared := b.Intern(shared)

	if bShared != scratchBase {
		t.Errorf("b's first scratch term got %d, want %d: b saw a's terms", bShared, scratchBase)
	}
	if got := b.Term(bShared); got.String() != shared.String() {
		t.Errorf("b.Term(%d) = %v, want %v", bShared, got, shared)
	}
	if got := a.Term(aShared); got.String() != shared.String() {
		t.Errorf("a.Term(%d) = %v, want %v", aShared, got, shared)
	}
	if a.Len() != 2 || b.Len() != 1 {
		t.Errorf("overlay lens = %d, %d, want 2, 1", a.Len(), b.Len())
	}
	if d.Lookup(onlyA) != NoID || d.Lookup(shared) != NoID {
		t.Error("an overlay term reached the dictionary")
	}
	if d.Len() != before {
		t.Errorf("overlays grew the dictionary: %d -> %d", before, d.Len())
	}
	if aOnly == aShared {
		t.Errorf("two distinct terms share scratch ID %d", aOnly)
	}
}

// TestOverlayScratchIDsAreDense: scratch IDs run from scratchBase up in
// first-intern order, known terms take none of them, and a term the
// dictionary learns after an overlay was made reads through from then on.
func TestOverlayScratchIDsAreDense(t *testing.T) {
	d := NewDict()
	known := d.Intern(rdf.NewIRI("http://x/known"))
	o := NewTermOverlay(d)
	for i := 0; i < 5; i++ {
		if got := o.Intern(rdf.NewIRI("http://x/known")); got != known {
			t.Fatalf("known term got %d, want %d", got, known)
		}
		if got, want := o.Intern(rdf.NewInt(int32(i))), scratchBase+ID(i); got != want {
			t.Fatalf("scratch term %d got ID %d, want %d", i, got, want)
		}
	}
	if o.Len() != 5 {
		t.Errorf("overlay len = %d, want 5", o.Len())
	}
	late := rdf.NewLiteral("late")
	lid := d.Intern(late)
	if got := o.Intern(late); got != lid {
		t.Errorf("term interned into the dictionary later got %d, want %d", got, lid)
	}
	if o.Len() != 5 {
		t.Errorf("read-through term took a scratch ID: len = %d", o.Len())
	}
}
