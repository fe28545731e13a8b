package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func buildFromSrc(t *testing.T, src string) (*token.FileSet, *ignoreIndex, []Finding) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx, bad := buildIgnoreIndex(fset, []*ast.File{f})
	return fset, idx, bad
}

func TestIgnoreDirectiveWithReason(t *testing.T) {
	_, idx, bad := buildFromSrc(t, `package p

//pgrdfvet:ignore idsafe -- hashing keeps equal IDs together
var a = 1

//pgrdfvet:ignore idsafe, walerr -- two analyzers, one reason
var b = 2
`)
	if len(bad) != 0 {
		t.Fatalf("well-formed directives reported as bad: %v", bad)
	}
	// The directive covers its own line (3) and the next line (4).
	for _, line := range []int{3, 4} {
		if !idx.suppressed("idsafe", token.Position{Filename: "x.go", Line: line}) {
			t.Errorf("idsafe not suppressed on line %d", line)
		}
	}
	if idx.suppressed("idsafe", token.Position{Filename: "x.go", Line: 5}) {
		t.Error("suppression leaked past the directive's scope")
	}
	if idx.suppressed("ctxflow", token.Position{Filename: "x.go", Line: 3}) {
		t.Error("directive suppressed an analyzer it does not name")
	}
	// Multi-analyzer directive covers both names on line 6/7.
	for _, name := range []string{"idsafe", "walerr"} {
		if !idx.suppressed(name, token.Position{Filename: "x.go", Line: 7}) {
			t.Errorf("%s not suppressed by the comma-separated directive", name)
		}
	}
}

func TestIgnoreDirectiveWithoutReasonIsReported(t *testing.T) {
	_, idx, bad := buildFromSrc(t, `package p

//pgrdfvet:ignore idsafe
var a = 1
`)
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "needs a justification") {
		t.Fatalf("bare directive not reported, got %v", bad)
	}
	if idx.suppressed("idsafe", token.Position{Filename: "x.go", Line: 4}) {
		t.Error("a justification-free directive must not suppress anything")
	}
}

func TestMalformedDirectiveIsReported(t *testing.T) {
	_, _, bad := buildFromSrc(t, `package p

//pgrdfvet:silence idsafe -- wrong verb
var a = 1
`)
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "malformed pgrdfvet directive") {
		t.Fatalf("malformed directive not reported, got %v", bad)
	}
}

func TestUnknownAnalyzerNameIsReported(t *testing.T) {
	_, idx, bad := buildFromSrc(t, `package p

//pgrdfvet:ignore walwarn -- typo for walerr
var a = 1
`)
	if len(bad) != 1 || !strings.Contains(bad[0].Message, `unknown analyzer "walwarn"`) {
		t.Fatalf("unknown analyzer name not reported, got %v", bad)
	}
	if idx.suppressed("walerr", token.Position{Filename: "x.go", Line: 4}) {
		t.Error("a misspelled directive must not suppress anything")
	}
}

func TestUnusedSuppressionDetection(t *testing.T) {
	activeAll := make(map[string]bool)
	for name := range knownAnalyzerNames() {
		activeAll[name] = true
	}

	t.Run("stale directive is reported", func(t *testing.T) {
		_, idx, bad := buildFromSrc(t, `package p

//pgrdfvet:ignore idsafe -- the finding this masked was fixed long ago
var a = 1
`)
		if len(bad) != 0 {
			t.Fatalf("unexpected parse findings: %v", bad)
		}
		unused := idx.unusedFindings(activeAll)
		if len(unused) != 1 || !strings.Contains(unused[0].Message, "unused pgrdfvet:ignore for idsafe") {
			t.Fatalf("stale suppression not reported, got %v", unused)
		}
		if unused[0].Pos.Line != 3 {
			t.Errorf("unused finding at line %d, want the directive's line 3", unused[0].Pos.Line)
		}
	})

	t.Run("consumed directive is not reported", func(t *testing.T) {
		_, idx, _ := buildFromSrc(t, `package p

//pgrdfvet:ignore idsafe -- live suppression
var a = 1
`)
		if !idx.suppressed("idsafe", token.Position{Filename: "x.go", Line: 4}) {
			t.Fatal("directive did not suppress")
		}
		if unused := idx.unusedFindings(activeAll); len(unused) != 0 {
			t.Fatalf("consumed directive reported as unused: %v", unused)
		}
	})

	t.Run("inactive analyzer is not flagged", func(t *testing.T) {
		// A partial -only run must not call suppressions for the
		// analyzers it skipped stale.
		_, idx, _ := buildFromSrc(t, `package p

//pgrdfvet:ignore idsafe -- only meaningful when idsafe runs
var a = 1
`)
		if unused := idx.unusedFindings(map[string]bool{"walerr": true}); len(unused) != 0 {
			t.Fatalf("directive for inactive analyzer reported as unused: %v", unused)
		}
	})

	t.Run("all-directive checked only under the full suite", func(t *testing.T) {
		_, idx, _ := buildFromSrc(t, `package p

//pgrdfvet:ignore all -- blanket suppression that masks nothing
var a = 1
`)
		if unused := idx.unusedFindings(map[string]bool{"walerr": true}); len(unused) != 0 {
			t.Fatalf("all-directive flagged on a partial run: %v", unused)
		}
		unused := idx.unusedFindings(activeAll)
		if len(unused) != 1 || !strings.Contains(unused[0].Message, "unused pgrdfvet:ignore for all") {
			t.Fatalf("stale all-directive not reported under the full suite, got %v", unused)
		}
	})

	t.Run("one name of a multi-analyzer directive can be stale", func(t *testing.T) {
		_, idx, _ := buildFromSrc(t, `package p

//pgrdfvet:ignore idsafe, walerr -- only idsafe still fires here
var a = 1
`)
		if !idx.suppressed("idsafe", token.Position{Filename: "x.go", Line: 4}) {
			t.Fatal("directive did not suppress idsafe")
		}
		unused := idx.unusedFindings(activeAll)
		if len(unused) != 1 || !strings.Contains(unused[0].Message, "unused pgrdfvet:ignore for walerr") {
			t.Fatalf("stale half of a multi-analyzer directive not reported, got %v", unused)
		}
	})
}
