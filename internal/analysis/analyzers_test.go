package analysis

import "testing"

// Each analyzer is verified against a testdata package containing
// failing patterns (annotated with // want), fixed counterparts, and a
// justified suppression.

func TestCtxflow(t *testing.T) {
	RunTest(t, Ctxflow, "testdata/src/ctxflow", "repro/internal/ctxflowtest")
}

func TestErrsentinel(t *testing.T) {
	RunTest(t, Errsentinel, "testdata/src/errsentinel", "repro/internal/errsentineltest")
}

func TestGoroutinelife(t *testing.T) {
	RunTest(t, Goroutinelife, "testdata/src/goroutinelife", "repro/internal/goroutinelifetest")
}

func TestGuardedby(t *testing.T) {
	RunTest(t, Guardedby, "testdata/src/guardedby", "repro/internal/guardedbytest")
}

func TestGuardtick(t *testing.T) {
	// guardtick only patrols the engine package, so the testdata poses
	// as repro/internal/sparql.
	RunTest(t, Guardtick, "testdata/src/guardtick", "repro/internal/sparql")
}

func TestIdsafe(t *testing.T) {
	RunTest(t, Idsafe, "testdata/src/idsafe", "repro/internal/idsafetest")
}

func TestWalerr(t *testing.T) {
	RunTest(t, Walerr, "testdata/src/walerr", "repro/internal/walerrtest")
}

// TestExamplesExemptFromCtxflow pins the scoping rule: the same code
// that fails as library code passes when analyzed under examples/.
func TestExamplesExemptFromCtxflow(t *testing.T) {
	loader, err := testLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.CheckDir("testdata/src/ctxflow", "repro/examples/ctxflowtest")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunAnalyzers(loader.Fset, []*Package{pkg}, []*Analyzer{Ctxflow})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		// The package's ctxflow suppression is reported as unused here
		// (correct: ctxflow skips examples/ entirely); only analyzer
		// findings would break the exemption.
		if f.Analyzer == "ctxflow" {
			t.Fatalf("examples/ package should be exempt from ctxflow, got %v", f)
		}
	}
}
