package analysis

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSuiteHasFixtures: every analyzer pgrdfvet runs has a fixture
// package under testdata/src named after it, holding at least one
// // want case, so its catches are re-checked by go test. The suite is
// exactly the seven analyzers cmd/pgrdfvet's documentation lists.
func TestSuiteHasFixtures(t *testing.T) {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	want := []string{"ctxflow", "errsentinel", "goroutinelife", "guardedby", "guardtick", "idsafe", "walerr"}
	if !slices.Equal(names, want) {
		t.Fatalf("All() = %v, want %v", names, want)
	}
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			if a.Doc == "" {
				t.Error("analyzer has no Doc")
			}
			dir := filepath.Join("testdata", "src", a.Name)
			files, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("no fixture in %s (%v)", dir, err)
			}
			wants := 0
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				wants += strings.Count(string(src), "// want ")
			}
			if wants == 0 {
				t.Errorf("fixture %s has no // want case", dir)
			}
		})
	}
}
