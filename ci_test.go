package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGateRunPatternsNameTests: every alternative of a `go test -run` or
// `-fuzz` pattern in the CI workflow and the Makefile matches at least
// one Test or Fuzz function of the packages its command names. An
// alternative that matches nothing (a deleted or renamed test) makes
// its gate step pass while running nothing.
func TestGateRunPatternsNameTests(t *testing.T) {
	flagRE := regexp.MustCompile(`-(run|fuzz)[= ]('[^']*'|\S+)`)
	pkgRE := regexp.MustCompile(`(?:^|\s)(\./\S*)`)
	testFuncs := func(dir string) []string {
		files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		var names []string
		for _, f := range files {
			file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
					(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return names
	}
	for _, gate := range []string{".github/workflows/ci.yml", "Makefile"} {
		data, err := os.ReadFile(gate)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			line = strings.ReplaceAll(line, "$$", "$") // make's escape
			if !strings.Contains(line, " test ") {
				continue
			}
			var dirs []string
			for _, m := range pkgRE.FindAllStringSubmatch(line, -1) {
				if !strings.HasSuffix(m[1], "...") {
					dirs = append(dirs, strings.TrimSuffix(m[1], "/"))
				}
			}
			for _, m := range flagRE.FindAllStringSubmatch(line, -1) {
				for _, alt := range strings.Split(strings.Trim(m[2], "'"), "|") {
					alt, _, _ = strings.Cut(alt, "/") // the top-level name
					if alt == "^$" || len(dirs) == 0 {
						continue
					}
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s:%d: -%s alternative %q: %v", gate, i+1, m[1], alt, err)
						continue
					}
					found := false
					for _, dir := range dirs {
						for _, name := range testFuncs(dir) {
							found = found || re.MatchString(name)
						}
					}
					if !found {
						t.Errorf("%s:%d: -%s alternative %q matches no Test or Fuzz function in %v", gate, i+1, m[1], alt, dirs)
					}
				}
			}
		}
	}
}
