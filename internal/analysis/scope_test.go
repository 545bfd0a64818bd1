package analysis

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestDeterminismScopeIsClosed replaces a call graph: the determinism
// analyzer only sees the packages in simScope, so every package of this
// module that they import must be in the scope too, or a wall-clock read
// there would be invisible to the simulation that calls it. The one
// exception is campaign → experiment: campaign uses only experiment's
// Table and Dist types (whose stats sketches are in scope) and runs
// scenarios through Job.Run function values, which no static call edge
// follows.
func TestDeterminismScopeIsClosed(t *testing.T) {
	const exceptFrom, exceptTo = "hpcc/internal/campaign", "hpcc/internal/experiment"
	exceptionUsed := false
	fset := token.NewFileSet()
	for _, name := range simScope {
		root := filepath.Join("..", name)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel("..", filepath.Dir(path))
			if err != nil {
				return err
			}
			pkg := "hpcc/internal/" + filepath.ToSlash(rel)
			for _, spec := range f.Imports {
				imp, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					return err
				}
				if imp != "hpcc" && !strings.HasPrefix(imp, "hpcc/") || inSimScope(imp) {
					continue
				}
				if pkg == exceptFrom && imp == exceptTo {
					exceptionUsed = true
					continue
				}
				t.Errorf("%s: scoped package %s imports %s, which the determinism analyzer does not check; add it to simScope", path, pkg, imp)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !exceptionUsed {
		t.Errorf("%s no longer imports %s: drop the exception", exceptFrom, exceptTo)
	}
}
