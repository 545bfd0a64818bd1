package analysis

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE matches a fixture's // want `re` expectation.
var wantRE = regexp.MustCompile("// want `([^`]*)`")

// checkFixture runs the check over testdata/src/<path> against the real
// standard library. Each line with a want comment must get one finding
// that matches it, and no other line may get any.
func checkFixture(t *testing.T, path string) {
	findings, err := NewLoader("testdata/src/hpcc").Check(path)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string]*regexp.Regexp{}
	files, _ := filepath.Glob(filepath.Join("testdata/src", path, "*.go"))
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				wants[fmt.Sprintf("%s:%d", name, i+1)] = regexp.MustCompile(m[1])
			}
		}
	}
	for _, f := range findings {
		at, msg, _ := strings.Cut(f, ": ")
		if re := wants[at]; re == nil || !re.MatchString(msg) {
			t.Errorf("unexpected finding %s", f)
			continue
		}
		delete(wants, at)
	}
	for at, re := range wants {
		t.Errorf("%s: no finding matching %q", at, re)
	}
}

func TestDeterminism(t *testing.T) { checkFixture(t, "hpcc/internal/fabric") }

// TestDeterminismOutOfScope checks the check stays silent outside the
// sim packages: internal/report may read the wall clock.
func TestDeterminismOutOfScope(t *testing.T) { checkFixture(t, "hpcc/internal/report") }

// repo loads this repository's packages, each once per test binary.
var repo = NewLoader(filepath.Join("..", ".."))

// scopePackages loads every non-test package under the simScope
// directories, the cc/* subpackages included.
func scopePackages(t *testing.T) []*Package {
	var pkgs []*Package
	for _, name := range simScope {
		n := len(pkgs)
		err := filepath.WalkDir(filepath.Join("..", name), func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel("..", dir)
			p, err := repo.Load("hpcc/internal/" + filepath.ToSlash(rel))
			if err == nil {
				pkgs = append(pkgs, p)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == n {
			t.Fatalf("no package under internal/%s", name)
		}
	}
	return pkgs
}

// TestSimulationPackagesAreDeterministic runs the check over the tree.
func TestSimulationPackagesAreDeterministic(t *testing.T) {
	for _, p := range scopePackages(t) {
		findings, err := repo.Check(p.Path)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Error(f)
		}
	}
}

// TestDeterminismScopeIsClosed replaces a call graph: the check only
// sees the packages in simScope, so every package of this module that
// they import must be in the scope too, or a wall-clock read there would
// be invisible to the simulation that calls it. The one exception is
// campaign → experiment: campaign uses only experiment's Table type
// and runs scenarios through Job.Run function values, which no static
// call edge follows.
func TestDeterminismScopeIsClosed(t *testing.T) {
	const exceptFrom, exceptTo = "hpcc/internal/campaign", "hpcc/internal/experiment"
	exceptionUsed := false
	for _, p := range scopePackages(t) {
		for _, imp := range p.Imports {
			switch {
			case imp != "hpcc" && !strings.HasPrefix(imp, "hpcc/") || inSimScope(imp):
			case p.Path == exceptFrom && imp == exceptTo:
				exceptionUsed = true
			default:
				t.Errorf("scoped package %s imports %s, which the determinism check does not cover; add it to simScope", p.Path, imp)
			}
		}
	}
	if !exceptionUsed {
		t.Errorf("%s no longer imports %s: drop the exception", exceptFrom, exceptTo)
	}
}
