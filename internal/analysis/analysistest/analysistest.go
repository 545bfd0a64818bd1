// Package analysistest runs an hpcclint analyzer over a fixture package
// under testdata/src and checks its diagnostics against `// want "re"`
// comments, in the spirit of golang.org/x/tools/go/analysis/analysistest
// but self-contained on the standard library. Fixture imports resolve
// only within testdata/src, so fixtures that need std packages (time,
// math/rand, fmt) use small fakes that replicate the real package path
// and API surface the analyzers match on.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hpcc/internal/analysis"
)

// Run loads testdata/src/<importPath>, type-checks it with imports
// resolved from testdata/src, runs the analyzer, and compares the
// diagnostics with the fixture's want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, importPath string) {
	t.Helper()
	fset := token.NewFileSet()
	ld := &loader{fset: fset, srcDir: filepath.Join(testdata, "src"), pkgs: map[string]*loadedPkg{}}

	lp, err := ld.load(importPath)
	if err != nil {
		t.Fatalf("load %s: %v", importPath, err)
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    lp.files,
		Pkg:      lp.pkg,
		Info:     lp.info,
		Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, importPath, err)
	}

	checkWants(t, fset, lp.files, diags)
}

// want is one `// want "re"` expectation.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile("// *want +((?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")(?: +(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"))*)")
var wantArgRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, lit := range wantArgRE.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Errorf("%s:%d: bad want literal %s: %v", pos.Filename, pos.Line, lit, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// loadedPkg is one type-checked fixture package.
type loadedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader parses and type-checks packages rooted at testdata/src,
// resolving imports recursively within that tree only.
type loader struct {
	fset   *token.FileSet
	srcDir string
	pkgs   map[string]*loadedPkg
}

// load parses and type-checks one fixture package, memoized.
func (l *loader) load(importPath string) (*loadedPkg, error) {
	if lp, ok := l.pkgs[importPath]; ok {
		return lp, nil
	}
	files, err := l.parsePackage(importPath)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	pkg, err := l.check(importPath, files, info)
	if err != nil {
		return nil, err
	}
	lp := &loadedPkg{files: files, pkg: pkg, info: info}
	l.pkgs[importPath] = lp
	return lp, nil
}

func (l *loader) parsePackage(importPath string) ([]*ast.File, error) {
	dir := filepath.Join(l.srcDir, filepath.FromSlash(importPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

func (l *loader) check(importPath string, files []*ast.File, info *types.Info) (*types.Package, error) {
	conf := types.Config{Importer: importerFunc(l.Import)}
	return conf.Check(importPath, l.fset, files, info)
}

// Import implements types.Importer over the testdata/src tree.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	lp, err := l.load(path)
	if err != nil {
		return nil, fmt.Errorf("import %q: %v (fixture imports resolve only under testdata/src)", path, err)
	}
	return lp.pkg, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// newInfo allocates the types.Info maps the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
