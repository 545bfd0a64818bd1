// Package analysis checks the simulator's determinism invariant: no
// wall clock, global RNG, goroutines or order-sensitive map iteration in
// simulation packages, the bug classes that break byte-identical results
// from run to run and across campaign worker counts (-parallel N). The
// golden tests catch such a regression only after it lands; this check
// runs on every `go test ./internal/analysis`.
//
// The check is intraprocedural: it looks only at the bodies of the
// packages in simScope. That is enough because the scope is closed (no
// scoped package imports an unscoped package of this module, save the
// one exception TestDeterminismScopeIsClosed names), so every function
// a simulation calls into is itself checked where it is declared.
//
// Escapes are explicit comments, each carrying a reason:
//
//	//hpcclint:allow determinism -- <reason>    suppress the check on
//	                                            this line or the next
//
// An escape without a reason is ignored (the finding still fires), so
// every escape in the tree documents why it is legitimate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// Loader type-checks packages of the module "hpcc" from source, each
// once: hpcc/... imports load recursively from the module's directory,
// everything else comes from the standard library's export data.
type Loader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
}

// Package is one type-checked package: its non-test files, as go/build
// selects them for this GOOS and GOARCH.
type Package struct {
	Path    string
	Imports []string // every import path of those files, sorted
	files   []*ast.File
	info    *types.Info
	types   *types.Package
}

// NewLoader returns a loader for the module whose root directory is root.
func NewLoader(root string) *Loader {
	return &Loader{root: root, fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*Package{}}
}

// Load parses and type-checks the package with the given import path.
func (l *Loader) Load(path string) (p *Package, err error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil // loading: an import back to path is a cycle
	defer func() {
		if err != nil {
			delete(l.pkgs, path)
		}
	}()
	rel, ok := strings.CutPrefix(path, "hpcc")
	if !ok || rel != "" && rel[0] != '/' {
		return nil, fmt.Errorf("%s is not in module hpcc", path)
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	p = &Package{Path: path, Imports: bp.Imports, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path != "hpcc" && !strings.HasPrefix(path, "hpcc/") {
		return l.std.Import(path)
	}
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// Check loads the package and returns its determinism findings in
// source order, each "file:line: message". A package outside simScope
// has none.
func (l *Loader) Check(path string) ([]string, error) {
	p, err := l.Load(path)
	if err != nil || !inSimScope(path) {
		return nil, err
	}
	c := &checker{fset: l.fset, info: p.info}
	for _, f := range p.files {
		c.allow = map[int]bool{}
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if allows(cm.Text) {
					c.allow[l.fset.Position(cm.End()).Line] = true
				}
			}
		}
		c.file(f)
	}
	return c.findings, nil
}

// allows reports whether a comment is an escape with a reason.
func allows(comment string) bool {
	reason, ok := strings.CutPrefix(comment, "//hpcclint:allow determinism --")
	return ok && strings.TrimSpace(reason) != ""
}

// checker collects one package's findings.
type checker struct {
	fset     *token.FileSet
	info     *types.Info
	allow    map[int]bool // lines of the current file carrying an escape
	findings []string
}

// reportf records a finding at pos, naming the escape, unless an escape
// sits on its line or the line above.
func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	p := c.fset.Position(pos)
	if c.allow[p.Line] || c.allow[p.Line-1] {
		return
	}
	c.findings = append(c.findings, fmt.Sprintf("%s:%d: %s or annotate //hpcclint:allow determinism -- <reason>",
		p.Filename, p.Line, fmt.Sprintf(format, args...)))
}

// file flags the constructs that make a simulation package's results
// differ from run to run or with the campaign's worker count
// (-parallel N): wall-clock reads, draws from the global math/rand
// source, goroutine launches, and iteration over maps where the body's
// effects depend on iteration order. The invariant is pinned at runtime
// by the golden tests (internal/experiment/golden_test.go) and the CI
// run-twice and -parallel smokes; this check catches it at test time.
func (c *checker) file(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.GoStmt:
			c.reportf(n.Pos(), "go statement in a simulation package: goroutine interleaving is not replayable; "+
				"run the world single-threaded per engine")
		case *ast.RangeStmt:
			c.checkMapRange(n)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr) {
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	fn, _ := c.info.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			c.reportf(call.Pos(), "time.%s in a simulation package: wall-clock reads diverge from run to run; "+
				"use the engine clock (Engine.Now)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Package-level functions draw from the shared global source;
		// constructors are not draws, and seeded *rand.Rand streams
		// (methods) are the deterministic pattern sim.NewRNG hands out.
		if fn.Signature().Recv() == nil && !slices.Contains([]string{"New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8"}, fn.Name()) {
			c.reportf(call.Pos(), "math/rand.%s draws from the process-global source; "+
				"thread a seeded *rand.Rand from the spec (sim.NewRNG)", fn.Name())
		}
	}
}

// checkMapRange flags `range m` over a map when the loop body's effect
// depends on iteration order: calls that may schedule events or emit
// output, appends to outer slices, and non-commutative writes to outer
// state. Commutative integer accumulation (+=, -=, ^=, |=, &= and
// ++/--) is exempt; floating-point accumulation is not, because
// rounding makes even a sum order-sensitive.
func (c *checker) checkMapRange(rng *ast.RangeStmt) {
	info := c.info
	if _, ok := info.TypeOf(rng.X).Underlying().(*types.Map); !ok {
		return
	}
	// An object is outer state unless it is declared inside the range
	// statement (the key/value variables included).
	isOuter := func(obj types.Object) bool {
		return obj != nil && (obj.Pos() < rng.Pos() || obj.Pos() >= rng.Body.End())
	}
	// rootObj resolves the base identifier of an lvalue (x, x.f, x[i],
	// *x ... chains).
	rootObj := func(e ast.Expr) types.Object {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				return info.ObjectOf(x)
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return nil
			}
		}
	}
	isFloat := func(e ast.Expr) bool {
		b, ok := info.TypeOf(e).Underlying().(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0
	}
	// isPure reports whether the call is a conversion or a builtin that
	// neither schedules events nor emits output.
	isPure := func(call *ast.CallExpr) bool {
		tv := info.Types[call.Fun]
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return tv.IsType() || ok && tv.IsBuiltin() &&
			slices.Contains([]string{"delete", "len", "cap", "min", "max", "append", "clear", "copy"}, id.Name)
	}

	var hazard string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if hazard != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if !isPure(n) {
				hazard = "calls a function, which may schedule events or emit output"
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" || !isOuter(rootObj(lhs)) {
					continue
				}
				switch n.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.XOR_ASSIGN,
					token.OR_ASSIGN, token.AND_ASSIGN:
					if isFloat(lhs) {
						hazard = "floating-point accumulation into outer state; rounding is order-sensitive"
					}
				default:
					// Plain assignment or appends into outer state:
					// the final value depends on which key came last.
					hazard = "writes outer state in iteration order"
				}
			}
		case *ast.IncDecStmt:
			if isOuter(rootObj(n.X)) && isFloat(n.X) {
				hazard = "floating-point accumulation into outer state; rounding is order-sensitive"
			}
		case *ast.SendStmt:
			hazard = "sends on a channel in iteration order"
		case *ast.GoStmt, *ast.DeferStmt:
			hazard = "launches work in iteration order"
		}
		return true
	})
	if hazard != "" {
		c.reportf(rng.Pos(),
			"iteration over a map with an order-sensitive body (%s): map order is randomized per process, "+
				"so this diverges from run to run; iterate sorted keys, make the body commutative,", hazard)
	}
}

// simScope lists the package names under internal/ whose code runs
// inside (or schedules) the deterministic simulation: the check applies
// to exactly these and their subpackages. internal/campaign is included
// because its worker pool brackets every scenario run, internal/packet
// because every hop runs its code, internal/stats because its sketches
// hold every result and campaign merges them.
// TestDeterminismScopeIsClosed keeps the list closed under imports.
var simScope = []string{"sim", "fabric", "host", "topology", "workload", "cc", "campaign", "packet", "stats"}

// inSimScope reports whether the import path is hpcc/internal/<name>
// or a subpackage of it, for a name in simScope.
func inSimScope(path string) bool {
	rest, ok := strings.CutPrefix(path, "hpcc/internal/")
	name, _, _ := strings.Cut(rest, "/")
	return ok && slices.Contains(simScope, name)
}
