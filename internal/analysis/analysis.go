// Package analysis is hpcclint: a static-analysis check that enforces
// the simulator's determinism invariant at build time. It pins a
// contract the repo otherwise guarantees only through golden tests that
// fire *after* a regression lands:
//
//   - determinism: no wall clock, global RNG, goroutines or
//     order-sensitive map iteration in simulation packages — the bug
//     classes that break byte-identical results from run to run and
//     across campaign worker counts (-parallel N).
//
// The check is intraprocedural: it looks only at the bodies of the
// packages in simScope. That is enough because the scope is closed — no
// scoped package imports an unscoped package of this module, save the
// one exception TestDeterminismScopeIsClosed names — so every function a
// simulation calls into is itself checked where it is declared.
//
// The per-packet allocation contract is not linted; the
// testing.AllocsPerRun tests pin it on every `go test ./...`.
//
// The suite is framework-compatible in spirit with
// golang.org/x/tools/go/analysis but self-contained on the standard
// library: cmd/hpcclint drives it under `go vet -vettool`, and the
// analysistest subpackage runs it over testdata fixtures.
//
// # Annotation grammar
//
// Escapes are explicit comments, each carrying a reason:
//
//	//hpcclint:allow <a>[,<b>] -- <reason>    suppress those analyzers on
//	                                          this line or the next
//
// An escape without a reason is ignored (the diagnostic still fires), so
// every escape in the tree documents why it is legitimate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ReadmeAnchor is the README section documenting every invariant; each
// diagnostic points at it so a contributor hitting a finding knows why
// the rule exists and which golden test backs it at runtime.
const ReadmeAnchor = "README.md#static-analysis--invariants"

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name is the analyzer's identifier, used in //hpcclint:allow
	// annotations and -list output.
	Name string
	// Doc is the one-line description shown by -list.
	Doc string
	// Invariant names the repo contract the analyzer pins, echoed in
	// every diagnostic.
	Invariant string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{DeterminismAnalyzer}
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Report receives diagnostics that survive //hpcclint:allow
	// filtering.
	Report func(Diagnostic)

	allows map[*ast.File]map[int][]string // line -> analyzers allowed there
}

// Reportf emits a diagnostic at pos unless an
// "//hpcclint:allow <analyzer> -- reason" comment covers its line. The
// invariant name and README anchor are appended so the message is
// self-explanatory wherever it surfaces.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if p.allowed(p.Analyzer.Name, pos) {
		return
	}
	p.Report(Diagnostic{
		Pos: pos,
		Message: fmt.Sprintf("%s [invariant: %s; see %s]",
			fmt.Sprintf(format, args...), p.Analyzer.Invariant, ReadmeAnchor),
	})
}

// allowed reports whether an allow annotation for the named analyzer
// covers pos: a directive on the same line (trailing comment) or on the
// line directly above.
func (p *Pass) allowed(name string, pos token.Pos) bool {
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	if p.allows == nil {
		p.allows = make(map[*ast.File]map[int][]string)
	}
	idx, ok := p.allows[f]
	if !ok {
		idx = buildAllowIndex(p.Fset, f)
		p.allows[f] = idx
	}
	line := p.Fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		for _, n := range idx[l] {
			if n == name {
				return true
			}
		}
	}
	return false
}

func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

func buildAllowIndex(fset *token.FileSet, f *ast.File) map[int][]string {
	idx := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			names := allowedAnalyzers(c.Text)
			if len(names) == 0 {
				continue
			}
			line := fset.Position(c.End()).Line
			idx[line] = append(idx[line], names...)
		}
	}
	return idx
}

// allowedAnalyzers decodes an escape comment into the analyzer names it
// suppresses: "//hpcclint:allow a,b -- reason" suppresses a and b. A
// reasonless escape suppresses nothing (the diagnostic still fires), so
// every escape in the tree documents why it is legitimate.
func allowedAnalyzers(comment string) []string {
	rest, ok := strings.CutPrefix(comment, "//hpcclint:allow ")
	if !ok {
		return nil
	}
	names, reason, found := strings.Cut(rest, "--")
	if !found || strings.TrimSpace(reason) == "" {
		return nil
	}
	var out []string
	for _, name := range strings.Split(names, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// simScope lists the package names under internal/ whose code runs
// inside (or schedules) the deterministic simulation: the determinism
// analyzer applies to exactly these. internal/campaign is included
// because its worker pool brackets every scenario run, internal/packet
// because every hop runs its code, internal/stats because its sketches
// hold every result and campaign merges them. TestDeterminismScopeIsClosed
// keeps the list closed under imports.
var simScope = []string{"sim", "fabric", "host", "topology", "workload", "cc", "campaign", "packet", "stats"}

// inSimScope reports whether the import path is one of the simulation
// packages (".../internal/<name>" or a subpackage of it, e.g.
// internal/cc/hpcc).
func inSimScope(path string) bool {
	for _, name := range simScope {
		if hasSegments(path, "internal", name) {
			return true
		}
	}
	return false
}

// hasSegments reports whether path contains the given consecutive
// slash-separated segments.
func hasSegments(path string, segs ...string) bool {
	parts := strings.Split(path, "/")
	for i := 0; i+len(segs) <= len(parts); i++ {
		match := true
		for j, s := range segs {
			if parts[i+j] != s {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// funcObj resolves a call's callee to its types.Func, or nil for
// builtins, conversions and indirect calls through plain variables.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, names ...string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	if !ok {
		return false
	}
	for _, n := range names {
		if b.Name() == n {
			return true
		}
	}
	return false
}

// isConversion reports whether the call is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}
