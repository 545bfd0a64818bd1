// Package analysis is hpcclint: a static-analysis suite that enforces
// the simulator's determinism and hot-path invariants at build time.
// Each analyzer pins a contract the repo otherwise guarantees only
// through golden tests that fire *after* a regression lands:
//
//   - determinism: no wall clock, global RNG, goroutines or
//     order-sensitive map iteration in simulation packages — the bug
//     classes that break byte-identical results from run to run and
//     across campaign worker counts (-parallel N).
//   - hotpathalloc: functions annotated //hpcclint:alloc-free contain
//     no allocating constructs.
//
// Both are interprocedural: a facts pass (facts.go, callgraph.go)
// computes per-function summaries — MayWallClock, MayGlobalRand,
// MayAlloc — propagates them bottom-up through the
// package call graph, and serializes them per package through the vet
// unitchecker protocol, so calling a helper that transitively reaches
// time.Now is flagged at the sim-package call site with the full chain
// ("a → b → time.Now") in the diagnostic.
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
//	                                          this line or the next; also
//	                                          cleanses the construct from
//	                                          interprocedural summaries
//	//hpcclint:alloc-free                     opt a function into
//	                                          hotpathalloc checking
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
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string
	// Chain is the call path from the reported call site to the taint
	// root for interprocedural findings ("a → b → time.Now"); empty for
	// direct findings.
	Chain []string
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
	return []*Analyzer{
		DeterminismAnalyzer,
		HotPathAllocAnalyzer,
	}
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Facts holds the interprocedural summaries for this package and
	// its dependencies (see facts.go). Nil disables call-site taint
	// checks, leaving each analyzer purely intraprocedural.
	Facts *PackageFacts

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
	p.report(pos, nil, format, args...)
}

// ReportChainf is Reportf for interprocedural findings: the taint chain
// (call path from the flagged call to the root construct) is appended to
// the message and carried structurally for -json output.
func (p *Pass) ReportChainf(pos token.Pos, chain []string, format string, args ...interface{}) {
	p.report(pos, chain, format, args...)
}

func (p *Pass) report(pos token.Pos, chain []string, format string, args ...interface{}) {
	if p.Allowed(p.Analyzer.Name, pos) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if len(chain) > 0 {
		msg = fmt.Sprintf("%s [chain: %s]", msg, strings.Join(chain, " → "))
	}
	p.Report(Diagnostic{
		Pos: pos,
		Message: fmt.Sprintf("%s [invariant: %s; see %s]",
			msg, p.Analyzer.Invariant, ReadmeAnchor),
		Analyzer: p.Analyzer.Name,
		Chain:    chain,
	})
}

// Allowed reports whether an allow annotation for the named analyzer
// covers pos: a directive on the same line (trailing comment) or on the
// line directly above.
func (p *Pass) Allowed(name string, pos token.Pos) bool {
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
			names := AllowedAnalyzers(c.Text)
			if len(names) == 0 {
				continue
			}
			line := fset.Position(c.End()).Line
			idx[line] = append(idx[line], names...)
		}
	}
	return idx
}

// AllowedAnalyzers decodes an escape comment into the analyzer names it
// suppresses: "//hpcclint:allow a,b -- reason" suppresses a and b. A
// reasonless escape suppresses nothing (the diagnostic still fires), so
// every escape in the tree documents why it is legitimate.
func AllowedAnalyzers(comment string) []string {
	kind, rest, ok := ParseDirective(comment)
	if !ok || kind != "allow" {
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

// ParseDirective decodes an "//hpcclint:<kind> <rest>" comment,
// reporting ok = false for ordinary comments. Kind is "allow" or
// "alloc-free".
func ParseDirective(text string) (kind, rest string, ok bool) {
	const prefix = "//hpcclint:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	body := strings.TrimPrefix(text, prefix)
	kind, rest, _ = strings.Cut(body, " ")
	switch kind {
	case "allow", "alloc-free":
		return kind, strings.TrimSpace(rest), true
	}
	return "", "", false
}

// simScope lists the package names under internal/ whose code runs
// inside (or schedules) the deterministic simulation: the determinism
// analyzer applies to exactly these. internal/campaign is included
// because its worker pool brackets every scenario run.
var simScope = []string{"sim", "fabric", "host", "topology", "workload", "cc", "campaign"}

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
