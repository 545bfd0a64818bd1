package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the per-package call graph and computes the
// interprocedural summaries facts.go defines. The pass is deliberately
// simple and deterministic:
//
//   - Roots are the direct constructs each analyzer flags: wall-clock
//     reads (time.Now/Since), global math/rand draws, and allocating
//     constructs.
//   - A call edge to a function in the same package propagates the
//     callee's taint to the caller via fixpoint iteration; a call into
//     another package resolves against that package's serialized facts.
//   - An //hpcclint:allow escape at a root or call site cleanses the
//     construct from the summary too — an allowed escape is an audited
//     decision, so callers of the escaping function stay clean.
//   - Each function keeps at most one taint per kind: the first root
//     reachable in source order, with the full call chain recorded for
//     the diagnostic.
//
// Closure bodies are not attributed to the enclosing function (the
// FuncLit itself is an alloc root; what runs inside it runs at a
// different time), and calls through plain function values are not
// edges — the lint is conservative-off there, matching the
// intraprocedural analyzers.

// ComputeFacts builds the interprocedural summaries for one
// type-checked package. The importer resolves dependency facts; nil
// means dependencies contribute nothing (purely intra-package chains).
func ComputeFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, imp FactImporter) *PackageFacts {
	pf := &PackageFacts{
		pkg:      pkg,
		local:    map[*types.Func]*FuncFact{},
		imported: map[string]SerializedFacts{},
		importer: imp,
	}

	allowIdx := map[*ast.File]map[int][]string{}
	allowed := func(f *ast.File, analyzer string, pos token.Pos) bool {
		idx, ok := allowIdx[f]
		if !ok {
			idx = buildAllowIndex(fset, f)
			allowIdx[f] = idx
		}
		line := fset.Position(pos).Line
		for _, l := range [2]int{line, line - 1} {
			for _, n := range idx[l] {
				if n == analyzer {
					return true
				}
			}
		}
		return false
	}

	type callEdge struct {
		callee *types.Func
		pos    token.Pos
	}
	type fnInfo struct {
		decl  *ast.FuncDecl
		file  *ast.File
		fact  *FuncFact
		edges []callEdge
	}
	var fns []*fnInfo

	for _, f := range files {
		if isTestFile(fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := &fnInfo{decl: fd, file: f, fact: &FuncFact{AllocFree: isAllocFree(fd)}}
			fns = append(fns, fi)
			pf.local[obj] = fi.fact
		}
	}

	for _, fi := range fns {
		fi := fi
		addTaint := func(k Kind, pos token.Pos, chain ...string) {
			if fi.fact.Taints[k] != nil || allowed(fi.file, k.analyzer(), pos) {
				return
			}
			fi.fact.Taints[k] = &Taint{Chain: chain}
		}
		handleCall := func(call *ast.CallExpr) {
			switch {
			case isBuiltin(info, call, "make"):
				addTaint(KindAlloc, call.Pos(), "make")
				return
			case isBuiltin(info, call, "new"):
				addTaint(KindAlloc, call.Pos(), "new")
				return
			case isBuiltin(info, call, "append"):
				addTaint(KindAlloc, call.Pos(), "append")
				return
			case isConversion(info, call):
				if isCopyingConversion(info, call) {
					addTaint(KindAlloc, call.Pos(), "string-conversion")
				}
				return
			}
			fn := funcObj(info, call)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			fn = fn.Origin()
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" {
					addTaint(KindWallClock, call.Pos(), "time."+fn.Name())
					return
				}
			case "math/rand", "math/rand/v2":
				if isGlobalRandDraw(fn) {
					addTaint(KindGlobalRand, call.Pos(), fn.Pkg().Name()+"."+fn.Name())
					return
				}
			case "fmt":
				addTaint(KindAlloc, call.Pos(), "fmt."+fn.Name())
				return
			}
			if fn.Pkg() == pkg {
				fi.edges = append(fi.edges, callEdge{callee: fn, pos: call.Pos()})
				return
			}
			// Cross-package edge: dependency facts are final, resolve now.
			impFact := pf.factOf(fn)
			if impFact == nil {
				return
			}
			for k := Kind(0); k < numKinds; k++ {
				if k == KindAlloc && impFact.AllocFree {
					continue
				}
				if t := impFact.Taints[k]; t != nil {
					addTaint(k, call.Pos(), append([]string{displayName(fn, pkg)}, t.Chain...)...)
				}
			}
		}
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				addTaint(KindAlloc, n.Pos(), "closure")
				return false // the closure body runs in a different context
			case *ast.CallExpr:
				handleCall(n)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						addTaint(KindAlloc, n.Pos(), "&composite-literal")
					}
				}
			case *ast.CompositeLit:
				if t := info.TypeOf(n); t != nil {
					switch t.Underlying().(type) {
					case *types.Map:
						addTaint(KindAlloc, n.Pos(), "map-literal")
					case *types.Slice:
						addTaint(KindAlloc, n.Pos(), "slice-literal")
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
					addTaint(KindAlloc, n.Pos(), "string-concat")
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
					addTaint(KindAlloc, n.Pos(), "string-concat")
				}
			}
			return true
		})
	}

	// Bottom-up fixpoint over the local edges. Iteration order is the
	// source order of functions and call sites, so the recorded chains
	// are deterministic.
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			for _, e := range fi.edges {
				calleeFact := pf.local[e.callee]
				if calleeFact == nil {
					continue
				}
				for k := Kind(0); k < numKinds; k++ {
					if fi.fact.Taints[k] != nil {
						continue
					}
					if k == KindAlloc && calleeFact.AllocFree {
						continue
					}
					t := calleeFact.Taints[k]
					if t == nil || allowed(fi.file, k.analyzer(), e.pos) {
						continue
					}
					fi.fact.Taints[k] = &Taint{
						Chain: append([]string{displayName(e.callee, pkg)}, t.Chain...),
					}
					changed = true
				}
			}
		}
	}
	return pf
}

// isGlobalRandDraw reports whether fn is a package-level math/rand
// function that draws from the shared global source (constructors are
// not draws; methods on seeded sources are the deterministic pattern).
func isGlobalRandDraw(fn *types.Func) bool {
	if fn.Signature().Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

// isCopyingConversion reports string<->[]byte/[]rune conversions, the
// conversions that copy their operand.
func isCopyingConversion(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	to, from := info.TypeOf(call), info.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return false
	}
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}
