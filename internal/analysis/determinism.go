package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterminismAnalyzer flags the constructs that make a simulation
// package's results differ from run to run or with the campaign's
// worker count (-parallel N): wall-clock reads, draws from the global
// math/rand source, goroutine launches, and iteration over maps where
// the body's effects depend on iteration order. It is intraprocedural
// and sees only the packages in simScope; TestDeterminismScopeIsClosed
// keeps every package they import inside that scope, so a helper that
// reads the wall clock is flagged where its own body does. The
// invariant is pinned at runtime by the golden tests
// (internal/experiment/golden_test.go) and the CI run-twice and
// -parallel smokes; this analyzer catches it at build time instead.
var DeterminismAnalyzer = &Analyzer{
	Name:      "determinism",
	Doc:       "forbid wall clock, global RNG, goroutines and order-sensitive map iteration in simulation packages",
	Invariant: "byte-identical-replay",
	Run:       runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !inSimScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondeterministicCall(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement in a simulation package: goroutine interleaving is not replayable; "+
						"run the world single-threaded per engine or annotate //hpcclint:allow determinism -- <reason>")
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkNondeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := funcObj(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(),
				"time.%s in a simulation package: wall-clock reads diverge from run to run; "+
					"use the engine clock (Engine.Now) or annotate //hpcclint:allow determinism -- <reason>", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Package-level functions draw from the shared global source;
		// seeded *rand.Rand streams (methods) are the deterministic
		// pattern sim.NewRNG hands out.
		if isGlobalRandDraw(fn) {
			pass.Reportf(call.Pos(),
				"math/rand.%s draws from the process-global source; thread a seeded *rand.Rand from the spec "+
					"(sim.NewRNG) or annotate //hpcclint:allow determinism -- <reason>", fn.Name())
		}
	}
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

// checkMapRange flags `range m` over a map when the loop body's effect
// depends on iteration order: calls that may schedule events or emit
// output, appends to outer slices, and non-commutative writes to outer
// state. Commutative integer accumulation (+=, -=, ^=, |=, &= and
// ++/--) is exempt; floating-point accumulation is not, because
// rounding makes even a sum order-sensitive.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	hazard := mapRangeHazard(pass, rng)
	if hazard == "" {
		return
	}
	pass.Reportf(rng.Pos(),
		"iteration over a map with an order-sensitive body (%s): map order is randomized per process, "+
			"so this diverges from run to run; iterate sorted keys, make the body commutative, "+
			"or annotate //hpcclint:allow determinism -- <reason>", hazard)
}

func mapRangeHazard(pass *Pass, rng *ast.RangeStmt) string {
	info := pass.Info
	body := rng.Body
	// An object is loop-local when it is declared inside the range
	// statement (including the key/value variables).
	isLocal := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < body.End()
	}
	// rootObj resolves the base identifier of an lvalue (x, x.f, x[i],
	// *x ... chains).
	var rootObj func(e ast.Expr) types.Object
	rootObj = func(e ast.Expr) types.Object {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(e)
		case *ast.SelectorExpr:
			return rootObj(e.X)
		case *ast.IndexExpr:
			return rootObj(e.X)
		case *ast.StarExpr:
			return rootObj(e.X)
		}
		return nil
	}
	isFloat := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0
	}

	var hazard string
	note := func(h string) {
		if hazard == "" {
			hazard = h
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if hazard != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(info, n, "delete", "len", "cap", "min", "max", "append", "clear", "copy") ||
				isConversion(info, n) {
				return true
			}
			note("calls a function, which may schedule events or emit output")
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				obj := rootObj(lhs)
				if obj == nil || isLocal(obj) {
					continue
				}
				switch n.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.XOR_ASSIGN,
					token.OR_ASSIGN, token.AND_ASSIGN:
					if isFloat(lhs) {
						note("floating-point accumulation into outer state; rounding is order-sensitive")
					}
				default:
					// Plain assignment or appends into outer state:
					// the final value depends on which key came last.
					note("writes outer state in iteration order")
				}
			}
		case *ast.IncDecStmt:
			if obj := rootObj(n.X); obj != nil && !isLocal(obj) && isFloat(n.X) {
				note("floating-point accumulation into outer state; rounding is order-sensitive")
			}
		case *ast.SendStmt:
			note("sends on a channel in iteration order")
		case *ast.GoStmt, *ast.DeferStmt:
			note("launches work in iteration order")
		}
		return true
	})
	return hazard
}
