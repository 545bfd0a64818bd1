package analysis

import (
	"go/ast"
	"go/types"
)

// EventKeyAnalyzer flags unkeyed Engine.At/Engine.After calls in the
// packet-delivery and arrival packages (internal/fabric, topology,
// workload). PR 5's canonical event rank orders same-picosecond events
// by a structural key derived from the spec; an unkeyed call falls back
// to key 0 and ties break by arming order, which differs between 1 and
// N shards. Delivery and arrival paths must use the keyed calls —
// AtKey/AfterKey with sim.ArrivalKey, Engine.Deliver with the port's
// WireKey. Interprocedurally, calling a
// helper outside the delivery scope whose summary says it schedules
// unkeyed is flagged at the call site with the chain.
var EventKeyAnalyzer = &Analyzer{
	Name:      "eventkey",
	Doc:       "packet-delivery and arrival paths must schedule via AtKey/AfterKey/Deliver so same-picosecond ties order by the canonical rank",
	Invariant: "canonical-event-rank",
	Run:       runEventKey,
}

func runEventKey(pass *Pass) error {
	if !inDeliveryScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcObj(pass.Info, call)
			if fn == nil {
				return true
			}
			if isEngineMethod(fn, "At", "After") {
				pass.Reportf(call.Pos(),
					"unkeyed Engine.%s on a delivery/arrival path: same-picosecond ties break by arming order, "+
						"which diverges between 1 and N shards; use %sKey with sim.ArrivalKey, or Deliver with the port's WireKey, "+
						"or annotate //hpcclint:allow eventkey -- <reason> if ties are provably local",
					fn.Name(), fn.Name())
				return true
			}
			checkTaintedSchedCall(pass, call, fn)
			return true
		})
	}
	return nil
}

// checkTaintedSchedCall flags calls into helpers outside the delivery
// scope whose summaries say they transitively schedule through unkeyed
// Engine.At/After. Callees inside the scope are skipped — their own
// package's analysis reports the offending call.
func checkTaintedSchedCall(pass *Pass, call *ast.CallExpr, fn *types.Func) {
	if pass.Facts == nil || fn.Pkg() == nil || inDeliveryScope(fn.Pkg().Path()) {
		return
	}
	t := pass.Facts.TaintOf(fn, KindUnkeyedSched)
	if t == nil {
		return
	}
	chain := append([]string{displayName(fn, pass.Pkg)}, t.Chain...)
	pass.ReportChainf(call.Pos(), chain,
		"call to %s schedules through unkeyed Engine.At/After on a delivery/arrival path: same-picosecond "+
			"ties break by arming order, which diverges between 1 and N shards; plumb a key down to the "+
			"AtKey/AfterKey/Deliver call or annotate //hpcclint:allow eventkey -- <reason> if ties are provably local",
		displayName(fn, pass.Pkg))
}

// isEngineMethod reports whether fn is a method with one of the given
// names on *Engine (or Engine) from a package named "sim".
func isEngineMethod(fn *types.Func, names ...string) bool {
	match := false
	for _, n := range names {
		if fn.Name() == n {
			match = true
			break
		}
	}
	if !match {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Engine" && obj.Pkg() != nil && obj.Pkg().Name() == "sim"
}
