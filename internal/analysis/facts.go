package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
)

// This file defines the interprocedural fact store. A fact is a
// per-function summary — "this function may transitively reach a
// wall-clock read / a global RNG draw / an allocating construct" —
// computed bottom-up over the package call graph
// (callgraph.go) and serialized per package through the vet unitchecker
// protocol: cmd/hpcclint writes this package's facts to the unit's
// VetxOutput file and reads dependency facts from the files listed in
// the unit cfg's PackageVetx map. analysistest computes dependency
// facts in process instead, walking fixture imports recursively.

// Kind enumerates the taint kinds the call-graph pass tracks.
type Kind int

const (
	// KindWallClock: the function may reach time.Now or time.Since.
	KindWallClock Kind = iota
	// KindGlobalRand: the function may draw from the process-global
	// math/rand source.
	KindGlobalRand
	// KindAlloc: the function may execute an allocating construct
	// (make/new/append, reference literals, closures, fmt, string
	// building).
	KindAlloc

	numKinds
)

// String names the kind for diagnostics and JSON output.
func (k Kind) String() string {
	switch k {
	case KindWallClock:
		return "wall-clock"
	case KindGlobalRand:
		return "global-rand"
	case KindAlloc:
		return "alloc"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// analyzer names the analyzer whose //hpcclint:allow escape cleanses
// roots and call edges of this kind from the summaries.
func (k Kind) analyzer() string {
	switch k {
	case KindWallClock, KindGlobalRand:
		return "determinism"
	case KindAlloc:
		return "hotpathalloc"
	}
	return ""
}

// Taint records that a function may reach a root construct of one kind.
type Taint struct {
	// Chain is the call path from (but excluding) the function itself
	// down to the root construct, e.g. ["stamp", "time.Now"] for a
	// function calling stamp which calls time.Now. A direct root is a
	// one-element chain.
	Chain []string `json:"chain"`
}

// FuncFact is the exported summary of one function.
type FuncFact struct {
	// AllocFree records an //hpcclint:alloc-free annotation: the
	// function's body is lint-enforced allocation-free, so callers do
	// not re-flag calls to it even if cleansed constructs remain inside.
	AllocFree bool `json:"allocFree,omitempty"`
	// Taints holds at most one taint per kind (the first reachable root
	// in source order). Keyed by Kind.String() in the JSON form.
	Taints [numKinds]*Taint `json:"-"`
}

// serializedFact is FuncFact's JSON wire form, with taints keyed by
// kind name so the vetx files are self-describing.
type serializedFact struct {
	AllocFree bool              `json:"allocFree,omitempty"`
	Taints    map[string]*Taint `json:"taints,omitempty"`
}

// SerializedFacts is the JSON document written to a unit's vetx file:
// facts keyed by the function's object path (types.Func.FullName, e.g.
// "hpcc/internal/fabric.clamp" or "(*hpcc/internal/fabric.Port).kick").
type SerializedFacts map[string]*serializedFact

// FactImporter resolves the serialized facts of a dependency package,
// or (nil, nil) when none were recorded for it.
type FactImporter func(pkgPath string) (SerializedFacts, error)

// PackageFacts holds the summaries for one package under analysis plus
// lazily-imported summaries of its dependencies.
type PackageFacts struct {
	pkg      *types.Package
	local    map[*types.Func]*FuncFact
	imported map[string]SerializedFacts
	importer FactImporter
}

// TaintOf returns fn's taint of the given kind, or nil when fn is
// untainted or unknown (no facts recorded for its package).
func (pf *PackageFacts) TaintOf(fn *types.Func, k Kind) *Taint {
	if f := pf.factOf(fn); f != nil {
		return f.Taints[k]
	}
	return nil
}

// AllocFree reports whether fn carries the //hpcclint:alloc-free
// contract.
func (pf *PackageFacts) AllocFree(fn *types.Func) bool {
	if f := pf.factOf(fn); f != nil {
		return f.AllocFree
	}
	return false
}

func (pf *PackageFacts) factOf(fn *types.Func) *FuncFact {
	if pf == nil || fn == nil {
		return nil
	}
	fn = fn.Origin()
	if fn.Pkg() == pf.pkg {
		return pf.local[fn]
	}
	if fn.Pkg() == nil {
		return nil
	}
	sf := pf.importedFacts(fn.Pkg().Path())
	if sf == nil {
		return nil
	}
	s, ok := sf[fn.FullName()]
	if !ok {
		return nil
	}
	return s.funcFact()
}

func (pf *PackageFacts) importedFacts(path string) SerializedFacts {
	if sf, ok := pf.imported[path]; ok {
		return sf
	}
	var sf SerializedFacts
	if pf.importer != nil {
		sf, _ = pf.importer(path) // unresolvable deps simply have no facts
	}
	pf.imported[path] = sf
	return sf
}

// Export serializes the package's own facts for the unit's vetx output.
func (pf *PackageFacts) Export() ([]byte, error) {
	out := SerializedFacts{}
	for fn, fact := range pf.local {
		s := &serializedFact{AllocFree: fact.AllocFree}
		for k := Kind(0); k < numKinds; k++ {
			if t := fact.Taints[k]; t != nil {
				if s.Taints == nil {
					s.Taints = map[string]*Taint{}
				}
				s.Taints[k.String()] = t
			}
		}
		if s.AllocFree || s.Taints != nil {
			out[fn.FullName()] = s
		}
	}
	return json.MarshalIndent(out, "", "\t")
}

// DecodeFacts parses a dependency's vetx file contents. Empty input
// (the placeholder cmd/hpcclint writes for packages outside the module)
// decodes as no facts.
func DecodeFacts(data []byte) (SerializedFacts, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var sf SerializedFacts
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, err
	}
	return sf, nil
}

func (s *serializedFact) funcFact() *FuncFact {
	f := &FuncFact{AllocFree: s.AllocFree}
	for name, t := range s.Taints {
		for k := Kind(0); k < numKinds; k++ {
			if k.String() == name {
				f.Taints[k] = t
			}
		}
	}
	return f
}

// displayName renders fn for a taint chain as seen from pkg:
// same-package functions by bare name ("stamp", "Port.kick"), foreign
// ones prefixed with their package name ("time.Now", "sim.Engine.At").
func displayName(fn *types.Func, pkg *types.Package) string {
	name := fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil && fn.Pkg() != pkg {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}
