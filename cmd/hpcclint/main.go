// Command hpcclint drives the internal/analysis suite under
// `go vet -vettool=hpcclint ./...`. It speaks the vet unitchecker
// protocol by hand (self-contained on the standard library, no
// golang.org/x/tools dependency):
//
//	hpcclint -V=full        identify the tool for build caching
//	hpcclint -flags         describe supported flags as JSON
//	hpcclint <cfg>          analyze one package unit described by the
//	                        JSON config file cmd/go writes
//	hpcclint -list          describe every analyzer and its invariant
//
// The analyzers export no facts, so a unit that cmd/go runs only for
// its facts (VetxOnly) returns at once, and no unit writes its
// VetxOutput file; cmd/go treats a missing one as no facts.
//
// Findings print as file:line:col: message and exit with status 2, the
// convention go vet interprets as "diagnostics reported".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"

	"hpcc/internal/analysis"
)

// version feeds the go build cache key: bump it whenever analyzer
// behavior changes, so no cached vet output from an older build is
// reused.
const version = "3.0.0"

func main() {
	flagV := flag.String("V", "", "print version and exit (use -V=full for the build-cache id)")
	flagFlags := flag.Bool("flags", false, "print the tool's flag schema as JSON and exit")
	flagList := flag.Bool("list", false, "list the analyzers, the invariant each pins, and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hpcclint [-list] [-V=full] [-flags] <unit.cfg>\n")
		fmt.Fprintf(os.Stderr, "run via: go vet -vettool=$(command -v hpcclint) ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch {
	case *flagV != "":
		// cmd/go hashes this line into the build cache key; the format
		// must be "<basename> version <...>".
		fmt.Printf("%s version %s\n", progName(), version)
		return
	case *flagFlags:
		// No analyzer-specific flags: cmd/go parses the reply to learn
		// which go vet flags it may forward.
		fmt.Println("[]")
		return
	case *flagList:
		list()
		return
	}

	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(1)
	}
	exitcode, err := runUnit(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpcclint: %v\n", err)
		os.Exit(1)
	}
	os.Exit(exitcode)
}

func progName() string { return filepath.Base(os.Args[0]) }

func list() {
	all := analysis.All()
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	for _, a := range all {
		fmt.Printf("%-17s %s\n", a.Name, a.Doc)
		fmt.Printf("%-17s invariant: %s (see %s)\n", "", a.Invariant, analysis.ReadmeAnchor)
	}
}

// unitConfig mirrors the JSON config cmd/go writes for each package
// unit (the unitchecker.Config wire format).
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	SucceedOnTypecheckFailure bool
}

func runUnit(cfgPath string) (int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 1, err
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 1, fmt.Errorf("parse %s: %v", cfgPath, err)
	}
	if cfg.VetxOnly {
		return 0, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, nil
			}
			return 1, err
		}
		files = append(files, f)
	}

	pkg, info, err := typecheck(&cfg, fset, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 1, fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err)
	}

	var diags []analysis.Diagnostic
	for _, a := range analysis.All() {
		pass := &analysis.Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return 1, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	if len(diags) == 0 {
		return 0, nil
	}
	return 2, nil
}

// typecheck resolves imports through the export data cmd/go lists in
// the config: ImportMap translates source import paths to canonical
// package paths, PackageFile locates each package's export file.
func typecheck(cfg *unitConfig, fset *token.FileSet, files []*ast.File) (*types.Package, *types.Info, error) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	exportImporter := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath]
			if !ok {
				path = importPath
			}
			if path == "unsafe" {
				return types.Unsafe, nil
			}
			return exportImporter.Import(path)
		}),
		Sizes: types.SizesFor(compiler, "amd64"),
	}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
