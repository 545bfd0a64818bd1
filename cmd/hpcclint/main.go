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
//	hpcclint -list-allows   inventory every annotation under a tree
//	hpcclint -json <cfg>    emit findings as JSON instead of text
//
// Facts: each unit exports its interprocedural summaries (see
// internal/analysis/facts.go) as JSON to the VetxOutput file cmd/go
// assigns it, and imports dependency summaries from the files listed in
// PackageVetx — the same channel x/tools unitcheckers use for facts.
// Packages outside this module export an empty placeholder, so only
// hpcc packages pay the typechecking cost during the facts-only pass.
//
// Findings print as file:line:col: message and exit with status 2, the
// convention go vet interprets as "diagnostics reported". When the
// HPCCLINT_JSON environment variable names a file, every finding is
// also appended to it as one JSON object per line — units run as
// separate processes, so CI collects one merged JSONL artifact there.
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
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hpcc/internal/analysis"
)

// version feeds the go build cache key: bump it whenever analyzer
// behavior or the fact schema changes, or cached empty vetx files from
// older runs would be replayed as "no facts".
const version = "2.1.0"

func main() {
	flagV := flag.String("V", "", "print version and exit (use -V=full for the build-cache id)")
	flagFlags := flag.Bool("flags", false, "print the tool's flag schema as JSON and exit")
	flagList := flag.Bool("list", false, "list the analyzers, the invariant each pins, and exit")
	flagListAllows := flag.String("list-allows", "", "inventory hpcclint annotations under the given directory and exit")
	flagJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout instead of text on stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hpcclint [-list] [-list-allows dir] [-V=full] [-flags] [-json] <unit.cfg>\n")
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
	case *flagListAllows != "":
		if err := listAllows(*flagListAllows); err != nil {
			fmt.Fprintf(os.Stderr, "hpcclint: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(1)
	}
	exitcode, err := runUnit(flag.Arg(0), *flagJSON)
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

// listAllows prints every hpcclint annotation under dir, one per line,
// sorted by position — the escape inventory CI diffs so a new escape is
// visible in review. testdata fixtures are excluded (their annotations
// exercise the analyzers rather than excuse real code).
func listAllows(dir string) error {
	fset := token.NewFileSet()
	var lines []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == ".git" || strings.HasPrefix(name, ".") && name != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %v", path, err)
		}
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil {
			rel = path
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				kind, rest, ok := analysis.ParseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				entry := fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, kind)
				if rest != "" {
					entry += " " + rest
				}
				lines = append(lines, entry)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// WalkDir visits files in lexical order and comments arrive in
	// source order, so the inventory is already (file, line)-sorted —
	// stable for committed-inventory diffs in CI.
	for _, l := range lines {
		fmt.Println(l)
	}
	return nil
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
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// inModule reports whether the unit belongs to this module: only hpcc
// packages carry facts, so everything else writes an empty placeholder.
func (cfg *unitConfig) inModule() bool {
	path := cfg.ImportPath
	// Test variants are listed as "pkg [pkg.test]" or "pkg.test".
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	return path == "hpcc" || strings.HasPrefix(path, "hpcc/")
}

// jsonFinding is the machine-readable form of one diagnostic.
type jsonFinding struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

func runUnit(cfgPath string, jsonOut bool) (int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 1, err
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 1, fmt.Errorf("parse %s: %v", cfgPath, err)
	}

	writeVetx := func(facts []byte) error {
		if cfg.VetxOutput == "" {
			return nil
		}
		return os.WriteFile(cfg.VetxOutput, facts, 0o666)
	}

	// Packages outside the module contribute no facts; skip the parse
	// and typecheck entirely on their facts-only pass.
	if !cfg.inModule() {
		if err := writeVetx(nil); err != nil {
			return 1, err
		}
		if cfg.VetxOnly {
			return 0, nil
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, writeVetx(nil)
			}
			return 1, err
		}
		files = append(files, f)
	}

	pkg, info, err := typecheck(&cfg, fset, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, writeVetx(nil)
		}
		return 1, fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err)
	}

	var facts *analysis.PackageFacts
	if cfg.inModule() {
		facts = analysis.ComputeFacts(fset, files, pkg, info, func(path string) (analysis.SerializedFacts, error) {
			vetx, ok := cfg.PackageVetx[path]
			if !ok {
				return nil, nil
			}
			data, err := os.ReadFile(vetx)
			if err != nil {
				return nil, nil // missing facts degrade to intraprocedural
			}
			return analysis.DecodeFacts(data)
		})
		exported, err := facts.Export()
		if err != nil {
			return 1, fmt.Errorf("export facts for %s: %v", cfg.ImportPath, err)
		}
		if err := writeVetx(exported); err != nil {
			return 1, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}

	var diags []analysis.Diagnostic
	for _, a := range analysis.All() {
		pass := &analysis.Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			Facts:    facts,
			Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return 1, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })

	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		findings = append(findings, jsonFinding{
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Chain:    d.Chain,
		})
	}
	if err := appendJSONL(findings); err != nil {
		return 1, err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(findings); err != nil {
			return 1, err
		}
	} else {
		for i, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), findings[i].Message)
		}
	}
	if len(diags) == 0 {
		return 0, nil
	}
	return 2, nil
}

// appendJSONL appends findings to $HPCCLINT_JSON, one JSON object per
// line. Each vet unit is a separate process appending whole lines, so a
// parallel run still yields one well-formed JSONL file.
func appendJSONL(findings []jsonFinding) error {
	path := os.Getenv("HPCCLINT_JSON")
	if path == "" || len(findings) == 0 {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	defer f.Close()
	var buf strings.Builder
	for _, fd := range findings {
		line, err := json.Marshal(fd)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	_, err = io.WriteString(f, buf.String())
	return err
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
