// Command swrecvet is the swrec invariant checker: a go vet tool that
// runs the project's analyzers (internal/analysis/registry) on every
// package of a build, with full type information. It is built to be
// driven by the go command:
//
//	go build -o bin/swrecvet ./cmd/swrecvet
//	go vet -vettool=$(pwd)/bin/swrecvet ./...
//
// (or `make lint`, which does exactly that). Each analyzer encodes one
// invariant — see the DESIGN.md "Static analysis" table for the
// mapping — and supports the auditable suppression comments documented
// in internal/analysis/lintutil; the nolint pass reports every justified
// suppression that no longer covers a diagnostic. canary_test.go proves
// each analyzer on a recorded one-line edit of the real tree.
//
// swrecvet speaks the protocol of go vet's -vettool on the standard
// library alone. go vet asks it for its version (-V=full, which keys
// vet's cache on the executable's hash) and its flags (-flags: only
// -json, so no analyzer can be switched off), then runs it once per
// package with a JSON config naming the package's files and the export
// data of its imports. Dependencies are run with VetxOnly set, for the
// facts they would export; no analyzer exports any, so those runs
// write an empty fact file and return.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"strings"

	"swrec/internal/analysis/lintutil"
	"swrec/internal/analysis/registry"
)

// config is the part of go vet's per-package config file
// (cmd/go/internal/work.vetConfig) that swrecvet reads.
type config struct {
	ID                        string // package ID, e.g. "fmt [fmt.test]"
	Compiler                  string // gc or gccgo
	ImportPath                string
	GoFiles                   []string          // absolute paths
	ImportMap                 map[string]string // import path in source → package path
	PackageFile               map[string]string // package path → export data file
	GoVersion                 string
	VetxOnly                  bool   // a dependency: write facts, report nothing
	VetxOutput                string // where go vet expects the facts
	SucceedOnTypecheckFailure bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("swrecvet: ")
	version := flag.String("V", "", "print the version (-V=full) and exit")
	flags := flag.Bool("flags", false, "print the flags go vet may pass, as JSON, and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as JSON")
	flag.Parse()
	switch {
	case *version != "":
		printVersion(*version)
	case *flags:
		fmt.Println(`[{"Name":"json","Bool":true,"Usage":"emit diagnostics as JSON"}]`)
	case flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".cfg"):
		os.Exit(run(flag.Arg(0), *asJSON))
	default:
		log.Fatal(`run me through go vet: go vet -vettool=$(which swrecvet) ./...`)
	}
}

// printVersion answers -V=full in the form go vet's toolID parses:
// "<name> version devel ... buildID=<id>". The ID is the executable's
// hash, so a rebuilt tool invalidates vet's cached results.
func printVersion(v string) {
	if v != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", v)
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel swrecvet buildID=%x\n", exe, h.Sum(nil))
}

// run checks the package a vet config describes and returns the exit
// code: 1 when a diagnostic was printed as text or the package could
// not be checked, else 0.
func run(cfgFile string, asJSON bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("decode %s: %v", cfgFile, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatal(err)
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	pkg, files, info, err := check(fset, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		log.Print(err)
		return 1
	}
	analyzers := registry.All()
	diags := lintutil.Run(fset, files, pkg, info, analyzers)

	if asJSON {
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		byAnalyzer := make(map[string][]jsonDiag)
		for a, ds := range diags {
			for _, d := range ds {
				byAnalyzer[a.Name] = append(byAnalyzer[a.Name], jsonDiag{fset.Position(d.Pos).String(), d.Message})
			}
		}
		tree := map[string]map[string][]jsonDiag{}
		if len(byAnalyzer) > 0 {
			tree[cfg.ID] = byAnalyzer
		}
		out, err := json.MarshalIndent(tree, "", "\t")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", out)
		return 0
	}
	exit := 0
	for _, a := range analyzers {
		for _, d := range diags[a] {
			fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
			exit = 1
		}
	}
	return exit
}

// check parses and type-checks the package, resolving its imports
// through the config's import map to the export data the go command
// built for them.
func check(fset *token.FileSet, cfg *config) (*types.Package, []*ast.File, *types.Info, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	exports := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			resolved, ok := cfg.ImportMap[path]
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", path)
			}
			return exports.Import(resolved)
		}),
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return pkg, files, info, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
