// Command ibvet is the repository's vet tool: the go command runs it once
// per package, test variants included, with the custom determinism, pooling
// and hot-path analyzers from internal/lint:
//
//	go build -o ibvet ./cmd/ibvet && go vet -vettool=$PWD/ibvet ./...
//
// Each finding is printed to stderr as "file:line:col: message (analyzer)",
// and any finding fails the run. A deliberate one is suppressed with a
// reasoned directive on the offending line or the line above:
//
//	//lint:ignore maporder replicas commute: every slot is written once
//
// A directive without a reason suppresses nothing. The standard vet passes
// are not part of ibvet; `go vet ./...` runs them.
package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"slices"
	"strings"

	"mlid/internal/lint/analysis"
	"mlid/internal/lint/hotpath"
	"mlid/internal/lint/maporder"
	"mlid/internal/lint/pktpool"
	"mlid/internal/lint/simdeterminism"
)

// analyzers is the ibvet suite.
var analyzers = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	maporder.Analyzer,
	pktpool.Analyzer,
	hotpath.Analyzer,
	hotpath.SMAnalyzer,
	hotpath.SelectorAnalyzer,
}

// config is the part of the go command's vet.cfg that ibvet reads.
type config struct {
	Compiler    string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string // import path -> package path
	PackageFile map[string]string // package path -> export data file
	VetxOnly    bool
	VetxOutput  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run answers the go command's two queries (-V=full for the tool's cache
// identity, -flags for the flags it accepts: none) or vets the package a
// vet.cfg describes. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: go vet -vettool=$(command -v ibvet) [packages]")
		return 2
	}
	switch args[0] {
	case "-V=full":
		exe, err := os.Executable()
		if err == nil {
			var data []byte
			if data, err = os.ReadFile(exe); err == nil {
				fmt.Fprintf(stdout, "ibvet version devel buildID=%x\n", sha256.Sum256(data))
				return 0
			}
		}
		fmt.Fprintf(stderr, "ibvet: %v\n", err)
		return 2
	case "-flags":
		fmt.Fprintln(stdout, "[]")
		return 0
	}
	lines, err := vet(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "ibvet: %v\n", err)
		return 2
	}
	for _, l := range lines {
		fmt.Fprintln(stderr, l)
	}
	if len(lines) > 0 {
		return 1
	}
	return 0
}

// vet type-checks the package that the vet.cfg at cfgFile describes, from
// its sources and its dependencies' export data, and returns its findings.
func vet(cfgFile string) ([]string, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %v", cfgFile, err)
	}
	// ibvet computes no facts, but the go command expects the file.
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil || cfg.VetxOnly {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	compiled := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := cfg.ImportMap[path]; ok {
			path = p
		}
		return compiled.Import(path)
	})
	diags, err := analysis.Check(fset, cfg.ImportPath, files, imp, analyzers)
	if err != nil {
		return nil, err
	}
	return report(fset, files, diags), nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// report formats the diagnostics that no reasoned directive covers, sorted
// by position and analyzer. A "//lint:ignore <names> <reason>" comment
// covers its own line and the next for each comma-separated analyzer name,
// or for every analyzer under "*"; without a reason it covers nothing.
func report(fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) []string {
	type fileLine struct {
		file string
		line int
	}
	ignored := map[fileLine][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				fields := strings.Fields(text)
				if !ok || len(fields) < 2 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := fileLine{pos.Filename, line}
					ignored[k] = append(ignored[k], strings.Split(fields[0], ",")...)
				}
			}
		}
	}
	type finding struct {
		pos token.Position
		d   analysis.Diagnostic
	}
	var kept []finding
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		names := ignored[fileLine{pos.Filename, pos.Line}]
		if !slices.Contains(names, "*") && !slices.Contains(names, d.Analyzer) {
			kept = append(kept, finding{pos, d})
		}
	}
	slices.SortFunc(kept, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.pos.Filename, b.pos.Filename), a.pos.Offset-b.pos.Offset,
			strings.Compare(a.d.Analyzer, b.d.Analyzer))
	})
	lines := make([]string, len(kept))
	for i, k := range kept {
		lines[i] = fmt.Sprintf("%s: %s (%s)", k.pos, k.d.Message, k.d.Analyzer)
	}
	return lines
}
