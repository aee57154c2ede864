// Package analysis defines the analyzer model for ibvet, the repository's
// static-analysis suite. It deliberately mirrors the shape of
// golang.org/x/tools/go/analysis — an Analyzer owns a name, a doc string and
// a Run function over a Pass — so each checker reads like a standard vet
// pass and could be ported to the real framework verbatim. The build runs
// hermetically offline, so the framework itself is reimplemented on the
// standard library (go/ast, go/types) instead of importing x/tools; package
// loading is left to the go command (go vet -vettool) and, for fixtures, to
// the standard library's source importer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//lint:ignore <name> <reason>" suppression directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to a package and reports findings via
	// pass.Reportf.
	Run func(*Pass) error
}

// Pass is the interface between one analyzer and one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path as the build system knows it
	// (testdata packages use their directory name).
	Path string
	Fset *token.FileSet
	// Files holds the parsed syntax trees, comments included.
	Files []*ast.File
	Pkg   *types.Package
	// TypesInfo records type and object resolution for every expression
	// and identifier in Files.
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer names the originating check (filled by Reportf).
	Analyzer string
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// ObjectOf resolves an identifier to its types.Object, consulting both uses
// and defs (the common lookup every analyzer needs).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return p.TypesInfo.Defs[id]
}

// PkgNameOf reports the imported package an identifier refers to, or nil:
// the qualifier test behind "is this call time.Now or a method on a local
// variable that happens to be named time".
func (p *Pass) PkgNameOf(e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := p.TypesInfo.Uses[id].(*types.PkgName)
	return pn
}

// Check type-checks files as the package path, resolving its imports
// through imp, and runs every analyzer over the result. It returns the
// diagnostics in analyzer order; a non-nil error means the package did not
// type-check or an analyzer failed, not that findings exist.
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, analyzers []*Analyzer) ([]Diagnostic, error) {
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Path: path, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %v", a.Name, path, err)
		}
		diags = append(diags, pass.diagnostics...)
	}
	return diags, nil
}
