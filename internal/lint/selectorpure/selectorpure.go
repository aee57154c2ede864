// Package selectorpure enforces the path-selection purity contract: a
// Selector's Select method must be a pure function of its SelectContext.
// The golden and scenario fixtures pin every built-in selector bit-for-bit
// for a given configuration and seed, and that holds only because Select
// consults nothing but the context — the candidate mask, the flow identity, the source's
// seeded RNG stream, and the read-only CongestionView. The analyzer checks
// every method named Select on a receiver type ending in "Selector" inside
// package sim's non-test files and rejects:
//
//   - calls into package time — a selector has no business on any clock;
//     even simulated time is withheld, so policies cannot key on phase;
//   - calls into package math/rand (including the constructors) — all
//     randomness must be drawn from SelectContext.RNG, the source node's
//     seeded stream; a fresh or global generator breaks reproducibility;
//   - any use of a value of type Sim or *Sim — the engine's state is
//     reachable only through the CongestionView window, a read-only view
//     of the candidates' first-hop port counters.
//
// A justified exception is suppressed the usual way, with a reasoned
// directive:
//
//	//lint:ignore selectorpure <why this read is deterministic>
package selectorpure

import (
	"go/ast"
	"go/types"
	"strings"

	"mlid/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "selectorpure",
	Doc:  "forbid clocks, non-context randomness and engine-state access in Selector.Select methods",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	leaf := pass.Path
	if i := strings.LastIndexByte(leaf, '/'); i >= 0 {
		leaf = leaf[i+1:]
	}
	if strings.TrimSuffix(leaf, "_test") != "sim" {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil || fn.Name.Name != "Select" {
				continue
			}
			if !strings.HasSuffix(recvTypeName(fn), "Selector") {
				continue
			}
			checkBody(pass, fn)
		}
	}
	return nil
}

// recvTypeName extracts the receiver's type name ("rankSelector" from
// "func (rankSelector) Select" or "func (s *fooSelector) Select").
func recvTypeName(fn *ast.FuncDecl) string {
	if len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// checkBody walks one Select method and reports impurities.
func checkBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if pn := pass.PkgNameOf(n.X); pn != nil {
				if _, isFunc := pass.ObjectOf(n.Sel).(*types.Func); !isFunc {
					return true
				}
				switch pn.Imported().Path() {
				case "time":
					pass.Reportf(n.Pos(), "time.%s in Select: a selector sees no clock — key decisions on SelectContext.Seq or the CongestionView", n.Sel.Name)
				case "math/rand", "math/rand/v2":
					pass.Reportf(n.Pos(), "math/rand %s in Select: draw from SelectContext.RNG, the source node's seeded stream", n.Sel.Name)
				}
				return true
			}
		case *ast.Ident:
			if usesSim(pass, n) {
				pass.Reportf(n.Pos(), "%s has type %s in Select: engine state is reachable only through the CongestionView", n.Name, typeName(pass, n))
			}
		}
		return true
	})
}

// usesSim reports whether the identifier denotes a value of type Sim or
// *Sim from the package under analysis.
func usesSim(pass *analysis.Pass, id *ast.Ident) bool {
	obj := pass.ObjectOf(id)
	if obj == nil {
		return false
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return false
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Sim" && named.Obj().Pkg() == pass.Pkg
}

// typeName renders the identifier's type for the diagnostic.
func typeName(pass *analysis.Pass, id *ast.Ident) string {
	if obj := pass.ObjectOf(id); obj != nil {
		return obj.Type().String()
	}
	return "?"
}
