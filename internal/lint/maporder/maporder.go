// Package maporder flags range-over-map loops whose bodies are sensitive to
// iteration order. Go randomizes map iteration per range statement, so any
// ordered effect produced inside such a loop — an appended slice, a scheduled
// event, an emitted report line, a floating-point accumulation, a
// tie-breaking assignment — varies run to run and breaks the simulator's
// bit-for-bit reproducibility contract.
//
// Ordered effects recognized inside a map-range body:
//
//   - append to a slice declared outside the loop (the slice's element order
//     becomes the map's iteration order), unless that slice is passed to a
//     sort.*/slices.* call after the loop — the standard collect-then-sort
//     idiom;
//   - a channel send;
//   - a call to an emitting function — names like schedule, send, push,
//     enqueue, emit, print/printf/println, fprintf, write/writestring, and
//     the subnet-manager sweep verbs diff/observe/stage/reset/redrive — when
//     the receiver or an argument refers outside the loop;
//   - a compound assignment (+=, *=, ...) to an outside variable of
//     floating-point, complex or string type: those operations are not
//     associative or not commutative, so the result depends on order (integer
//     accumulation is exact and commutative, hence exempt);
//   - a plain assignment to an outside, non-indexed lvalue — the
//     "if v > max { max, argmax = v, k }" pattern, whose tie-break follows
//     map order.
//
// Writes to indexed slots (m2[k] = v, slice[i] = v) are order-independent
// and never flagged.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mlid/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag range-over-map loops with iteration-order-dependent effects",
	Run:  run,
}

// sinkNames are callee names (lowercased) that emit in call order. The
// subnet manager's sweep-diff verbs are included: diff compares the
// discovered port state against the SM's shadow view and reports deltas in
// call order, observe feeds liveness samples to the failover automaton (whose
// takeover decision follows the first observation that sees the master down),
// and stage/reset/redrive open or re-open SMP transactions whose indices —
// and hence the whole retransmit schedule — are assigned in call order.
var sinkNames = map[string]bool{
	"schedule": true, "send": true, "push": true, "enqueue": true,
	"emit": true, "print": true, "printf": true, "println": true,
	"fprint": true, "fprintf": true, "fprintln": true,
	"write": true, "writestring": true, "writebyte": true, "writerune": true,
	"diff": true, "diffdeadlinks": true, "observe": true,
	"stage": true, "reset": true, "redrive": true,
}

// sortCalls are qualified functions that establish a deterministic order for
// a collected slice.
var sortCalls = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Stable": true, "sort.Ints": true, "sort.Strings": true,
	"sort.Float64s": true, "slices.Sort": true, "slices.SortFunc": true,
	"slices.SortStableFunc": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// checkFunc scans one function body for map ranges. fnBody is also the
// region searched for collect-then-sort exemptions.
func checkFunc(pass *analysis.Pass, fnBody *ast.BlockStmt) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, fnBody, rs)
		return true
	})
}

// outside reports whether the identifier's object is declared outside the
// range statement (loop variables and body-locals are inside).
func outside(pass *analysis.Pass, rs *ast.RangeStmt, id *ast.Ident) bool {
	obj := pass.ObjectOf(id)
	if obj == nil || obj.Pos() == token.NoPos {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

// rootIdent walks to the base identifier of an lvalue/receiver chain:
// a, a.b.c, *a, a.b[i] all root at a.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// hasIndexedStep reports whether the lvalue chain goes through an index
// expression (writes to distinct keyed slots are order-independent).
func hasIndexedStep(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			return true
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// calleeName extracts the called function or method's name, lowercased.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return strings.ToLower(fn.Name)
	case *ast.SelectorExpr:
		return strings.ToLower(fn.Sel.Name)
	}
	return ""
}

// isAppendTo reports whether the assignment is `x = append(x, ...)` and
// returns x's root identifier.
func isAppendTo(as *ast.AssignStmt) (*ast.Ident, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
		return nil, false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return nil, false
	}
	return rootIdent(as.Lhs[0]), true
}

// sortedAfter reports whether obj is passed to a sort call located after
// pos anywhere in the function body.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pn := pass.PkgNameOf(sel.X)
		if pn == nil || !sortCalls[pn.Imported().Name()+"."+sel.Sel.Name] {
			return true
		}
		for _, arg := range call.Args {
			if id := rootIdent(arg); id != nil && pass.ObjectOf(id) == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// checkMapRange applies the ordered-effect rules to one map-range body.
func checkMapRange(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside range over map: receivers observe map iteration order; iterate sorted keys instead")
		case *ast.AssignStmt:
			checkAssign(pass, fnBody, rs, n)
		case *ast.CallExpr:
			checkCall(pass, rs, n)
		}
		return true
	})
}

func checkAssign(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, as *ast.AssignStmt) {
	// x = append(x, ...): ordered collection — fine when the slice is sorted
	// after the loop (the collect-then-sort idiom), flagged otherwise.
	if root, ok := isAppendTo(as); ok {
		if root == nil || !outside(pass, rs, root) {
			return
		}
		if obj := pass.ObjectOf(root); obj != nil && sortedAfter(pass, fnBody, obj, rs.End()) {
			return
		}
		pass.Reportf(as.Pos(), "append to %s inside range over map without sorting afterwards: element order follows map iteration order", root.Name)
		return
	}
	if as.Tok == token.DEFINE {
		return
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		root := rootIdent(lhs)
		if root == nil || !outside(pass, rs, root) {
			continue
		}
		if hasIndexedStep(lhs) {
			// m2[k] = v / slice[i].f = v: distinct keyed slots commute.
			continue
		}
		if as.Tok == token.ASSIGN {
			pass.Reportf(as.Pos(), "assignment to %s inside range over map: last/tie-breaking writer follows map iteration order; iterate sorted keys instead", exprString(lhs))
			return
		}
		// Compound assignment: exact commutative accumulations (integers)
		// are order-independent; float, complex and string ones are not.
		tv, ok := pass.TypesInfo.Types[lhs]
		if !ok {
			continue
		}
		if b, ok := tv.Type.Underlying().(*types.Basic); ok {
			switch {
			case b.Info()&types.IsInteger != 0, b.Info()&types.IsBoolean != 0:
				continue
			case b.Info()&(types.IsFloat|types.IsComplex) != 0:
				pass.Reportf(as.Pos(), "floating-point accumulation into %s inside range over map: addition is not associative, so the result depends on iteration order", exprString(lhs))
				return
			case b.Info()&types.IsString != 0:
				pass.Reportf(as.Pos(), "string concatenation into %s inside range over map follows map iteration order", exprString(lhs))
				return
			}
		}
	}
}

func checkCall(pass *analysis.Pass, rs *ast.RangeStmt, call *ast.CallExpr) {
	name := calleeName(call)
	if !sinkNames[name] {
		return
	}
	// The sink must touch state that outlives the loop: an outside receiver
	// or an outside argument (&buf, sb, the engine, ...).
	touchesOutside := false
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pn := pass.PkgNameOf(sel.X); pn != nil {
			// fmt.Print*/log.Print* write to a process-global stream: an
			// ordered sink no matter what the arguments are. (Fprint* is
			// judged by its writer argument below.)
			if p := pn.Imported().Path(); (p == "fmt" || p == "log") &&
				(name == "print" || name == "printf" || name == "println") {
				touchesOutside = true
			}
		} else { // method call
			if id := rootIdent(sel.X); id != nil && outside(pass, rs, id) {
				touchesOutside = true
			}
		}
	}
	for _, arg := range call.Args {
		if id := rootIdent(arg); id != nil && outside(pass, rs, id) {
			// Only writable sinks matter; plain value reads of outside
			// variables are fine. Pointers, builders and writers are what
			// the sink list's functions mutate, which the root test plus
			// the name filter approximates well in practice.
			touchesOutside = true
		}
	}
	if touchesOutside {
		pass.Reportf(call.Pos(), "call to %s inside range over map emits in map iteration order; iterate sorted keys instead", calleeDisplay(call))
	}
}

// calleeDisplay renders the callee for diagnostics.
func calleeDisplay(call *ast.CallExpr) string {
	return exprString(call.Fun)
}

// exprString renders simple expressions (identifier/selector chains) for
// messages.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	}
	return "expression"
}
