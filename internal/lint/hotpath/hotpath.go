// Package hotpath enforces the simulator's function contracts: each names a
// set of functions in package sim and the constructs forbidden inside them.
// One table row per contract holds its analyzer name, doc, function selector
// and rules; one shared run applies a row. Only package sim's non-test files
// are checked: cold paths (build, configuration, verification, reporting)
// may use whatever shape is clearest. There are three contracts.
//
// hotpath (Analyzer) is the cache-residency contract: the per-packet
// functions named in hotFuncs — the code that runs once per event, hundreds
// of millions of times per figure sweep — must stay allocation-free and
// branch-predictable over their dense index-addressed slices (compiled
// forwarding tables, struct-of-arrays switch state, pooled packets and typed
// events). It rejects:
//
//   - sort.* calls — sorting is O(n log n) with data-dependent branches; any
//     order the hot path needs must be precomputed at build (or SM-update)
//     time;
//   - map construction (make(map...), map literals) — maps allocate, hash,
//     and iterate in randomized order; hot-path state is indexed by dense
//     (switch, port, VL) or (src, dst) keys into slices;
//   - function literals — a closure that captures variables allocates, and
//     the original closure-based event queue was the single largest line in
//     the allocation profile. Events are typed records now (see
//     internal/sim/engine.go); keep them that way.
//
// smhotpath (SMAnalyzer) is the control plane's incremental-repair contract:
// the per-event SM handlers named in smHandlers — trap intake, repair
// recomputation, SMP transaction steps, table application — must do work
// proportional to the change (the dirty switches and their delta entries),
// never to the whole fabric. SM recovery evolves a persistent
// core.RepairState by deltas; cloning every table and diffing the full LID
// space per trap is O(switches x LID-space) per event. It rejects:
//
//   - .Clone() calls — cloning a forwarding table copies the whole LID
//     space; the repair state already holds the evolving target, and the
//     fabric's live tables are updated entry-by-entry from staged deltas;
//   - .Entries() calls — exporting a table's dense backing array is how a
//     full-table diff starts; diff by delta instead (RepairIncremental
//     already emits exactly the entries that changed);
//   - for-loops whose condition scans the LID space (a .Size() call or the
//     compiled lftSize bound) — a per-event handler must iterate delta
//     entries or dead links, never all LIDs;
//   - ranging over a table set (.lfts / .LFTs fields) — per-switch sweeps
//     belong in configuration and end-of-run verification, not handlers.
//
// selectorpure (SelectorAnalyzer) is the path-selection purity contract:
// every method named Select on a receiver type ending in "Selector" must be
// a pure function of its SelectContext. The golden and scenario fixtures pin
// every built-in selector bit-for-bit for a given configuration and seed,
// and that holds only because Select consults nothing but the context — the
// candidate mask, the flow identity, the source's seeded RNG stream, and the
// read-only CongestionView. It rejects:
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
// directive naming the contract's analyzer:
//
//	//lint:ignore hotpath one-time table rebuild, not per-packet
//	//lint:ignore smhotpath one-time rebuild after SM failover, not per-trap
//	//lint:ignore selectorpure <why this read is deterministic>
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"mlid/internal/lint/analysis"
)

// contract is one table row: an analyzer's name and doc, the functions it
// covers, and the rules it applies to every node of a covered function's
// body (fn is the function's name, for the diagnostic).
type contract struct {
	name, doc string
	covers    func(fn *ast.FuncDecl) bool
	check     func(pass *analysis.Pass, fn string, n ast.Node)
}

var contracts = [...]contract{
	{
		name:   "hotpath",
		doc:    "forbid sorting, map construction and closure allocation in the simulator's per-packet functions",
		covers: func(fn *ast.FuncDecl) bool { return hotFuncs[fn.Name.Name] },
		check:  checkHotPath,
	},
	{
		name:   "smhotpath",
		doc:    "forbid full-table clones, exports and LID-space scans in the simulator's per-event SM handlers",
		covers: func(fn *ast.FuncDecl) bool { return smHandlers[fn.Name.Name] },
		check:  checkSMHandler,
	},
	{
		name: "selectorpure",
		doc:  "forbid clocks, non-context randomness and engine-state access in Selector.Select methods",
		covers: func(fn *ast.FuncDecl) bool {
			return fn.Recv != nil && fn.Name.Name == "Select" && strings.HasSuffix(recvTypeName(fn), "Selector")
		},
		check: checkSelect,
	},
}

// Analyzer, SMAnalyzer and SelectorAnalyzer are the hotpath, smhotpath and
// selectorpure contracts.
var (
	Analyzer         = contracts[0].analyzer()
	SMAnalyzer       = contracts[1].analyzer()
	SelectorAnalyzer = contracts[2].analyzer()
)

func (c *contract) analyzer() *analysis.Analyzer {
	return &analysis.Analyzer{Name: c.name, Doc: c.doc, Run: c.run}
}

// run applies the contract to every covered function of package sim's
// non-test files.
func (c *contract) run(pass *analysis.Pass) error {
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
			if !ok || fn.Body == nil || !c.covers(fn) {
				continue
			}
			// Keep walking below every finding: a sort inside a closure
			// still runs on the hot path and deserves its own diagnostic.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				c.check(pass, fn.Name.Name, n)
				return true
			})
		}
	}
	return nil
}

// hotFuncs names the per-packet functions: everything dispatch reaches on the
// data path (generation, switching, flow control, delivery, transport), plus
// the scheduler primitives under it. Cold entry points that merely neighbor
// them (build, compileLFT, smReact, Run) are deliberately absent.
var hotFuncs = map[string]bool{
	// engine (engine.go)
	"schedule": true, "pop": true, "push": true,
	// event loop, packet pool and the packet queues (sim.go); pktList.push
	// shares the engine's "push" entry
	"runUntil": true, "dispatch": true,
	"newPkt": true, "freePkt": true, "pktAt": true,
	"popFront": true, "unlink": true, "empty": true,
	// data path (sim.go)
	"generate": true, "inject": true, "dataVL": true, "selectDLID": true, "interarrival": true,
	"swArrive": true, "warmFlowHigh": true, "route": true, "fwdAt": true,
	"requestTransfer": true, "completeTransfer": true,
	"kick": true, "transmit": true, "releaseSlot": true, "creditArrive": true,
	"deliverIdeal": true, "nodeArrive": true, "deliver": true,
	"nodePid": true, "seriesAt": true,
	// live-fault fast path (faults.go): per-packet once a fault plan is active
	"dropPkt": true, "pathAlive": true, "walkRows": true, "usableMask": true, "reselectActive": true,
	// path selection (selector.go): every Select method plus the congestion
	// view it reads and the helpers under it, all once per generated packet
	"Select": true, "Occupancy": true, "Credits": true, "Load": true,
	"failover": true, "nthSetBit": true,
	// transport (transport.go)
	"flowIdx": true, "txTrack": true, "armTimer": true, "retransmit": true,
	"rxAccept": true, "sendCtrl": true, "ctrlArrive": true, "rexmitTimer": true,
}

func checkHotPath(pass *analysis.Pass, name string, n ast.Node) {
	switch n := n.(type) {
	case *ast.FuncLit:
		pass.Reportf(n.Pos(), "closure allocation in hot-path %s: a capturing func literal allocates per call; schedule a typed event record instead", name)
	case *ast.CallExpr:
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
			if pn := pass.PkgNameOf(sel.X); pn != nil && pn.Imported().Path() == "sort" {
				pass.Reportf(n.Pos(), "call to sort.%s in hot-path %s: per-packet code must not sort; precompute the order at build or SM-update time", sel.Sel.Name, name)
			}
		} else if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" {
			if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin && isMap(pass, n) {
				pass.Reportf(n.Pos(), "make(map) in hot-path %s: maps allocate and hash per access; index a dense slice by (switch, port, VL) or (src, dst) instead", name)
			}
		}
	case *ast.CompositeLit:
		if isMap(pass, n) {
			pass.Reportf(n.Pos(), "map literal in hot-path %s: maps allocate and hash per access; index a dense slice by (switch, port, VL) or (src, dst) instead", name)
		}
	}
}

// isMap reports whether the expression's type is a map.
func isMap(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// smHandlers names the per-event SM functions: everything a trap, SMP, or
// sweep tick reaches. Cold entry points that neighbor them (build, Run, the
// fault-plan compiler) are deliberately absent.
var smHandlers = map[string]bool{
	// the reaction and table write both SM models share (faults.go)
	"smReact": true, "smRepair": true, "applyLFTUpdate": true,
	// in-band trap intake, SMP transactions and sweeps (insm.go)
	"trapArrive": true, "smSweep": true,
	"sendSMP": true, "smpArrive": true, "smpAck": true, "smpTimeout": true,
}

func checkSMHandler(pass *analysis.Pass, name string, n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		sel, ok := n.Fun.(*ast.SelectorExpr)
		if !ok || len(n.Args) != 0 {
			return
		}
		switch sel.Sel.Name {
		case "Clone":
			pass.Reportf(n.Pos(), "full-table Clone in SM handler %s: cloning copies the whole LID space per event; evolve the persistent repair state by delta instead", name)
		case "Entries":
			pass.Reportf(n.Pos(), "full-table Entries export in SM handler %s: a dense export is how an O(LID-space) diff starts; consume the repair delta instead", name)
		}
	case *ast.ForStmt:
		if n.Cond != nil && scansLIDSpace(n.Cond) {
			pass.Reportf(n.Pos(), "LID-space scan in SM handler %s: the loop bound covers every LID; iterate the delta entries or dead links instead", name)
		}
	case *ast.RangeStmt:
		if sel, ok := n.X.(*ast.SelectorExpr); ok {
			if nm := sel.Sel.Name; nm == "lfts" || nm == "LFTs" {
				pass.Reportf(n.Pos(), "per-switch table sweep in SM handler %s: ranging over every forwarding table is O(switches) per event; touch only the dirty switches' deltas", name)
			}
		}
	}
}

// scansLIDSpace reports whether a loop condition's bound is the LID space: a
// .Size() call on a table, or the simulator's compiled lftSize bound.
func scansLIDSpace(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Size" && len(n.Args) == 0 {
				found = true
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "lftSize" {
				found = true
			}
		case *ast.Ident:
			if n.Name == "lftSize" {
				found = true
			}
		}
		return !found
	})
	return found
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

func checkSelect(pass *analysis.Pass, _ string, n ast.Node) {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		pn := pass.PkgNameOf(n.X)
		if pn == nil {
			return
		}
		if _, isFunc := pass.ObjectOf(n.Sel).(*types.Func); !isFunc {
			return
		}
		switch pn.Imported().Path() {
		case "time":
			pass.Reportf(n.Pos(), "time.%s in Select: a selector sees no clock — key decisions on SelectContext.Seq or the CongestionView", n.Sel.Name)
		case "math/rand", "math/rand/v2":
			pass.Reportf(n.Pos(), "math/rand %s in Select: draw from SelectContext.RNG, the source node's seeded stream", n.Sel.Name)
		}
	case *ast.Ident:
		if usesSim(pass, n) {
			pass.Reportf(n.Pos(), "%s has type %s in Select: engine state is reachable only through the CongestionView", n.Name, pass.ObjectOf(n).Type())
		}
	}
}

// usesSim reports whether the identifier denotes a value of type Sim or
// *Sim from the package under analysis.
func usesSim(pass *analysis.Pass, id *ast.Ident) bool {
	obj, isVar := pass.ObjectOf(id).(*types.Var)
	if !isVar {
		return false
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Sim" && named.Obj().Pkg() == pass.Pkg
}
