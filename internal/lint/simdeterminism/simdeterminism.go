// Package simdeterminism flags sources of runtime nondeterminism inside the
// simulator's deterministic core (internal/sim — including its fault-event
// code — internal/sm, internal/core) and the experiment harness that drives
// it (internal/experiment). The golden fixtures and the fault-plan
// determinism suite pin results bit-for-bit for a given configuration and
// seed; that contract holds only while simulator code takes no entropy from
// outside the configuration. The analyzer rejects:
//
//   - wall-clock reads (time.Now, time.Since, time.Until) — simulated time
//     is sim.Time, derived from the event clock;
//   - runtime timers (time.Sleep, time.After, time.Tick, time.AfterFunc,
//     time.NewTimer, time.NewTicker) — retransmit/timeout work must be
//     scheduled as events on the simulation clock, where it is reproducible
//     and visible to the drain horizon, never on goroutine timers;
//   - the global math/rand generators (rand.Intn, rand.Float64, ...) —
//     randomness must flow from the run's seeded *rand.Rand;
//   - process-environment entropy (os.Getpid, os.Getenv, os.Hostname, ...)
//     and crypto/rand;
//   - host CPU-count reads (runtime.NumCPU, runtime.GOMAXPROCS) in the
//     simulator core (sim, sm, core): a run must be reproducible from its
//     Config alone, so nothing inside the engine may size or branch on the
//     host. The experiment harness is exempt — it legitimately sizes worker
//     pools from GOMAXPROCS, which affects wall-clock only, never results;
//   - select statements with two or more channel cases: when several cases
//     are ready the runtime picks one uniformly at random.
//
// Test files are exempt — the invariant protects the hot path, and tests
// legitimately time themselves.
package simdeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"mlid/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock, global-rand and environment entropy in simulator core packages",
	Run:  run,
}

// corePackages are the import-path leaf names the invariant covers. The
// experiment harness is included because its studies (figures, recovery
// transients) are themselves pinned by determinism tests.
var corePackages = map[string]bool{"sim": true, "sm": true, "core": true, "experiment": true}

// timeFuncs are the wall-clock reads; everything else in package time
// (constants, Duration arithmetic, parsing) is deterministic.
var timeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// timerFuncs start runtime timers. The transport's retransmit timers made
// "just sleep until the timeout" a tempting shortcut; timer goroutines fire
// on the wall clock, invisibly to the event engine and its drain horizon,
// so timeouts must be evRexmit-style events on the simulation clock instead.
var timerFuncs = map[string]bool{
	"Sleep": true, "After": true, "Tick": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// osFuncs read process-environment entropy.
var osFuncs = map[string]bool{
	"Getpid": true, "Getppid": true, "Getenv": true, "LookupEnv": true,
	"Environ": true, "Hostname": true,
}

// cpuFuncs read the host's CPU configuration. Forbidden in the engine core
// (a run must be reproducible from its Config alone); allowed in the
// experiment harness, whose worker pools change wall-clock but never results.
var cpuFuncs = map[string]bool{"NumCPU": true, "GOMAXPROCS": true}

func run(pass *analysis.Pass) error {
	leaf := pass.Path
	if i := strings.LastIndexByte(leaf, '/'); i >= 0 {
		leaf = leaf[i+1:]
	}
	pkg := strings.TrimSuffix(leaf, "_test")
	if !corePackages[pkg] {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pn := pass.PkgNameOf(n.X)
				if pn == nil {
					return true
				}
				// Only function references carry entropy; type names
				// (rand.Rand) and constants (time.Millisecond) are inert.
				if _, isFunc := pass.ObjectOf(n.Sel).(*types.Func); !isFunc {
					return true
				}
				name := n.Sel.Name
				switch pn.Imported().Path() {
				case "time":
					if timeFuncs[name] {
						pass.Reportf(n.Pos(), "call to time.%s in simulator code: derive timing from the event clock (sim.Time), not the wall clock", name)
					}
					if timerFuncs[name] {
						pass.Reportf(n.Pos(), "time.%s in simulator code: schedule retransmit/timeout work as events on the simulation clock, not on runtime timers", name)
					}
				case "math/rand", "math/rand/v2":
					// Constructors are fine: rand.New(rand.NewSource(seed))
					// is exactly how runs get their seeded generator.
					if !strings.HasPrefix(name, "New") {
						pass.Reportf(n.Pos(), "global math/rand %s in simulator code: draw from the run's seeded *rand.Rand instead", name)
					}
				case "crypto/rand":
					pass.Reportf(n.Pos(), "crypto/rand %s in simulator code: results must be reproducible from the configuration seed", name)
				case "os":
					if osFuncs[name] {
						pass.Reportf(n.Pos(), "os.%s in simulator code: process-environment entropy breaks run reproducibility", name)
					}
				case "runtime":
					if cpuFuncs[name] && pkg != "experiment" {
						pass.Reportf(n.Pos(), "runtime.%s in the engine core: a run must be reproducible from its Config alone, not from the host CPU configuration", name)
					}
				}
			case *ast.SelectStmt:
				comm := 0
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					pass.Reportf(n.Pos(), "select with %d channel cases: the runtime chooses among ready cases at random, which breaks event-order determinism", comm)
				}
			}
			return true
		})
	}
	return nil
}
