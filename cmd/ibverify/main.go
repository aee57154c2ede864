// Command ibverify statically verifies a fat-tree fabric's forwarding state
// without simulating a packet: it configures an m-port n-tree under the
// chosen routing scheme and runs the internal/verify analyzers — every
// (source, DLID) route reaches its destination, the per-VL channel-dependency
// graphs are acyclic, the LID addressing is consistent and fits the 16-bit
// space, and the quality pass bounds per-link load and path dilation.
//
// Examples:
//
//	ibverify -m 8 -n 3 -scheme MLID -vls 2
//	ibverify -m 8 -n 2 -scheme MLID -fault 2:2,9:3     # verify SM-repaired tables
//	ibverify -m 8 -n 2 -fault 2:2 -select adaptive     # quality pass under a path-selection policy
//	ibverify -m 8 -n 3 -degraded 0.10                  # static-vs-simulated sweep
//	ibverify -m 16 -n 3 -scheme MLID                   # LID-space overflow finding
//
// Exit status is 1 when any error-severity finding is reported (or, under
// -degraded, when the static ranking contradicts the simulated one), 0 when
// the fabric verifies clean — warnings, which document fault-explained
// degradation, do not fail the run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"mlid/internal/core"
	"mlid/internal/experiment"
	"mlid/internal/ib"
	"mlid/internal/sim"
	"mlid/internal/topology"
	"mlid/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errFindings is runVerify's result for a report with error-severity
// findings: exit 1, with nothing further on stderr.
var errFindings = errors.New("error-severity findings")

// run is the command on args, writing to stdout and stderr; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m        = fs.Int("m", 8, "switch port count (power of two >= 4)")
		n        = fs.Int("n", 2, "tree dimension")
		scheme   = fs.String("scheme", "MLID", "routing scheme: MLID or SLID")
		vls      = fs.Int("vls", 1, "data virtual lanes to prove deadlock freedom for")
		jsonOut  = fs.Bool("json", false, "emit findings as JSON lines (CSV under -degraded)")
		fault    = fs.String("fault", "", "comma-separated sw:port links to fail before verifying the SM-repaired tables")
		selName  = fs.String("select", "", "trace the quality pass under a path-selection policy (rank, random, flowspray, adaptive, pktspray); default: the scheme's canonical choice, or rank reselection under -fault")
		degraded = fs.Float64("degraded", 0, "run the degraded-fabric sweep up to this fault rate (e.g. 0.10), comparing SLID vs MLID+reselect statically and in simulation")
		quick    = fs.Bool("quick", false, "with -degraded, use the reduced-cost study spec")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var err error
	if *degraded > 0 {
		err = runDegraded(stdout, *m, *n, *degraded, *quick, *jsonOut)
	} else {
		err = runVerify(stdout, *m, *n, *scheme, *vls, *fault, *selName, *jsonOut)
	}
	if err == nil {
		return 0
	}
	if !errors.Is(err, errFindings) {
		fmt.Fprintf(stderr, "ibverify: %v\n", err)
	}
	return 1
}

// runVerify is the single-fabric mode: configure, optionally fail+repair,
// then run every analyzer and render the report.
func runVerify(w io.Writer, m, n int, schemeName string, vls int, faultList, selName string, jsonOut bool) error {
	tree, err := topology.New(m, n)
	if err != nil {
		return err
	}
	eng, err := core.ByName(schemeName)
	if err != nil {
		return err
	}

	// The addressing analyzer runs against the scheme's LID plan before
	// Configure, so a fabric whose plan overflows the 16-bit space (MLID on
	// FT(16,3) needs 65,537 LIDs) is reported as a finding with the sizing
	// arithmetic as witness instead of dying on the configuration error.
	if rep := verify.AddressingScheme(tree, eng); rep.Errors() > 0 {
		return render(w, rep, jsonOut)
	}

	sn, err := (&ib.SubnetManager{Tree: tree, Engine: eng}).Configure()
	if err != nil {
		return err
	}
	in := verify.FromSubnet(sn)

	var fs *core.FaultSet
	if faultList != "" {
		links, err := parseLinks(tree, faultList)
		if err != nil {
			return err
		}
		fs = core.NewFaultSet()
		for _, l := range links {
			fs.FailLink(tree, topology.SwitchID(l[0]), int(l[1]))
		}
		// The SM's repair path: the incremental repair state evolved from
		// the pristine tables to the fault set, verified as its target.
		rs := core.NewRepairState(sn)
		if _, err := rs.RepairIncremental(fs, rs.DirtySwitches(core.NewFaultSet(), fs)); err != nil {
			return err
		}
		if in.LFTs, err = rs.TargetLFTs(); err != nil {
			return err
		}
		in.DeadLinks = links
		// Quality traces what sources actually send under reselection: the
		// first surviving DLID, exactly as the simulator's Reselect mode.
		in.SelectDLID = func(src, dst topology.NodeID) (ib.LID, bool) {
			return core.SelectLID(tree, eng, src, dst, fs)
		}
	}
	if selName != "" {
		// A named policy overrides the rank-reselection hook: the quality
		// pass traces what each source's first packet would carry under the
		// selector, over the same fault-filtered candidate set the simulator
		// presents (an empty fault set filters nothing).
		sel, err := sim.SelectorByName(selName)
		if err != nil {
			return err
		}
		in.SelectDLID = func(src, dst topology.NodeID) (ib.LID, bool) {
			base, count, canonical, mask := core.UsableOffsets(tree, eng, src, dst, fs)
			if mask == 0 {
				return 0, false
			}
			rng := rand.New(rand.NewSource(int64(src)*1_000_003 + int64(dst)))
			return base + ib.LID(sim.StaticSelect(sel, src, dst, base, count, canonical, mask, rng)), true
		}
	}

	rep, err := verify.Run(in, verify.Options{VLs: vls})
	if err != nil {
		return err
	}
	return render(w, rep, jsonOut)
}

// runDegraded is the sweep mode: the experiment's degraded-fabric study plus
// the static-vs-simulated ordering check the study exists to enforce.
func runDegraded(w io.Writer, m, n int, maxRate float64, quick, jsonOut bool) error {
	spec := experiment.DegradedStudySpec()
	if quick {
		spec = experiment.QuickDegradedSpec()
	}
	spec.Network = experiment.Network{M: m, N: n}
	var rates []float64
	for _, r := range spec.Rates {
		if r <= maxRate {
			rates = append(rates, r)
		}
	}
	if len(rates) == 0 {
		rates = []float64{maxRate}
	}
	spec.Rates = rates

	// The study configures the fabric under both schemes; an addressing
	// plan that overflows is reported as in the single-fabric mode.
	tree, err := topology.New(m, n)
	if err != nil {
		return err
	}
	for _, eng := range []ib.RoutingEngine{core.NewSLID(), core.NewMLID()} {
		if rep := verify.AddressingScheme(tree, eng); rep.Errors() > 0 {
			return render(w, rep, jsonOut)
		}
	}

	rows, err := experiment.DegradedStudy(spec)
	if err != nil {
		return err
	}
	if jsonOut {
		fmt.Fprint(w, experiment.DegradedCSV(rows))
	} else {
		fmt.Fprint(w, experiment.FormatDegraded(rows))
	}
	if err := experiment.DegradedOrderingConsistent(rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "ordering: static predicted-accepted ranking matches simulated accepted throughput at every rate")
	return nil
}

// parseLinks parses a "sw:port,sw:port" list into switch-side link endpoints.
func parseLinks(tree *topology.Tree, s string) ([][2]int32, error) {
	var out [][2]int32
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		parts := strings.SplitN(tok, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad link %q: want sw:port", tok)
		}
		sw, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad link %q: %v", tok, err)
		}
		port, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad link %q: %v", tok, err)
		}
		if !tree.ValidSwitch(topology.SwitchID(sw)) || port < 0 || port >= tree.M() {
			return nil, fmt.Errorf("link %q outside the fabric (switches 0..%d, ports 0..%d)",
				tok, tree.Switches()-1, tree.M()-1)
		}
		out = append(out, [2]int32{int32(sw), int32(port)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -fault link list")
	}
	return out, nil
}

// render writes the report in the chosen format; a report with
// error-severity findings returns errFindings.
func render(w io.Writer, rep *verify.Report, jsonOut bool) error {
	if jsonOut {
		if err := rep.WriteJSON(w); err != nil {
			return err
		}
	} else {
		rep.WriteHuman(w)
	}
	if rep.Errors() > 0 {
		return errFindings
	}
	return nil
}
