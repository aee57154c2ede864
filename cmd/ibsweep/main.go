// Command ibsweep regenerates the paper's evaluation artifacts: Table 1 and
// the eight latency-vs-accepted-traffic figures (SLID/MLID x 1/2/4 virtual
// lanes, uniform and 50%-centric traffic, four network sizes).
//
// Examples:
//
//	ibsweep -table1                 # print the network configuration table
//	ibsweep -fig F5 -chart          # run one figure, render an ASCII chart
//	ibsweep -fig all -quick -csv out/   # all figures (reduced), CSV per figure
//	ibsweep -fault                  # recovery-transient study (live link failure)
//	ibsweep -fault -quick -csv out/     # reduced study, CSV to out/recovery.csv
//	ibsweep -chaos                  # seeded chaos campaign with reliable transport
//	ibsweep -chaos -quick -csv out/     # reduced campaign, CSV to out/chaos.csv
//	ibsweep -degraded               # static verifier vs simulation across fault rates
//	ibsweep -degraded -quick -csv out/  # reduced study, CSV to out/degraded.csv
//	ibsweep -adaptive               # path-selection family study (rank/random/flowspray/adaptive/pktspray)
//	ibsweep -adaptive -quick -csv out/  # reduced study, CSV to out/adaptive.csv
//	ibsweep -smstudy                # in-band subnet management: oracle vs lossy traps/SMPs, failover, degradation
//	ibsweep -smstudy -quick -csv out/   # reduced study, CSV to out/sm.csv (+ sm_series.csv with -series)
//	ibsweep -fault -series -csv out/    # also write per-interval recovery-tail curves
//
// Full-fidelity sweeps of the two 128-node networks take a few minutes and
// the 512-node network longer; -quick cuts the load points and windows while
// preserving the curve shapes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"mlid"
)

// options are the parsed command-line flags run acts on.
type options struct {
	table1, fault, chaos, degraded, adaptive, smstudy bool
	series, quick, chart                              bool
	fig, net, csvDir                                  string
}

// errUsage asks main to print the usage text and exit 2.
var errUsage = errors.New("no action selected")

func main() {
	var o options
	flag.BoolVar(&o.table1, "table1", false, "print Table 1 (network configurations)")
	flag.StringVar(&o.fig, "fig", "", "figure to run: F1..F8, a short name like c-16x2, or 'all'")
	flag.BoolVar(&o.fault, "fault", false, "run the recovery-transient study: a live link failure mid-measurement, SLID vs MLID")
	flag.BoolVar(&o.chaos, "chaos", false, "run the seeded chaos campaign: link flaps and switch kills with the reliable transport, SLID vs MLID")
	flag.BoolVar(&o.degraded, "degraded", false, "run the degraded-fabric quality study: static verifier predictions vs simulated throughput across fault rates, SLID vs MLID")
	flag.BoolVar(&o.adaptive, "adaptive", false, "run the path-selection family study: every pluggable selector on policy-separating workloads over the MLID fabric, with a degraded-fabric axis")
	flag.BoolVar(&o.smstudy, "smstudy", false, "run the in-band subnet-management study: oracle vs in-band SM across trap-loss rates and routing schemes, with a master-SM outage forcing standby failover")
	flag.BoolVar(&o.series, "series", false, "with -fault or -smstudy and -csv, also write the per-interval recovery-tail curves (delivered/dropped/retransmits/failed/unreachable per bin)")
	flag.BoolVar(&o.quick, "quick", false, "reduced load points and windows")
	flag.StringVar(&o.net, "net", "", "override the study network as MxN (e.g. 32x2 = 32-port 2-tree); applies to -fault, -chaos, -degraded, -adaptive and -smstudy")
	flag.BoolVar(&o.chart, "chart", false, "render ASCII charts to stdout")
	flag.StringVar(&o.csvDir, "csv", "", "directory to write per-figure CSV files into")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the sweeps to this file")
	memProf := flag.String("memprofile", "", "write a heap profile after the sweeps to this file")
	flag.Parse()

	// The profiles cover the sweeps whether or not they succeed: a failing
	// sweep is exactly the one worth profiling, so they are finished before
	// main exits, never skipped by an early os.Exit.
	stopCPU, err := startCPUProfile(*cpuProf)
	if err != nil {
		exit(err)
	}
	err = run(o)
	if perr := stopCPU(); err == nil {
		err = perr
	}
	if perr := writeMemProfile(*memProf); err == nil {
		err = perr
	}
	if errors.Is(err, errUsage) {
		flag.Usage()
		os.Exit(2)
	}
	exit(err)
}

// startCPUProfile begins CPU profiling into path ("" disables) and returns
// the function that stops it and closes the file.
func startCPUProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeMemProfile records a heap profile to path ("" disables).
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV writes one CSV file into dir and reports its path; an empty dir
// (no -csv flag) writes nothing.
func writeCSV(dir, name, content string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// run executes the selected tables, studies and figures in flag order.
func run(o options) error {
	var netOverride *mlid.EvalNetwork
	if o.net != "" {
		var m, n int
		if k, err := fmt.Sscanf(o.net, "%dx%d", &m, &n); err != nil || k != 2 {
			return fmt.Errorf("-net %q: want MxN, e.g. 32x2", o.net)
		}
		netOverride = &mlid.EvalNetwork{M: m, N: n}
	}

	if o.table1 {
		rows, err := mlid.EvalTable1(mlid.EvalNetworks())
		if err != nil {
			return err
		}
		printTable1(rows)
	}
	if o.fault {
		spec := mlid.EvalRecoverySpecDefault()
		if o.quick {
			spec = mlid.EvalRecoverySpecQuick()
		}
		if netOverride != nil {
			spec.Network = *netOverride
		}
		fmt.Printf("recovery transient: %s, link down at %d ns, uniform load %.2f B/ns/node\n",
			spec.Network, spec.FaultNs, spec.OfferedLoad)
		rows, err := mlid.EvalRecoveryStudy(spec)
		if err != nil {
			return err
		}
		fmt.Print(mlid.FormatRecovery(rows))
		if err := writeCSV(o.csvDir, "recovery.csv", mlid.RecoveryCSV(rows)); err != nil {
			return err
		}
		if o.series {
			if err := writeCSV(o.csvDir, "recovery_series.csv", mlid.RecoverySeriesCSV(rows)); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	if o.chaos {
		spec := mlid.EvalChaosSpecDefault()
		if o.quick {
			spec = mlid.EvalChaosSpecQuick()
		}
		if netOverride != nil {
			spec.Network = *netOverride
		}
		fmt.Printf("chaos campaign: %s, fault rates %v, outages %d-%d ns, %d switch kill(s), seed %d\n",
			spec.Network, spec.FaultRates, spec.MinDownNs, spec.MaxDownNs, spec.SwitchKills, spec.Seed)
		rows, err := mlid.EvalChaosStudy(spec)
		if err != nil {
			return err
		}
		fmt.Print(mlid.FormatChaos(rows))
		if err := writeCSV(o.csvDir, "chaos.csv", mlid.ChaosCSV(rows)); err != nil {
			return err
		}
		fmt.Println()
	}
	if o.degraded {
		spec := mlid.EvalDegradedSpecDefault()
		if o.quick {
			spec = mlid.EvalDegradedSpecQuick()
		}
		if netOverride != nil {
			spec.Network = *netOverride
		}
		fmt.Printf("degraded fabric: %s, fault rates %v, uniform load %.2f B/ns/node, seed %d\n",
			spec.Network, spec.Rates, spec.OfferedLoad, spec.Seed)
		rows, err := mlid.EvalDegradedStudy(spec)
		if err != nil {
			return err
		}
		fmt.Print(mlid.FormatDegraded(rows))
		if err := mlid.DegradedOrderingConsistent(rows); err != nil {
			return err
		}
		fmt.Println("ordering: static predicted-accepted ranking matches simulated accepted throughput at every rate")
		if err := writeCSV(o.csvDir, "degraded.csv", mlid.DegradedCSV(rows)); err != nil {
			return err
		}
		fmt.Println()
	}
	if o.adaptive {
		spec := mlid.EvalAdaptiveSpecDefault()
		if o.quick {
			spec = mlid.EvalAdaptiveSpecQuick()
		}
		if netOverride != nil {
			spec.Network = *netOverride
		}
		fmt.Printf("path-selection family: %s, load %.2f B/ns/node, fault rate %.2f, seed %d\n",
			spec.Network, spec.OfferedLoad, spec.FaultRate, spec.Seed)
		rows, err := mlid.EvalAdaptiveStudy(spec)
		if err != nil {
			return err
		}
		fmt.Print(mlid.FormatAdaptive(rows))
		if err := writeCSV(o.csvDir, "adaptive.csv", mlid.AdaptiveCSV(rows)); err != nil {
			return err
		}
		fmt.Println()
	}
	if o.smstudy {
		spec := mlid.EvalSMSpecDefault()
		if o.quick {
			spec = mlid.EvalSMSpecQuick()
		}
		if netOverride != nil {
			spec.Network = *netOverride
		}
		fmt.Printf("in-band subnet management: %s, trap-loss rates %v, sweep every %d ns, master-SM outage %d-%d ns, seed %d\n",
			spec.Network, spec.TrapLossProbs, spec.SweepIntervalNs, spec.SMDownNs, spec.SMUpNs, spec.Seed)
		rows, err := mlid.EvalSMStudy(spec)
		if err != nil {
			return err
		}
		fmt.Print(mlid.FormatSM(rows))
		fmt.Println("invariants: packet conservation exact on every run; each in-band run lost traps, recovered them by sweep, and failed over to the standby SM exactly once")
		if err := writeCSV(o.csvDir, "sm.csv", mlid.SMCSV(rows)); err != nil {
			return err
		}
		if o.series {
			if err := writeCSV(o.csvDir, "sm_series.csv", mlid.SMSeriesCSV(rows)); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	if o.fig == "" {
		if !o.table1 && !o.fault && !o.chaos && !o.degraded && !o.adaptive && !o.smstudy {
			return errUsage
		}
		return nil
	}

	specs := mlid.EvalFigures()
	if o.quick {
		specs = mlid.EvalQuickFigures()
	}
	var selected []mlid.EvalFigureSpec
	if o.fig == "all" {
		selected = specs
	} else {
		want, err := mlid.EvalFigureByID(o.fig)
		if err != nil {
			return err
		}
		for _, s := range specs {
			if s.ID == want.ID {
				selected = append(selected, s)
			}
		}
	}

	for _, spec := range selected {
		fmt.Printf("running %s ...\n", spec.Title())
		res, err := spec.Run()
		if err != nil {
			return err
		}
		fmt.Print(res.Summary())
		if o.chart {
			fmt.Println(res.Chart())
		}
		if err := writeCSV(o.csvDir, spec.ID+".csv", res.CSV()); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func printTable1(rows []mlid.EvalTable1Row) {
	fmt.Println("Table 1: simulated m-port n-tree InfiniBand networks")
	fmt.Printf("%-16s %7s %9s %7s %4s %10s %9s %11s\n",
		"network", "nodes", "switches", "links", "LMC", "LIDs/node", "LIDspace", "paths(a=0)")
	for _, r := range rows {
		fmt.Printf("%-16s %7d %9d %7d %4d %10d %9d %11d\n",
			r.Network.String(), r.Nodes, r.Switches, r.Links, r.LMC, r.LIDsPerNode, r.LIDSpace, r.PathsAlpha0)
	}
	fmt.Println()
}

// exit reports err, if any, and exits non-zero.
func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibsweep:", err)
		if errors.Is(err, mlid.ErrLIDSpaceExhausted) {
			fmt.Fprintln(os.Stderr, "ibsweep: hint: the SLID scheme, or a smaller tree, fits the 16-bit LID space")
		}
		os.Exit(1)
	}
}
