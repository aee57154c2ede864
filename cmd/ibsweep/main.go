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

	"mlid/internal/experiment"
	"mlid/internal/ib"
)

// options are the parsed command-line flags run acts on. studies[i] selects
// the study of the same index in the studies table.
type options struct {
	table1, series, quick, chart bool
	studies                      []bool
	fig, net, csvDir             string
}

// csvFile is one CSV file a study writes with -csv; a series file is
// written only with -series.
type csvFile struct {
	name, content string
	series        bool
}

// sweepStudy is one study flag. run prints the study's report for the
// full-fidelity or (quick) reduced spec, on net when -net overrides the
// study network, and returns the CSV files to write, in order.
type sweepStudy struct {
	flag, help string
	run        func(quick bool, net *experiment.Network) ([]csvFile, error)
}

// studies are the study flags, in the order run executes them.
var studies = []sweepStudy{
	{"fault", "run the recovery-transient study: a live link failure mid-measurement, SLID vs MLID",
		func(quick bool, net *experiment.Network) ([]csvFile, error) {
			spec := pick(quick, experiment.RecoveryStudySpec, experiment.QuickRecoverySpec)
			setNetwork(&spec.Network, net)
			fmt.Printf("recovery transient: %s, link down at %d ns, uniform load %.2f B/ns/node\n",
				spec.Network, spec.FaultNs, spec.OfferedLoad)
			rows, err := experiment.RecoveryStudy(spec)
			if err != nil {
				return nil, err
			}
			fmt.Print(experiment.FormatRecovery(rows))
			return []csvFile{
				{"recovery.csv", experiment.RecoveryCSV(rows), false},
				{"recovery_series.csv", experiment.RecoverySeriesCSV(rows), true},
			}, nil
		}},
	{"chaos", "run the seeded chaos campaign: link flaps and switch kills with the reliable transport, SLID vs MLID",
		func(quick bool, net *experiment.Network) ([]csvFile, error) {
			spec := pick(quick, experiment.ChaosStudySpec, experiment.QuickChaosSpec)
			setNetwork(&spec.Network, net)
			fmt.Printf("chaos campaign: %s, fault rates %v, outages %d-%d ns, %d switch kill(s), seed %d\n",
				spec.Network, spec.FaultRates, spec.MinDownNs, spec.MaxDownNs, spec.SwitchKills, spec.Seed)
			rows, err := experiment.ChaosStudy(spec)
			if err != nil {
				return nil, err
			}
			fmt.Print(experiment.FormatChaos(rows))
			return []csvFile{{"chaos.csv", experiment.ChaosCSV(rows), false}}, nil
		}},
	{"degraded", "run the degraded-fabric quality study: static verifier predictions vs simulated throughput across fault rates, SLID vs MLID",
		func(quick bool, net *experiment.Network) ([]csvFile, error) {
			spec := pick(quick, experiment.DegradedStudySpec, experiment.QuickDegradedSpec)
			setNetwork(&spec.Network, net)
			fmt.Printf("degraded fabric: %s, fault rates %v, uniform load %.2f B/ns/node, seed %d\n",
				spec.Network, spec.Rates, spec.OfferedLoad, spec.Seed)
			rows, err := experiment.DegradedStudy(spec)
			if err != nil {
				return nil, err
			}
			fmt.Print(experiment.FormatDegraded(rows))
			if err := experiment.DegradedOrderingConsistent(rows); err != nil {
				return nil, err
			}
			fmt.Println("ordering: static predicted-accepted ranking matches simulated accepted throughput at every rate")
			return []csvFile{{"degraded.csv", experiment.DegradedCSV(rows), false}}, nil
		}},
	{"adaptive", "run the path-selection family study: every pluggable selector on policy-separating workloads over the MLID fabric, with a degraded-fabric axis",
		func(quick bool, net *experiment.Network) ([]csvFile, error) {
			spec := pick(quick, experiment.AdaptiveStudySpec, experiment.QuickAdaptiveSpec)
			setNetwork(&spec.Network, net)
			fmt.Printf("path-selection family: %s, load %.2f B/ns/node, fault rate %.2f, seed %d\n",
				spec.Network, spec.OfferedLoad, spec.FaultRate, spec.Seed)
			rows, err := experiment.AdaptiveStudy(spec)
			if err != nil {
				return nil, err
			}
			fmt.Print(experiment.FormatAdaptive(rows))
			return []csvFile{{"adaptive.csv", experiment.AdaptiveCSV(rows), false}}, nil
		}},
	{"smstudy", "run the in-band subnet-management study: oracle vs in-band SM across trap-loss rates and routing schemes, with a master-SM outage forcing standby failover",
		func(quick bool, net *experiment.Network) ([]csvFile, error) {
			spec := pick(quick, experiment.SMStudySpec, experiment.QuickSMSpec)
			setNetwork(&spec.Network, net)
			fmt.Printf("in-band subnet management: %s, trap-loss rates %v, sweep every %d ns, master-SM outage %d-%d ns, seed %d\n",
				spec.Network, spec.TrapLossProbs, spec.SweepIntervalNs, spec.SMDownNs, spec.SMUpNs, spec.Seed)
			rows, err := experiment.SMStudy(spec)
			if err != nil {
				return nil, err
			}
			fmt.Print(experiment.FormatSM(rows))
			fmt.Println("invariants: packet conservation exact on every run; each in-band run lost traps, recovered them by sweep, and failed over to the standby SM exactly once")
			return []csvFile{
				{"sm.csv", experiment.SMCSV(rows), false},
				{"sm_series.csv", experiment.SMSeriesCSV(rows), true},
			}, nil
		}},
}

// pick returns the full-fidelity spec, or the reduced one when quick.
func pick[S any](quick bool, full, reduced func() S) S {
	if quick {
		return reduced()
	}
	return full()
}

// setNetwork applies the -net override, when set, to a spec's network.
func setNetwork(dst, net *experiment.Network) {
	if net != nil {
		*dst = *net
	}
}

// errUsage asks main to print the usage text and exit 2.
var errUsage = errors.New("no action selected")

func main() {
	var o options
	flag.BoolVar(&o.table1, "table1", false, "print Table 1 (network configurations)")
	flag.StringVar(&o.fig, "fig", "", "figure to run: F1..F8, a short name like c-16x2, or 'all'")
	o.studies = make([]bool, len(studies))
	for i, st := range studies {
		flag.BoolVar(&o.studies[i], st.flag, false, st.help)
	}
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

// run executes the selected table, studies and figures, in that order.
func run(o options) error {
	var net *experiment.Network
	if o.net != "" {
		var m, n int
		if k, err := fmt.Sscanf(o.net, "%dx%d", &m, &n); err != nil || k != 2 {
			return fmt.Errorf("-net %q: want MxN, e.g. 32x2", o.net)
		}
		net = &experiment.Network{M: m, N: n}
	}

	selected := o.table1 || o.fig != ""
	if o.table1 {
		rows, err := experiment.Table1(experiment.PaperNetworks())
		if err != nil {
			return err
		}
		fmt.Println(experiment.FormatTable1(rows))
	}
	for i, st := range studies {
		if !o.studies[i] {
			continue
		}
		selected = true
		files, err := st.run(o.quick, net)
		if err != nil {
			return err
		}
		for _, f := range files {
			if f.series && !o.series {
				continue
			}
			if err := writeCSV(o.csvDir, f.name, f.content); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	if !selected {
		return errUsage
	}
	if o.fig == "" {
		return nil
	}

	specs := experiment.Figures()
	if o.quick {
		specs = experiment.QuickFigures()
	}
	var chosen []experiment.FigureSpec
	if o.fig == "all" {
		chosen = specs
	} else {
		want, err := experiment.FigureByID(o.fig)
		if err != nil {
			return err
		}
		for _, s := range specs {
			if s.ID == want.ID {
				chosen = append(chosen, s)
			}
		}
	}

	for _, spec := range chosen {
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

// exit reports err, if any, and exits non-zero.
func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibsweep:", err)
		if errors.Is(err, ib.ErrLIDSpaceExhausted) {
			fmt.Fprintln(os.Stderr, "ibsweep: hint: the SLID scheme, or a smaller tree, fits the 16-bit LID space")
		}
		os.Exit(1)
	}
}
