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
	"io"
	"os"
	"path/filepath"

	"mlid/internal/experiment"
	"mlid/internal/ib"
	"mlid/internal/prof"
)

// options are the parsed command-line flags sweep acts on. studies[i] selects
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

// sweepStudy is one study flag. run prints the study's report to w for the
// full-fidelity or (quick) reduced spec, on net when -net overrides the
// study network, and returns the CSV files to write, in order.
type sweepStudy struct {
	flag, help string
	run        func(w io.Writer, quick bool, net *experiment.Network) ([]csvFile, error)
}

// studies are the study flags, in the order sweep executes them.
var studies = []sweepStudy{
	{"fault", "run the recovery-transient study: a live link failure mid-measurement, SLID vs MLID",
		func(w io.Writer, quick bool, net *experiment.Network) ([]csvFile, error) {
			spec := pick(quick, experiment.RecoveryStudySpec, experiment.QuickRecoverySpec)
			setNetwork(&spec.Network, net)
			fmt.Fprintf(w, "recovery transient: %s, link down at %d ns, uniform load %.2f B/ns/node\n",
				spec.Network, spec.FaultNs, spec.OfferedLoad)
			rows, err := experiment.RecoveryStudy(spec)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(w, experiment.FormatRecovery(rows))
			return []csvFile{
				{"recovery.csv", experiment.RecoveryCSV(rows), false},
				{"recovery_series.csv", experiment.RecoverySeriesCSV(rows), true},
			}, nil
		}},
	{"chaos", "run the seeded chaos campaign: link flaps and switch kills with the reliable transport, SLID vs MLID",
		func(w io.Writer, quick bool, net *experiment.Network) ([]csvFile, error) {
			spec := pick(quick, experiment.ChaosStudySpec, experiment.QuickChaosSpec)
			setNetwork(&spec.Network, net)
			fmt.Fprintf(w, "chaos campaign: %s, fault rates %v, outages %d-%d ns, %d switch kill(s), seed %d\n",
				spec.Network, spec.FaultRates, spec.MinDownNs, spec.MaxDownNs, spec.SwitchKills, spec.Seed)
			rows, err := experiment.ChaosStudy(spec)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(w, experiment.FormatChaos(rows))
			return []csvFile{{"chaos.csv", experiment.ChaosCSV(rows), false}}, nil
		}},
	{"degraded", "run the degraded-fabric quality study: static verifier predictions vs simulated throughput across fault rates, SLID vs MLID",
		func(w io.Writer, quick bool, net *experiment.Network) ([]csvFile, error) {
			spec := pick(quick, experiment.DegradedStudySpec, experiment.QuickDegradedSpec)
			setNetwork(&spec.Network, net)
			fmt.Fprintf(w, "degraded fabric: %s, fault rates %v, uniform load %.2f B/ns/node, seed %d\n",
				spec.Network, spec.Rates, spec.OfferedLoad, spec.Seed)
			rows, err := experiment.DegradedStudy(spec)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(w, experiment.FormatDegraded(rows))
			if err := experiment.DegradedOrderingConsistent(rows); err != nil {
				return nil, err
			}
			fmt.Fprintln(w, "ordering: static predicted-accepted ranking matches simulated accepted throughput at every rate")
			return []csvFile{{"degraded.csv", experiment.DegradedCSV(rows), false}}, nil
		}},
	{"adaptive", "run the path-selection family study: every pluggable selector on policy-separating workloads over the MLID fabric, with a degraded-fabric axis",
		func(w io.Writer, quick bool, net *experiment.Network) ([]csvFile, error) {
			spec := pick(quick, experiment.AdaptiveStudySpec, experiment.QuickAdaptiveSpec)
			setNetwork(&spec.Network, net)
			fmt.Fprintf(w, "path-selection family: %s, load %.2f B/ns/node, fault rate %.2f, seed %d\n",
				spec.Network, spec.OfferedLoad, spec.FaultRate, spec.Seed)
			rows, err := experiment.AdaptiveStudy(spec)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(w, experiment.FormatAdaptive(rows))
			return []csvFile{{"adaptive.csv", experiment.AdaptiveCSV(rows), false}}, nil
		}},
	{"smstudy", "run the in-band subnet-management study: oracle vs in-band SM across trap-loss rates and routing schemes, with a master-SM outage forcing standby failover",
		func(w io.Writer, quick bool, net *experiment.Network) ([]csvFile, error) {
			spec := pick(quick, experiment.SMStudySpec, experiment.QuickSMSpec)
			setNetwork(&spec.Network, net)
			fmt.Fprintf(w, "in-band subnet management: %s, trap-loss rates %v, sweep every %d ns, master-SM outage %d-%d ns, seed %d\n",
				spec.Network, spec.TrapLossProbs, spec.SweepIntervalNs, spec.SMDownNs, spec.SMUpNs, spec.Seed)
			rows, err := experiment.SMStudy(spec)
			if err != nil {
				return nil, err
			}
			fmt.Fprint(w, experiment.FormatSM(rows))
			fmt.Fprintln(w, "invariants: packet conservation exact on every run; each in-band run lost traps, recovered them by sweep, and failed over to the standby SM exactly once")
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

// errUsage asks run to print the usage text and exit 2.
var errUsage = errors.New("no action selected")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on args, writing to stdout and stderr; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.BoolVar(&o.table1, "table1", false, "print Table 1 (network configurations)")
	fs.StringVar(&o.fig, "fig", "", "figure to run: F1..F8, a short name like c-16x2, or 'all'")
	o.studies = make([]bool, len(studies))
	for i, st := range studies {
		fs.BoolVar(&o.studies[i], st.flag, false, st.help)
	}
	fs.BoolVar(&o.series, "series", false, "with -fault or -smstudy and -csv, also write the per-interval recovery-tail curves (delivered/dropped/retransmits/failed/unreachable per bin)")
	fs.BoolVar(&o.quick, "quick", false, "reduced load points and windows")
	fs.StringVar(&o.net, "net", "", "override the study network as MxN (e.g. 32x2 = 32-port 2-tree); applies to -fault, -chaos, -degraded, -adaptive and -smstudy")
	fs.BoolVar(&o.chart, "chart", false, "render ASCII charts to stdout")
	fs.StringVar(&o.csvDir, "csv", "", "directory to write per-figure CSV files into")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the sweeps to this file")
	memProf := fs.String("memprofile", "", "write a heap profile after the sweeps to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	err := prof.Run(*cpuProf, *memProf, func() error { return sweep(stdout, o) })
	if errors.Is(err, errUsage) {
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "ibsweep:", err)
		if errors.Is(err, ib.ErrLIDSpaceExhausted) {
			fmt.Fprintln(stderr, "ibsweep: hint: the SLID scheme, or a smaller tree, fits the 16-bit LID space")
		}
		return 1
	}
	return 0
}

// writeCSV writes one CSV file into dir and reports its path on w; an empty
// dir (no -csv flag) writes nothing.
func writeCSV(w io.Writer, dir, name, content string) error {
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
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// sweep executes the selected table, studies and figures, in that order,
// printing to w.
func sweep(w io.Writer, o options) error {
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
		fmt.Fprintln(w, experiment.FormatTable1(rows))
	}
	for i, st := range studies {
		if !o.studies[i] {
			continue
		}
		selected = true
		files, err := st.run(w, o.quick, net)
		if err != nil {
			return err
		}
		for _, f := range files {
			if f.series && !o.series {
				continue
			}
			if err := writeCSV(w, o.csvDir, f.name, f.content); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
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
		fmt.Fprintf(w, "running %s ...\n", spec.Title())
		res, err := spec.Run()
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Summary())
		if o.chart {
			fmt.Fprintln(w, res.Chart())
		}
		if err := writeCSV(w, o.csvDir, spec.ID+".csv", res.CSV()); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
