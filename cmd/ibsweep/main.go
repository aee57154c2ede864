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

func main() {
	var (
		table1   = flag.Bool("table1", false, "print Table 1 (network configurations)")
		fig      = flag.String("fig", "", "figure to run: F1..F8, a short name like c-16x2, or 'all'")
		fault    = flag.Bool("fault", false, "run the recovery-transient study: a live link failure mid-measurement, SLID vs MLID")
		chaos    = flag.Bool("chaos", false, "run the seeded chaos campaign: link flaps and switch kills with the reliable transport, SLID vs MLID")
		degraded = flag.Bool("degraded", false, "run the degraded-fabric quality study: static verifier predictions vs simulated throughput across fault rates, SLID vs MLID")
		adaptive = flag.Bool("adaptive", false, "run the path-selection family study: every pluggable selector on policy-separating workloads over the MLID fabric, with a degraded-fabric axis")
		smstudy  = flag.Bool("smstudy", false, "run the in-band subnet-management study: oracle vs in-band SM across trap-loss rates and routing schemes, with a master-SM outage forcing standby failover")
		series   = flag.Bool("series", false, "with -fault or -smstudy and -csv, also write the per-interval recovery-tail curves (delivered/dropped/retransmits/failed/unreachable per bin)")
		quick    = flag.Bool("quick", false, "reduced load points and windows")
		net      = flag.String("net", "", "override the study network as MxN (e.g. 32x2 = 32-port 2-tree); applies to -fault, -chaos, -degraded, -adaptive and -smstudy")
		chart    = flag.Bool("chart", false, "render ASCII charts to stdout")
		csvDir   = flag.String("csv", "", "directory to write per-figure CSV files into")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweeps to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile after the sweeps to this file")
	)
	flag.Parse()

	var netOverride *mlid.EvalNetwork
	if *net != "" {
		var m, n int
		if k, err := fmt.Sscanf(*net, "%dx%d", &m, &n); err != nil || k != 2 {
			fatal(fmt.Errorf("-net %q: want MxN, e.g. 32x2", *net))
		}
		netOverride = &mlid.EvalNetwork{M: m, N: n}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fatal(f.Close())
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			fatal(err)
			runtime.GC() // up-to-date allocation statistics
			fatal(pprof.WriteHeapProfile(f))
			fatal(f.Close())
		}()
	}

	if *table1 {
		rows, err := mlid.EvalTable1(mlid.EvalNetworks())
		fatal(err)
		printTable1(rows)
	}
	if *fault {
		spec := mlid.EvalRecoverySpecDefault()
		if *quick {
			spec = mlid.EvalRecoverySpecQuick()
		}
		if netOverride != nil {
			spec.Network = *netOverride
		}
		fmt.Printf("recovery transient: %s, link down at %d ns, uniform load %.2f B/ns/node\n",
			spec.Network, spec.FaultNs, spec.OfferedLoad)
		rows, err := mlid.EvalRecoveryStudy(spec)
		fatal(err)
		fmt.Print(mlid.FormatRecovery(rows))
		if *csvDir != "" {
			fatal(os.MkdirAll(*csvDir, 0o755))
			path := filepath.Join(*csvDir, "recovery.csv")
			fatal(os.WriteFile(path, []byte(mlid.RecoveryCSV(rows)), 0o644))
			fmt.Printf("wrote %s\n", path)
			if *series {
				path := filepath.Join(*csvDir, "recovery_series.csv")
				fatal(os.WriteFile(path, []byte(mlid.RecoverySeriesCSV(rows)), 0o644))
				fmt.Printf("wrote %s\n", path)
			}
		}
		fmt.Println()
	}
	if *chaos {
		spec := mlid.EvalChaosSpecDefault()
		if *quick {
			spec = mlid.EvalChaosSpecQuick()
		}
		if netOverride != nil {
			spec.Network = *netOverride
		}
		fmt.Printf("chaos campaign: %s, fault rates %v, outages %d-%d ns, %d switch kill(s), seed %d\n",
			spec.Network, spec.FaultRates, spec.MinDownNs, spec.MaxDownNs, spec.SwitchKills, spec.Seed)
		rows, err := mlid.EvalChaosStudy(spec)
		fatal(err)
		fmt.Print(mlid.FormatChaos(rows))
		if *csvDir != "" {
			fatal(os.MkdirAll(*csvDir, 0o755))
			path := filepath.Join(*csvDir, "chaos.csv")
			fatal(os.WriteFile(path, []byte(mlid.ChaosCSV(rows)), 0o644))
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
	}
	if *degraded {
		spec := mlid.EvalDegradedSpecDefault()
		if *quick {
			spec = mlid.EvalDegradedSpecQuick()
		}
		if netOverride != nil {
			spec.Network = *netOverride
		}
		fmt.Printf("degraded fabric: %s, fault rates %v, uniform load %.2f B/ns/node, seed %d\n",
			spec.Network, spec.Rates, spec.OfferedLoad, spec.Seed)
		rows, err := mlid.EvalDegradedStudy(spec)
		fatal(err)
		fmt.Print(mlid.FormatDegraded(rows))
		fatal(mlid.DegradedOrderingConsistent(rows))
		fmt.Println("ordering: static predicted-accepted ranking matches simulated accepted throughput at every rate")
		if *csvDir != "" {
			fatal(os.MkdirAll(*csvDir, 0o755))
			path := filepath.Join(*csvDir, "degraded.csv")
			fatal(os.WriteFile(path, []byte(mlid.DegradedCSV(rows)), 0o644))
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
	}
	if *adaptive {
		spec := mlid.EvalAdaptiveSpecDefault()
		if *quick {
			spec = mlid.EvalAdaptiveSpecQuick()
		}
		if netOverride != nil {
			spec.Network = *netOverride
		}
		fmt.Printf("path-selection family: %s, load %.2f B/ns/node, fault rate %.2f, seed %d\n",
			spec.Network, spec.OfferedLoad, spec.FaultRate, spec.Seed)
		rows, err := mlid.EvalAdaptiveStudy(spec)
		fatal(err)
		fmt.Print(mlid.FormatAdaptive(rows))
		if *csvDir != "" {
			fatal(os.MkdirAll(*csvDir, 0o755))
			path := filepath.Join(*csvDir, "adaptive.csv")
			fatal(os.WriteFile(path, []byte(mlid.AdaptiveCSV(rows)), 0o644))
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
	}
	if *smstudy {
		spec := mlid.EvalSMSpecDefault()
		if *quick {
			spec = mlid.EvalSMSpecQuick()
		}
		if netOverride != nil {
			spec.Network = *netOverride
		}
		fmt.Printf("in-band subnet management: %s, trap-loss rates %v, sweep every %d ns, master-SM outage %d-%d ns, seed %d\n",
			spec.Network, spec.TrapLossProbs, spec.SweepIntervalNs, spec.SMDownNs, spec.SMUpNs, spec.Seed)
		rows, err := mlid.EvalSMStudy(spec)
		fatal(err)
		fmt.Print(mlid.FormatSM(rows))
		fmt.Println("invariants: packet conservation exact on every run; each in-band run lost traps, recovered them by sweep, and failed over to the standby SM exactly once")
		if *csvDir != "" {
			fatal(os.MkdirAll(*csvDir, 0o755))
			path := filepath.Join(*csvDir, "sm.csv")
			fatal(os.WriteFile(path, []byte(mlid.SMCSV(rows)), 0o644))
			fmt.Printf("wrote %s\n", path)
			if *series {
				path := filepath.Join(*csvDir, "sm_series.csv")
				fatal(os.WriteFile(path, []byte(mlid.SMSeriesCSV(rows)), 0o644))
				fmt.Printf("wrote %s\n", path)
			}
		}
		fmt.Println()
	}
	if *fig == "" {
		if !*table1 && !*fault && !*chaos && !*degraded && !*adaptive && !*smstudy {
			flag.Usage()
			os.Exit(2)
		}
		return
	}

	specs := mlid.EvalFigures()
	if *quick {
		specs = mlid.EvalQuickFigures()
	}
	var selected []mlid.EvalFigureSpec
	if *fig == "all" {
		selected = specs
	} else {
		want, err := mlid.EvalFigureByID(*fig)
		fatal(err)
		for _, s := range specs {
			if s.ID == want.ID {
				selected = append(selected, s)
			}
		}
	}

	for _, spec := range selected {
		fmt.Printf("running %s ...\n", spec.Title())
		res, err := spec.Run()
		fatal(err)
		fmt.Print(res.Summary())
		if *chart {
			fmt.Println(res.Chart())
		}
		if *csvDir != "" {
			fatal(os.MkdirAll(*csvDir, 0o755))
			path := filepath.Join(*csvDir, spec.ID+".csv")
			fatal(os.WriteFile(path, []byte(res.CSV()), 0o644))
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
	}
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

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibsweep:", err)
		if errors.Is(err, mlid.ErrLIDSpaceExhausted) {
			fmt.Fprintln(os.Stderr, "ibsweep: hint: the SLID scheme, or a smaller tree, fits the 16-bit LID space")
		}
		os.Exit(1)
	}
}
