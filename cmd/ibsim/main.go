// Command ibsim runs a single discrete-event simulation of an m-port n-tree
// InfiniBand network and prints the measured operating point.
//
// Example:
//
//	ibsim -m 8 -n 3 -scheme MLID -pattern centric -load 0.4 -vls 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"mlid"
	"mlid/internal/prof"
)

// options are the parsed command-line flags simulate acts on.
type options struct {
	m, n, hotspot, vls, pktSize, buf, topPorts, tracePkts int
	scheme, pattern, selName, reception, switching        string
	cpuProf, memProf                                      string
	load                                                  float64
	warmup, measure, seed                                 int64
	hist                                                  bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on args, writing to stdout and stderr; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.m, "m", 8, "switch port count (power of two >= 4)")
	fs.IntVar(&o.n, "n", 2, "tree dimension")
	fs.StringVar(&o.scheme, "scheme", "MLID", "routing scheme: MLID or SLID")
	fs.StringVar(&o.pattern, "pattern", "uniform", "traffic: uniform, centric, bitcomplement, bitreversal, shift")
	fs.IntVar(&o.hotspot, "hotspot", 0, "hotspot node for the centric pattern")
	fs.Float64Var(&o.load, "load", 0.3, "offered load in bytes/ns per node (1.0 = link rate)")
	fs.IntVar(&o.vls, "vls", 1, "data virtual lanes (paper: 1, 2 or 4)")
	fs.IntVar(&o.pktSize, "packet", 256, "packet size in bytes")
	fs.IntVar(&o.buf, "buf", 1, "per-VL buffer depth in packets")
	fs.Int64Var(&o.warmup, "warmup", 100_000, "warmup window in ns")
	fs.Int64Var(&o.measure, "measure", 300_000, "measurement window in ns")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.StringVar(&o.selName, "select", "rank", "path-selection policy: rank, random, flowspray, adaptive, pktspray")
	fs.StringVar(&o.reception, "reception", "ideal", "endnode reception model: ideal or link")
	fs.StringVar(&o.switching, "switching", "vct", "switching mode: vct or saf")
	fs.BoolVar(&o.hist, "hist", false, "print a latency histogram")
	fs.IntVar(&o.topPorts, "ports", 0, "print the N busiest directed links")
	fs.IntVar(&o.tracePkts, "trace", 0, "print hop-by-hop timelines of the first N packets")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile after the run to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if err := simulate(stdout, o); err != nil {
		fmt.Fprintln(stderr, "ibsim:", err)
		if errors.Is(err, mlid.ErrLIDSpaceExhausted) {
			fmt.Fprintln(stderr, "ibsim: hint: the SLID scheme, or a smaller tree, fits the 16-bit LID space")
		}
		return 1
	}
	return 0
}

// simulate runs one simulation and prints its operating point.
func simulate(w io.Writer, o options) error {
	tree, err := mlid.NewTree(o.m, o.n)
	if err != nil {
		return err
	}
	s, err := mlid.SchemeByName(o.scheme)
	if err != nil {
		return err
	}
	pat, err := mlid.PatternByName(o.pattern, tree.Nodes(), o.hotspot)
	if err != nil {
		return err
	}
	subnet, err := mlid.Configure(tree, s)
	if err != nil {
		return err
	}
	sel, err := mlid.SelectorByName(o.selName)
	if err != nil {
		return err
	}

	rec := mlid.ReceptionIdeal
	switch o.reception {
	case "ideal":
	case "link":
		rec = mlid.ReceptionLink
	default:
		return fmt.Errorf("unknown reception model %q", o.reception)
	}
	sw := mlid.SwitchingVCT
	switch o.switching {
	case "vct":
	case "saf":
		sw = mlid.SwitchingSAF
	default:
		return fmt.Errorf("unknown switching mode %q", o.switching)
	}

	var res mlid.SimResult
	err = prof.Run(o.cpuProf, o.memProf, func() (err error) {
		res, err = mlid.Simulate(mlid.SimConfig{
			Subnet:           subnet,
			Pattern:          pat,
			DataVLs:          o.vls,
			PacketSize:       o.pktSize,
			BufPackets:       o.buf,
			OfferedLoad:      o.load,
			WarmupNs:         o.warmup,
			MeasureNs:        o.measure,
			Reception:        rec,
			Switching:        sw,
			PathSelect:       sel,
			CollectPortStats: o.topPorts > 0,
			TracePackets:     o.tracePkts,
			Seed:             o.seed,
		})
		return err
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%s, %s scheme, %s traffic, %s selection, %d VL(s), %d-byte packets\n",
		tree, s.Name(), pat.Name(), sel.Name(), o.vls, o.pktSize)
	fmt.Fprintf(w, "offered load:      %.4f bytes/ns/node\n", res.OfferedLoad)
	fmt.Fprintf(w, "accepted traffic:  %.4f bytes/ns/node", res.Accepted)
	if res.Saturated {
		fmt.Fprintf(w, "  (saturated)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "mean latency:      %.1f ns\n", res.MeanLatencyNs)
	fmt.Fprintf(w, "p99 latency:       %.1f ns\n", res.P99LatencyNs)
	fmt.Fprintf(w, "max latency:       %.1f ns\n", res.MaxLatencyNs)
	fmt.Fprintf(w, "packets delivered: %d in window (%d total, %d in flight at end)\n",
		res.DeliveredWindow, res.TotalDelivered, res.InFlightAtEnd)
	if res.OutOfOrder >= 0 {
		fmt.Fprintf(w, "out-of-order:      %d deliveries\n", res.OutOfOrder)
	}
	fmt.Fprintf(w, "link utilization:  max %.3f, mean %.3f\n", res.MaxLinkUtilization, res.MeanLinkUtilization)
	fmt.Fprintf(w, "simulator events:  %d over %d ns\n", res.Events, res.EndTime)
	if o.hist {
		fmt.Fprintf(w, "\nlatency distribution (ns):\n")
		writeHistogram(w, res.LatencyOctaves)
	}
	if o.topPorts > 0 {
		fmt.Fprintf(w, "\nbusiest directed links:\n")
		n := o.topPorts
		if n > len(res.PortStats) {
			n = len(res.PortStats)
		}
		for _, ps := range res.PortStats[:n] {
			if ps.IsNode {
				fmt.Fprintf(w, "  node %-4d injection      util %.3f, %d packets\n", ps.Node, ps.Utilization, ps.Packets)
			} else {
				fmt.Fprintf(w, "  %-14s port %-3d  util %.3f, %d packets\n",
					tree.SwitchLabel(mlid.SwitchID(ps.Switch)), ps.Port, ps.Utilization, ps.Packets)
			}
		}
	}
	for _, tr := range res.Traces {
		fmt.Fprintf(w, "\npacket %d: node %d -> node %d (DLID %d, VL %d)\n", tr.Seq, tr.Src, tr.Dst, tr.DLID, tr.VL)
		fmt.Fprintf(w, "  generated %-8d injected %-8d", tr.GenNs, tr.InjectNs)
		if tr.DeliverNs > 0 {
			fmt.Fprintf(w, " delivered %d (latency %d ns)\n", tr.DeliverNs, tr.DeliverNs-tr.GenNs)
		} else {
			fmt.Fprintf(w, " still in flight at end\n")
		}
		for _, h := range tr.Hops {
			fmt.Fprintf(w, "  %-14s arrive %-8d depart %d\n", tree.SwitchLabel(mlid.SwitchID(h.Switch)), h.ArriveNs, h.DepartNs)
		}
	}
	return nil
}

// histFirst is the first octave writeHistogram gives its own row: latencies
// under 2^histFirst = 256 ns share one row.
const histFirst = 8

// writeHistogram draws a run's latency octaves (SimResult.LatencyOctaves) as
// text bars 48 wide: a <256ns row when any latency fell below 256 ns, then
// one row per octave from the lowest non-empty one at or above 256 ns up to
// the highest, each bar scaled to the tallest row.
func writeHistogram(w io.Writer, octaves []int64) {
	if len(octaves) == 0 {
		fmt.Fprint(w, "(no samples)\n")
		return
	}
	var under, peak int64
	for e, c := range octaves {
		if e < histFirst {
			under += c
		} else {
			peak = max(peak, c)
		}
	}
	if under > 0 {
		fmt.Fprintf(w, "%12s  %8d\n", "<256ns", under)
		peak = max(peak, under)
	}
	first := histFirst
	for first < len(octaves) && octaves[first] == 0 {
		first++
	}
	for e := first; e < len(octaves); e++ {
		lo, c := math.Ldexp(1, e), octaves[e]
		bar := strings.Repeat("#", int(48*float64(c)/float64(peak)))
		fmt.Fprintf(w, "%6.0f-%-6.0f %8d %s\n", lo, 2*lo, c, bar)
	}
}
