// Command ibtopo inspects m-port n-tree InfiniBand fabrics: topology
// construction and validation, LID assignment tables (the paper's Figure
// 10), route tracing (Figures 11 and the Section 4.3 example), forwarding
// table dumps, and static link-load analysis.
//
// Examples:
//
//	ibtopo -m 4 -n 3                         # summary + validation
//	ibtopo -m 4 -n 3 -lids                   # Figure 10: LID set per node
//	ibtopo -m 4 -n 3 -trace 0:4              # route P(000) -> P(100)
//	ibtopo -m 4 -n 3 -paths 0:4              # all LMC-selectable routes
//	ibtopo -m 4 -n 3 -lft 12                 # forwarding table of switch 12
//	ibtopo -m 8 -n 2 -hotload 31             # all-to-one inter-switch load, both schemes
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mlid"
)

func main() {
	var (
		m        = flag.Int("m", 4, "switch port count (power of two >= 4)")
		n        = flag.Int("n", 3, "tree dimension")
		scheme   = flag.String("scheme", "MLID", "routing scheme: MLID or SLID")
		lids     = flag.Bool("lids", false, "print every node's LID assignment (paper Figure 10)")
		trace    = flag.String("trace", "", "trace the selected route between src:dst node IDs")
		paths    = flag.String("paths", "", "print all selectable routes between src:dst node IDs")
		lft      = flag.Int("lft", -1, "dump the forwarding table of the given switch ID")
		hotload  = flag.Int("hotload", -1, "static all-to-one inter-switch link load toward the given node, both schemes")
		render   = flag.Bool("render", false, "draw the tree level by level")
		describe = flag.Int("describe", -1, "describe the wiring of the given switch ID")
		compare  = flag.Bool("compare", false, "compare against the k-ary n-tree built from the same switches")
		deadlock = flag.Bool("deadlock", false, "verify the forwarding tables' channel-dependency graph is acyclic")
		export   = flag.String("export", "", "write the configured subnet (LIDs + LFTs) to this JSON file")
		dot      = flag.Bool("dot", false, "emit the topology in Graphviz dot format")
		dotPath  = flag.String("dotpath", "", "emit dot with the selected route src:dst highlighted")
	)
	flag.Parse()

	tree, err := mlid.NewTree(*m, *n)
	fatal(err)
	s, err := mlid.SchemeByName(*scheme)
	fatal(err)

	// The dot emitters print only the graph, for piping into graphviz.
	if *dot {
		fmt.Print(tree.DOT())
		return
	}
	if *dotPath != "" {
		src, dst := parsePair(*dotPath, tree.Nodes())
		path, err := mlid.Trace(tree, s, src, dst)
		fatal(err)
		hops := make([]struct {
			Switch  mlid.SwitchID
			OutPort int
		}, len(path.Hops))
		for i, h := range path.Hops {
			hops[i].Switch, hops[i].OutPort = h.Switch, h.OutPort
		}
		fmt.Print(tree.PathDOT(src, dst, hops))
		return
	}

	fmt.Printf("%s  (height %d, %d links, %d levels)\n", tree, tree.N()+1, tree.Links(), tree.Levels())
	fatal(tree.Validate())
	fmt.Println("topology validation: ok")

	subnet, err := mlid.Configure(tree, s)
	fatal(err)
	fmt.Printf("scheme %s: LMC %d, %d LIDs/node, LID space %d\n",
		s.Name(), s.LMC(tree), 1<<s.LMC(tree), subnet.LIDSpace())

	switch {
	case *export != "":
		data, err := mlid.ExportSubnet(subnet)
		fatal(err)
		fatal(os.WriteFile(*export, data, 0o644))
		fmt.Printf("wrote %s (%d bytes)\n", *export, len(data))
	case *compare:
		ft, kary, err := tree.CompareWithKaryNTree()
		fatal(err)
		fmt.Printf("\n%s", mlid.FormatFamilyComparison(ft, kary))
	case *deadlock:
		rep, err := mlid.CheckDeadlockFree(subnet)
		fatal(err)
		if rep.Free() {
			fmt.Printf("\ndeadlock free: %d channels, %d dependencies, no cycles\n",
				rep.Channels, rep.Dependencies)
		} else {
			fmt.Printf("\nDEPENDENCY CYCLE: %v\n", rep.Cycle)
			os.Exit(1)
		}
	case *render:
		fmt.Printf("\n%s", tree.Render(110))
		fmt.Printf("mean pair distance %.2f switches, bisection %d links\n",
			tree.AverageDistance(), tree.BisectionLinks())
	case *describe >= 0:
		if *describe >= tree.Switches() {
			fatal(fmt.Errorf("switch %d out of range [0,%d)", *describe, tree.Switches()))
		}
		fmt.Printf("\n%s", tree.DescribeSwitch(mlid.SwitchID(*describe)))
	case *lids:
		fmt.Printf("\n%-10s %-8s %s\n", "node", "PID", "LID set")
		for p := 0; p < tree.Nodes(); p++ {
			r := subnet.Endports[p]
			fmt.Printf("%-10s %-8d %s\n", tree.NodeLabel(mlid.NodeID(p)), p, r)
		}
	case *trace != "":
		src, dst := parsePair(*trace, tree.Nodes())
		path, err := mlid.Trace(tree, s, src, dst)
		fatal(err)
		fmt.Printf("\nDLID %d (%d switch hops): %s\n", path.DLID, path.Len(), path.Render(tree))
	case *paths != "":
		src, dst := parsePair(*paths, tree.Nodes())
		all, err := mlid.AllPaths(tree, s, src, dst)
		fatal(err)
		fmt.Printf("\n%d distinct route(s) from %s to %s:\n", len(all), tree.NodeLabel(src), tree.NodeLabel(dst))
		for _, p := range all {
			fmt.Printf("  DLID %-5d %s\n", p.DLID, p.Render(tree))
		}
	case *lft >= 0:
		if *lft >= tree.Switches() {
			fatal(fmt.Errorf("switch %d out of range [0,%d)", *lft, tree.Switches()))
		}
		sw := mlid.SwitchID(*lft)
		fmt.Printf("\nLFT of %s (physical output port per DLID):\n", tree.SwitchLabel(sw))
		entries := subnet.LFTs[sw].Entries()
		for lid := 1; lid < len(entries); lid++ {
			if entries[lid] == 0xFF {
				continue
			}
			owner, _ := subnet.OwnerOf(mlid.LID(lid))
			fmt.Printf("  DLID %-5d -> port %-3d (%s)\n", lid, entries[lid], tree.NodeLabel(owner))
		}
	case *hotload >= 0:
		dst := mlid.NodeID(*hotload)
		fmt.Printf("\nall-to-one static inter-switch link load toward %s:\n", tree.NodeLabel(dst))
		flows := mlid.AllToOne(tree, dst)
		for _, sch := range mlid.Schemes() {
			sn, err := mlid.Configure(tree, sch)
			fatal(err)
			rep, err := mlid.LinkLoad(sn, flows)
			fatal(err)
			fmt.Printf("  %-5s max %.0f at %s  mean %.2f  (%d/%d flows unrouted)\n",
				sch.Name(), rep.MaxLoad, rep.MaxLink, rep.MeanLoad, rep.Unrouted, rep.Flows)
		}
	}
}

func parsePair(s string, nodes int) (mlid.NodeID, mlid.NodeID) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		fatal(fmt.Errorf("want src:dst, got %q", s))
	}
	a, err := strconv.Atoi(parts[0])
	fatal(err)
	b, err := strconv.Atoi(parts[1])
	fatal(err)
	if a < 0 || a >= nodes || b < 0 || b >= nodes {
		fatal(fmt.Errorf("node IDs must be in [0,%d)", nodes))
	}
	return mlid.NodeID(a), mlid.NodeID(b)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibtopo:", err)
		os.Exit(1)
	}
}
