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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mlid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are ibtopo's parsed flags.
type options struct {
	m, n                                 int
	scheme, trace, paths                 string
	lft, hotload, describe               int
	lids, render, compare, dot, deadlock bool
	export, dotPath                      string
}

// run is the command on args, writing to stdout and stderr; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.m, "m", 4, "switch port count (power of two >= 4)")
	fs.IntVar(&o.n, "n", 3, "tree dimension")
	fs.StringVar(&o.scheme, "scheme", "MLID", "routing scheme: MLID or SLID")
	fs.BoolVar(&o.lids, "lids", false, "print every node's LID assignment (paper Figure 10)")
	fs.StringVar(&o.trace, "trace", "", "trace the selected route between src:dst node IDs")
	fs.StringVar(&o.paths, "paths", "", "print all selectable routes between src:dst node IDs")
	fs.IntVar(&o.lft, "lft", -1, "dump the forwarding table of the given switch ID")
	fs.IntVar(&o.hotload, "hotload", -1, "static all-to-one inter-switch link load toward the given node, both schemes")
	fs.BoolVar(&o.render, "render", false, "draw the tree level by level")
	fs.IntVar(&o.describe, "describe", -1, "describe the wiring of the given switch ID")
	fs.BoolVar(&o.compare, "compare", false, "compare against the k-ary n-tree built from the same switches")
	fs.BoolVar(&o.deadlock, "deadlock", false, "verify the forwarding tables' channel-dependency graph is acyclic")
	fs.StringVar(&o.export, "export", "", "write the configured subnet (LIDs + LFTs) to this JSON file")
	fs.BoolVar(&o.dot, "dot", false, "emit the topology in Graphviz dot format")
	fs.StringVar(&o.dotPath, "dotpath", "", "emit dot with the selected route src:dst highlighted")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if err := inspect(stdout, o); err != nil {
		fmt.Fprintln(stderr, "ibtopo:", err)
		return 1
	}
	return 0
}

// inspect builds the fabric and prints the view the options select.
func inspect(w io.Writer, o options) error {
	tree, err := mlid.NewTree(o.m, o.n)
	if err != nil {
		return err
	}
	s, err := mlid.SchemeByName(o.scheme)
	if err != nil {
		return err
	}

	// The dot emitters print only the graph, for piping into graphviz.
	if o.dot {
		fmt.Fprint(w, tree.DOT())
		return nil
	}
	if o.dotPath != "" {
		src, dst, err := parsePair(o.dotPath, tree.Nodes())
		if err != nil {
			return err
		}
		path, err := mlid.Trace(tree, s, src, dst)
		if err != nil {
			return err
		}
		hops := make([]struct {
			Switch  mlid.SwitchID
			OutPort int
		}, len(path.Hops))
		for i, h := range path.Hops {
			hops[i].Switch, hops[i].OutPort = h.Switch, h.OutPort
		}
		fmt.Fprint(w, tree.PathDOT(src, dst, hops))
		return nil
	}

	fmt.Fprintf(w, "%s  (height %d, %d links, %d levels)\n", tree, tree.N()+1, tree.Links(), tree.Levels())
	if err := tree.Validate(); err != nil {
		return err
	}
	fmt.Fprintln(w, "topology validation: ok")

	subnet, err := mlid.Configure(tree, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scheme %s: LMC %d, %d LIDs/node, LID space %d\n",
		s.Name(), s.LMC(tree), 1<<s.LMC(tree), subnet.LIDSpace())

	switch {
	case o.export != "":
		data, err := mlid.ExportSubnet(subnet)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.export, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d bytes)\n", o.export, len(data))
	case o.compare:
		ft, kary, err := tree.CompareWithKaryNTree()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s", mlid.FormatFamilyComparison(ft, kary))
	case o.deadlock:
		rep, err := mlid.CheckDeadlockFree(subnet)
		if err != nil {
			return err
		}
		if !rep.Free() {
			fmt.Fprintf(w, "\nDEPENDENCY CYCLE: %v\n", rep.Cycle)
			return errors.New("forwarding tables are not deadlock free")
		}
		fmt.Fprintf(w, "\ndeadlock free: %d channels, %d dependencies, no cycles\n",
			rep.Channels, rep.Dependencies)
	case o.render:
		fmt.Fprintf(w, "\n%s", tree.Render(110))
		fmt.Fprintf(w, "mean pair distance %.2f switches, bisection %d links\n",
			tree.AverageDistance(), tree.BisectionLinks())
	case o.describe >= 0:
		if o.describe >= tree.Switches() {
			return fmt.Errorf("switch %d out of range [0,%d)", o.describe, tree.Switches())
		}
		fmt.Fprintf(w, "\n%s", tree.DescribeSwitch(mlid.SwitchID(o.describe)))
	case o.lids:
		fmt.Fprintf(w, "\n%-10s %-8s %s\n", "node", "PID", "LID set")
		for p := 0; p < tree.Nodes(); p++ {
			r := subnet.Endports[p]
			fmt.Fprintf(w, "%-10s %-8d %s\n", tree.NodeLabel(mlid.NodeID(p)), p, r)
		}
	case o.trace != "":
		src, dst, err := parsePair(o.trace, tree.Nodes())
		if err != nil {
			return err
		}
		path, err := mlid.Trace(tree, s, src, dst)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nDLID %d (%d switch hops): %s\n", path.DLID, path.Len(), path.Render(tree))
	case o.paths != "":
		src, dst, err := parsePair(o.paths, tree.Nodes())
		if err != nil {
			return err
		}
		all, err := mlid.AllPaths(tree, s, src, dst)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%d distinct route(s) from %s to %s:\n", len(all), tree.NodeLabel(src), tree.NodeLabel(dst))
		for _, p := range all {
			fmt.Fprintf(w, "  DLID %-5d %s\n", p.DLID, p.Render(tree))
		}
	case o.lft >= 0:
		if o.lft >= tree.Switches() {
			return fmt.Errorf("switch %d out of range [0,%d)", o.lft, tree.Switches())
		}
		sw := mlid.SwitchID(o.lft)
		fmt.Fprintf(w, "\nLFT of %s (physical output port per DLID):\n", tree.SwitchLabel(sw))
		entries := subnet.LFTs[sw].Entries()
		for lid := 1; lid < len(entries); lid++ {
			if entries[lid] == 0xFF {
				continue
			}
			owner, _ := subnet.OwnerOf(mlid.LID(lid))
			fmt.Fprintf(w, "  DLID %-5d -> port %-3d (%s)\n", lid, entries[lid], tree.NodeLabel(owner))
		}
	case o.hotload >= 0:
		dst := mlid.NodeID(o.hotload)
		fmt.Fprintf(w, "\nall-to-one static inter-switch link load toward %s:\n", tree.NodeLabel(dst))
		flows := mlid.AllToOne(tree, dst)
		for _, sch := range mlid.Schemes() {
			sn, err := mlid.Configure(tree, sch)
			if err != nil {
				return err
			}
			rep, err := mlid.LinkLoad(sn, flows)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-5s max %.0f at %s  mean %.2f  (%d/%d flows unrouted)\n",
				sch.Name(), rep.MaxLoad, rep.MaxLink, rep.MeanLoad, rep.Unrouted, rep.Flows)
		}
	}
	return nil
}

func parsePair(s string, nodes int) (mlid.NodeID, mlid.NodeID, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want src:dst, got %q", s)
	}
	a, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, err
	}
	if a < 0 || a >= nodes || b < 0 || b >= nodes {
		return 0, 0, fmt.Errorf("node IDs must be in [0,%d)", nodes)
	}
	return mlid.NodeID(a), mlid.NodeID(b), nil
}
