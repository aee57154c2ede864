// Pathdiversity: reproduces the paper's worked examples on the 4-port
// 3-tree — the multiple-LID assignment of Figure 10, the group path
// selection of Figure 11 (the four members of gcpg(0,1) reach P(100)
// through four different roots over disjoint ascending links), and the
// forwarding-equation route of Section 4.3.
//
// Run with:
//
//	go run ./examples/pathdiversity
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"mlid"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the example to w.
func run(w io.Writer) error {
	tree, err := mlid.NewTree(4, 3)
	if err != nil {
		return err
	}
	scheme := mlid.MLID()
	subnet, err := mlid.Configure(tree, scheme)
	if err != nil {
		return err
	}

	// Figure 10: every node's base LID and LID set (LMC = 2 -> 4 LIDs).
	fmt.Fprintf(w, "Figure 10 — LID assignment on %s (LMC %d):\n", tree, scheme.LMC(tree))
	for p := 0; p < tree.Nodes(); p++ {
		fmt.Fprintf(w, "  %-8s %s\n", tree.NodeLabel(mlid.NodeID(p)), subnet.Endports[p])
	}

	// Figure 11: the four members of gcpg(0, 1) = {P(000), P(001), P(010),
	// P(011)} each select a different LID of P(100) and climb to a
	// different root.
	dst := mlid.NodeID(4) // P(100)
	fmt.Fprintf(w, "\nFigure 11 — group path selection toward %s:\n", tree.NodeLabel(dst))
	for src := mlid.NodeID(0); src < 4; src++ {
		path, err := mlid.Trace(tree, scheme, src, dst)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s uses DLID %d: %s\n", tree.NodeLabel(src), path.DLID, path.Render(tree))
	}

	// Section 4.3: all LMC-selectable routes between a maximally distant
	// pair — one per least common ancestor.
	src := mlid.NodeID(0)
	all, err := mlid.AllPaths(tree, scheme, src, dst)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAll %d selectable routes %s -> %s (paper: (m/2)^(n-1-alpha) = %d):\n",
		len(all), tree.NodeLabel(src), tree.NodeLabel(dst), tree.PathCount(src, dst))
	for _, p := range all {
		fmt.Fprintf(w, "  DLID %-4d %s\n", p.DLID, p.Render(tree))
	}

	// The payoff, statically: under all-to-one traffic MLID spreads each
	// source group over its m/2 ascending links, while SLID piles a whole
	// leaf group onto one port (the paper's Figure 9 congestion).
	fmt.Fprintf(w, "\nStatic all-to-one inter-switch load toward %s:\n", tree.NodeLabel(dst))
	for _, s := range mlid.Schemes() {
		sn, err := mlid.Configure(tree, s)
		if err != nil {
			return err
		}
		rep, err := mlid.LinkLoad(sn, mlid.AllToOne(tree, dst))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-5s hottest link %s carries %.0f flows (mean %.2f)\n", s.Name(), rep.MaxLink, rep.MaxLoad, rep.MeanLoad)
	}
	return nil
}
