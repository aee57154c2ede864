// Hotspot: the paper's headline scenario. A cluster where every compute
// node sends half its traffic to one node — think 31 compute nodes
// checkpointing to a single I/O server — congests single-path (SLID)
// routing badly, while the MLID scheme spreads each source group's packets
// over disjoint ascending paths and distinct least common ancestors.
//
// This example sweeps the offered load under the paper's 50%-centric
// pattern for both schemes and prints the resulting operating points,
// reproducing the shape of the paper's Figures (Observation 3: MLID
// throughput is much higher than SLID's with one virtual lane).
//
// Run with:
//
//	go run ./examples/hotspot
package main

import (
	"fmt"
	"log"

	"mlid"
)

func main() {
	tree, err := mlid.NewTree(8, 2)
	if err != nil {
		log.Fatal(err)
	}
	const hotspot = 0
	fmt.Printf("%s; hotspot node %d receives 50%% of all traffic\n\n", tree, hotspot)

	// First, the static view: trace every node's route toward the hotspot
	// through each scheme's configured tables and count how the load piles
	// onto inter-switch links.
	for _, scheme := range mlid.Schemes() {
		subnet, err := mlid.Configure(tree, scheme)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := mlid.LinkLoad(subnet, mlid.AllToOne(tree, hotspot))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s all-to-one: max inter-switch link load %.0f flows at %s, mean %.2f\n",
			scheme.Name(), rep.MaxLoad, rep.MaxLink, rep.MeanLoad)
	}
	fmt.Println()

	// Then the dynamic view: simulate the 50%-centric pattern at rising
	// offered loads with a single virtual lane.
	loads := []float64{0.05, 0.1, 0.2, 0.3, 0.5}
	fmt.Printf("%-8s", "load")
	for _, scheme := range mlid.Schemes() {
		fmt.Printf("  %13s accepted/latency", scheme.Name())
	}
	fmt.Println()
	for _, load := range loads {
		fmt.Printf("%-8.2f", load)
		for _, scheme := range mlid.Schemes() {
			subnet, err := mlid.Configure(tree, scheme)
			if err != nil {
				log.Fatal(err)
			}
			res, err := mlid.Simulate(mlid.SimConfig{
				Subnet:      subnet,
				Pattern:     mlid.CentricTraffic(tree.Nodes(), hotspot, 0.5),
				OfferedLoad: load,
				DataVLs:     1,
				WarmupNs:    100_000,
				MeasureNs:   300_000,
				Seed:        7,
			})
			if err != nil {
				log.Fatal(err)
			}
			mark := " "
			if res.Saturated {
				mark = "*"
			}
			fmt.Printf("  %13.4f%s / %8.0f ns", res.Accepted, mark, res.MeanLatencyNs)
		}
		fmt.Println()
	}
	fmt.Println("\n(* = saturated: accepted fell below offered)")
	fmt.Println("MLID keeps accepting traffic well past the load where SLID's single")
	fmt.Println("path into the hotspot leaf has already collapsed.")
}
