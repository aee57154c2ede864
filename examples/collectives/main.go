// Collectives: measures MPI-style collective exchanges as closed workloads —
// every message enqueued at time zero, the metric being the makespan (the
// time until the fabric drains). This is the lens an application feels:
// a checkpoint gather or an all-to-all shuffle finishes when its last
// packet lands.
//
// The gather (all-to-one) is the paper's congestion scenario as a
// collective: under SLID every packet crawls down one path into the root's
// leaf, while MLID fans the ascent across disjoint links and descends
// through all m/2 paths.
//
// Run with:
//
//	go run ./examples/collectives
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
	fmt.Printf("%s — collective makespans (lower is better)\n\n", tree)

	collectives := []struct {
		name string
		msgs func() []mlid.Message
	}{
		{"gather 4KiB -> node 0", func() []mlid.Message { return mlid.GatherMessages(tree, 0, 4096) }},
		{"all-to-all 1KiB", func() []mlid.Message { return mlid.AllToAllMessages(tree, 1024) }},
	}

	fmt.Printf("%-24s %14s %14s %9s\n", "collective", "SLID makespan", "MLID makespan", "speedup")
	for _, c := range collectives {
		var makespan [2]int64
		for i, scheme := range []mlid.Scheme{mlid.SLID(), mlid.MLID()} {
			subnet, err := mlid.Configure(tree, scheme)
			if err != nil {
				log.Fatal(err)
			}
			res, err := mlid.SimulateBatch(mlid.SimConfig{
				Subnet:   subnet,
				Messages: c.msgs(),
				Seed:     1,
			})
			if err != nil {
				log.Fatal(err)
			}
			makespan[i] = res.MakespanNs
		}
		fmt.Printf("%-24s %11d ns %11d ns %8.2fx\n",
			c.name, makespan[0], makespan[1], float64(makespan[0])/float64(makespan[1]))
	}
	fmt.Println("\nThe gather speedup approaches m/2 (the number of descending paths into")
	fmt.Println("the root's leaf switch); the all-to-all is balanced under both schemes.")
}
