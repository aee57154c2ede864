// Command ibcollective measures collective-exchange makespans as closed
// workloads: all messages enqueued at time zero, the run ends when the
// fabric drains.
//
// Examples:
//
//	ibcollective -m 8 -n 2 -collective gather -bytes 4096
//	ibcollective -m 8 -n 3 -collective alltoall -bytes 1024 -vls 2
package main

import (
	"flag"
	"fmt"
	"os"

	"mlid"
)

func main() {
	var (
		m          = flag.Int("m", 8, "switch port count (power of two >= 4)")
		n          = flag.Int("n", 2, "tree dimension")
		collective = flag.String("collective", "gather", "collective: gather or alltoall")
		bytesPer   = flag.Int("bytes", 4096, "bytes per message")
		root       = flag.Int("root", 0, "root node for the gather")
		vls        = flag.Int("vls", 1, "data virtual lanes")
		seed       = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	tree, err := mlid.NewTree(*m, *n)
	fatal(err)

	var msgs []mlid.Message
	switch *collective {
	case "gather":
		if *root < 0 || *root >= tree.Nodes() {
			fatal(fmt.Errorf("root %d out of range [0,%d)", *root, tree.Nodes()))
		}
		msgs = mlid.GatherMessages(tree, mlid.NodeID(*root), *bytesPer)
	case "alltoall":
		msgs = mlid.AllToAllMessages(tree, *bytesPer)
	default:
		fatal(fmt.Errorf("unknown collective %q", *collective))
	}

	fmt.Printf("%s, %s of %d bytes/message (%d messages), %d VL(s)\n\n",
		tree, *collective, *bytesPer, len(msgs), *vls)
	fmt.Printf("%-7s %14s %12s %16s %14s\n", "scheme", "makespan", "packets", "aggregate BW", "mean latency")
	var spans []int64
	for _, scheme := range []mlid.Scheme{mlid.SLID(), mlid.MLID()} {
		subnet, err := mlid.Configure(tree, scheme)
		fatal(err)
		res, err := mlid.SimulateBatch(mlid.SimConfig{
			Subnet:   subnet,
			Messages: msgs,
			DataVLs:  *vls,
			Seed:     *seed,
		})
		fatal(err)
		fmt.Printf("%-7s %11d ns %12d %11.2f B/ns %11.0f ns\n",
			scheme.Name(), res.MakespanNs, res.Packets, res.AggregateBandwidth, res.MeanLatencyNs)
		spans = append(spans, res.MakespanNs)
	}
	if len(spans) == 2 && spans[1] > 0 {
		fmt.Printf("\nMLID speedup over SLID: %.2fx\n", float64(spans[0])/float64(spans[1]))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibcollective:", err)
		os.Exit(1)
	}
}
