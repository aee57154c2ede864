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
	"io"
	"os"

	"mlid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on args, writing to stdout and stderr; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m          = fs.Int("m", 8, "switch port count (power of two >= 4)")
		n          = fs.Int("n", 2, "tree dimension")
		collective = fs.String("collective", "gather", "collective: gather or alltoall")
		bytesPer   = fs.Int("bytes", 4096, "bytes per message")
		root       = fs.Int("root", 0, "root node for the gather")
		vls        = fs.Int("vls", 1, "data virtual lanes")
		seed       = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if err := collect(stdout, *m, *n, *collective, *bytesPer, *root, *vls, *seed); err != nil {
		fmt.Fprintln(stderr, "ibcollective:", err)
		return 1
	}
	return 0
}

// collect runs the chosen exchange under both schemes and prints the
// makespan table.
func collect(w io.Writer, m, n int, collective string, bytesPer, root, vls int, seed int64) error {
	tree, err := mlid.NewTree(m, n)
	if err != nil {
		return err
	}

	var msgs []mlid.Message
	switch collective {
	case "gather":
		if root < 0 || root >= tree.Nodes() {
			return fmt.Errorf("root %d out of range [0,%d)", root, tree.Nodes())
		}
		msgs = mlid.GatherMessages(tree, mlid.NodeID(root), bytesPer)
	case "alltoall":
		msgs = mlid.AllToAllMessages(tree, bytesPer)
	default:
		return fmt.Errorf("unknown collective %q", collective)
	}

	fmt.Fprintf(w, "%s, %s of %d bytes/message (%d messages), %d VL(s)\n\n",
		tree, collective, bytesPer, len(msgs), vls)
	fmt.Fprintf(w, "%-7s %14s %12s %16s %14s\n", "scheme", "makespan", "packets", "aggregate BW", "mean latency")
	var spans []int64
	for _, scheme := range []mlid.Scheme{mlid.SLID(), mlid.MLID()} {
		subnet, err := mlid.Configure(tree, scheme)
		if err != nil {
			return err
		}
		res, err := mlid.SimulateBatch(mlid.SimConfig{
			Subnet:   subnet,
			Messages: msgs,
			DataVLs:  vls,
			Seed:     seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-7s %11d ns %12d %11.2f B/ns %11.0f ns\n",
			scheme.Name(), res.MakespanNs, res.Packets, res.AggregateBandwidth, res.MeanLatencyNs)
		spans = append(spans, res.MakespanNs)
	}
	if len(spans) == 2 && spans[1] > 0 {
		fmt.Fprintf(w, "\nMLID speedup over SLID: %.2fx\n", float64(spans[0])/float64(spans[1]))
	}
	return nil
}
