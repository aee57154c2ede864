// Subnetmanager: brings a fabric up the way a real InfiniBand subnet
// manager does — with zero out-of-band knowledge. The SM hosted at node 0
// explores the fabric through directed-route NodeInfo probes (learning only
// GUIDs, port counts and link endpoints), recognizes the discovered graph
// as an m-port n-tree from its edges' port numbers alone, assigns every
// endport its LID range over PortInfo SMPs, and programs every switch's
// linear forwarding table in 64-entry blocks.
//
// The result is compared against the oracle subnet manager (which reads the
// topology object directly): the two must agree entry for entry.
//
// Run with:
//
//	go run ./examples/subnetmanager
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"reflect"

	"mlid"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the example to w.
func run(w io.Writer) error {
	tree, err := mlid.NewTree(8, 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "physical fabric: %s\n\n", tree)

	// Bring-up through the management plane only.
	fmt.Fprintln(w, "MAD subnet manager at node 0: explore -> recognize -> address -> program ...")
	madSubnet, err := mlid.ConfigureViaMAD(tree, mlid.MLID(), 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recognized FT(%d,%d): %d nodes, %d switches, LID space %d\n",
		madSubnet.Tree.M(), madSubnet.Tree.N(),
		madSubnet.Tree.Nodes(), madSubnet.Tree.Switches(), madSubnet.LIDSpace())

	// The oracle SM computes the same subnet from the topology object.
	oracle, err := mlid.Configure(tree, mlid.MLID())
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(madSubnet.Endports, oracle.Endports) {
		return errors.New("endport LID ranges differ from the oracle's")
	}
	for s := range madSubnet.LFTs {
		if !reflect.DeepEqual(madSubnet.LFTs[s].Entries(), oracle.LFTs[s].Entries()) {
			return fmt.Errorf("switch %d forwarding table differs from the oracle's", s)
		}
	}
	fmt.Fprintln(w, "verified: MAD-programmed subnet is identical to the oracle subnet")

	// And it routes: drive a quick simulation over the MAD-built subnet.
	res, err := mlid.Simulate(mlid.SimConfig{
		Subnet:      madSubnet,
		Pattern:     mlid.UniformTraffic(madSubnet.Tree.Nodes()),
		OfferedLoad: 0.3,
		Seed:        1,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated on the MAD subnet: accepted %.4f B/ns/node, mean latency %.0f ns\n",
		res.Accepted, res.MeanLatencyNs)
	return nil
}
