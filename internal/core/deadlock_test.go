// These tests live in the external test package so that they can drive the
// facade's credit-loop checker, which imports core.
package core_test

import (
	"testing"

	"mlid"
	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
)

// TestDeadlockFreeBothSchemes: the up*/down* discipline of both schemes'
// tables yields an acyclic channel-dependency graph on every test fabric.
func TestDeadlockFreeBothSchemes(t *testing.T) {
	for _, dims := range [][2]int{{4, 1}, {4, 2}, {4, 3}, {8, 2}, {8, 3}} {
		tr := topology.MustNew(dims[0], dims[1])
		for _, s := range core.Schemes() {
			sn, err := (&ib.SubnetManager{Tree: tr, Engine: s}).Configure()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := mlid.CheckDeadlockFree(sn)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Free() {
				t.Fatalf("%s %s: dependency cycle %v", tr, s.Name(), rep.Cycle)
			}
			if rep.Channels == 0 {
				t.Fatalf("%s %s: no channels", tr, s.Name())
			}
			// A single-switch fabric has one-hop routes and hence no
			// dependencies at all; taller trees must have some.
			if tr.N() >= 2 && rep.Dependencies == 0 {
				t.Fatalf("%s %s: empty dependency graph", tr, s.Name())
			}
		}
	}
}

// TestDeadlockDetectedInCyclicTables: rewiring two forwarding entries to
// create a down-then-up route (an up*/down* violation) must surface a cycle.
func TestDeadlockDetectedInCyclicTables(t *testing.T) {
	tr := topology.MustNew(4, 2)
	sn, err := (&ib.SubnetManager{Tree: tr, Engine: core.NewSLID()}).Configure()
	if err != nil {
		t.Fatal(err)
	}
	// Build a cyclic dependency among the roots and two leaves:
	// route LID 1 (node 0, leaf A) so that packets entering root R descend
	// to leaf B and climb back up through root Q. With SLID, node 0's LID
	// is 1 and its leaf is A = attachment of node 0.
	leafA, _ := tr.NodeAttachment(0)
	// Choose the two roots.
	roots := tr.SwitchesWithPrefix(nil, 0)
	r0, r1 := roots[0], roots[1]
	// Leaf B: a different leaf.
	leafB, _ := tr.NodeAttachment(topology.NodeID(tr.Nodes() - 1))

	set := func(sw topology.SwitchID, lid ib.LID, abstract int) {
		if err := sn.LFTs[sw].Set(lid, uint8(abstract+1)); err != nil {
			t.Fatal(err)
		}
	}
	// At root r0, send LID 1 down to leaf B (instead of toward leaf A).
	// Find r0's port to leafB.
	portTo := func(from, to topology.SwitchID) int {
		for k := 0; k < tr.M(); k++ {
			ref := tr.SwitchNeighbor(from, k)
			if ref.Kind == topology.KindSwitch && ref.Switch == to {
				return k
			}
		}
		t.Fatalf("no link %d->%d", from, to)
		return -1
	}
	set(r0, 1, portTo(r0, leafB))
	// At leaf B, send LID 1 back up through r1.
	set(leafB, 1, portTo(leafB, r1))
	// At r1, continue toward leaf A (correct descent) — also route another
	// LID of leaf B's node through the reverse direction to close a cycle:
	// LID of node N-1 (= N) at r1 goes down to leaf A, and leaf A sends it
	// up through r0.
	lidB := ib.LID(tr.Nodes())
	set(r1, lidB, portTo(r1, leafA))
	set(leafA, lidB, portTo(leafA, r0)+0)
	// Ensure leafA's up port used is toward r0: portTo gives that.
	// Now: leafA->r0 (lidB climbing) ... r0->leafB (lid1) ... leafB->r1
	// (lid1) ... r1->leafA (lidB): a 4-channel cycle.

	rep, err := mlid.CheckDeadlockFree(sn)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Free() {
		t.Fatal("cyclic tables reported deadlock free")
	}
	if len(rep.Cycle) < 3 {
		t.Fatalf("implausible cycle %v", rep.Cycle)
	}
}

// TestDeadlockCheckRepairedSubnet: the fault-repair rewrites stay within
// up*/down*, so repaired tables remain deadlock free.
func TestDeadlockCheckRepairedSubnet(t *testing.T) {
	tr := topology.MustNew(8, 2)
	sn, err := (&ib.SubnetManager{Tree: tr, Engine: core.NewMLID()}).Configure()
	if err != nil {
		t.Fatal(err)
	}
	faults := core.NewFaultSet()
	leaf, _ := tr.NodeAttachment(0)
	faults.FailLink(tr, leaf, tr.DownPorts(leaf))
	if _, _, err := core.RepairSubnet(sn, faults); err != nil {
		t.Fatal(err)
	}
	rep, err := mlid.CheckDeadlockFree(sn)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Free() {
		t.Fatalf("repaired subnet has cycle %v", rep.Cycle)
	}
}
