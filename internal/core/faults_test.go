package core

import (
	"testing"

	"mlid/internal/topology"
)

// blocked reports whether the path crosses a failed link: an independent
// check, over the recorded hops, of the verdict the selection walk reaches.
func blocked(faults *FaultSet, p Path) bool {
	for _, h := range p.Hops {
		if faults.Dead(h.Switch, h.OutPort) || faults.Dead(h.Switch, h.InPort) {
			return true
		}
	}
	return false
}

func TestSelectDLIDHealthyFabric(t *testing.T) {
	tr := topology.MustNew(4, 3)
	for _, s := range Schemes() {
		lid, p, ok := SelectDLID(tr, s, 0, 9, nil)
		if !ok {
			t.Fatalf("%s: no path on healthy fabric", s.Name())
		}
		if lid != s.DLID(tr, 0, 9) {
			t.Fatalf("%s: healthy selection %d != canonical %d", s.Name(), lid, s.DLID(tr, 0, 9))
		}
		if p.Dst != 9 {
			t.Fatalf("%s: delivered to %d", s.Name(), p.Dst)
		}
	}
}

// TestMLIDSurvivesSingleUpLinkFault: failing the canonical path's first
// ascending link leaves MLID with alternatives but strands SLID for the pairs
// that crossed it.
func TestMLIDSurvivesSingleUpLinkFault(t *testing.T) {
	tr := topology.MustNew(4, 3)
	src, dst := topology.NodeID(0), topology.NodeID(9)

	for _, s := range Schemes() {
		canonical, err := Trace(tr, s, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		// Fail the first ascending hop of the canonical path.
		faults := NewFaultSet()
		h := canonical.Hops[0]
		faults.FailLink(tr, h.Switch, h.OutPort)
		if faults.Len() == 0 {
			t.Fatal("FailLink registered nothing")
		}

		lid, p, ok := SelectDLID(tr, s, src, dst, faults)
		switch s.Name() {
		case "MLID":
			if !ok {
				t.Fatal("MLID: no surviving path after one up-link fault")
			}
			if lid == s.DLID(tr, src, dst) {
				t.Fatal("MLID: returned the canonical (blocked) DLID")
			}
			if blocked(faults, p) {
				t.Fatal("MLID: returned a blocked path")
			}
			if p.Dst != dst {
				t.Fatalf("MLID: delivered to %d", p.Dst)
			}
		case "SLID":
			if ok {
				t.Fatal("SLID: claims a surviving path with its only route cut")
			}
		}
	}
}

// TestReachabilityUnderFaults quantifies the comparison: with one root-level
// link down, MLID keeps all pairs reachable while SLID loses some.
func TestReachabilityUnderFaults(t *testing.T) {
	tr := topology.MustNew(4, 3)
	faults := NewFaultSet()
	// Fail a root's first down link.
	roots := tr.SwitchesWithPrefix(nil, 0)
	faults.FailLink(tr, roots[0], 0)

	mServed, total, err := Reachability(tr, NewMLID(), faults)
	if err != nil {
		t.Fatal(err)
	}
	sServed, _, err := Reachability(tr, NewSLID(), faults)
	if err != nil {
		t.Fatal(err)
	}
	if mServed != total {
		t.Fatalf("MLID served %d/%d with one faulty root link", mServed, total)
	}
	if sServed >= total {
		t.Fatalf("SLID served %d/%d — expected losses", sServed, total)
	}
}

// TestReachabilityLeafFaultStrandsBoth: cutting a node's only attachment link
// strands that node under any scheme.
func TestReachabilityLeafFaultStrandsBoth(t *testing.T) {
	tr := topology.MustNew(4, 2)
	sw, port := tr.NodeAttachment(3)
	faults := NewFaultSet()
	faults.FailLink(tr, sw, port)
	for _, s := range Schemes() {
		served, total, err := Reachability(tr, s, faults)
		if err != nil {
			t.Fatal(err)
		}
		// Node 3 is unreachable as destination and blocked as source:
		// 2*(N-1) pairs lost.
		want := total - 2*(tr.Nodes()-1)
		if served != want {
			t.Fatalf("%s: served %d, want %d", s.Name(), served, want)
		}
	}
}
