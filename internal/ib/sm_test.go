package ib_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
)

// configureFabrics are the fabrics both schemes are configured on: the
// single switch, the paper's networks and a deep FT(4,4).
var configureFabrics = [][2]int{{4, 1}, {4, 2}, {4, 3}, {4, 4}, {8, 2}, {8, 3}, {16, 2}}

func TestConfigureBothSchemes(t *testing.T) {
	for _, dims := range configureFabrics {
		tr := topology.MustNew(dims[0], dims[1])
		for _, s := range core.Schemes() {
			sm := &ib.SubnetManager{Tree: tr, Engine: s}
			sn, err := sm.Configure()
			if err != nil {
				t.Fatalf("%s %s: %v", tr, s.Name(), err)
			}
			if err := sn.Validate(); err != nil {
				t.Fatalf("%s %s: validate: %v", tr, s.Name(), err)
			}
			// Every endport range matches the engine.
			for p := 0; p < tr.Nodes(); p++ {
				r := sn.Endports[p]
				if r.Base != s.BaseLID(tr, topology.NodeID(p)) || r.LMC != s.LMC(tr) {
					t.Fatalf("%s %s node %d: range %v", tr, s.Name(), p, r)
				}
				own, ok := sn.OwnerOf(r.Base)
				if !ok || own != topology.NodeID(p) {
					t.Fatalf("%s %s: OwnerOf(%d) = %d,%v", tr, s.Name(), r.Base, own, ok)
				}
			}
			if _, ok := sn.OwnerOf(0); ok {
				t.Fatalf("%s %s: LID 0 has an owner", tr, s.Name())
			}
		}
	}
}

// TestLFTMatchesEngine checks the tables the engines fill a row at a time
// agree entry by entry with the scheme's per-hop closed form, modulo the
// abstract->physical port shift, on every configured fabric and FT(32,2).
func TestLFTMatchesEngine(t *testing.T) {
	for _, dims := range append(configureFabrics, [2]int{32, 2}) {
		tr := topology.MustNew(dims[0], dims[1])
		for _, s := range core.Schemes() {
			sn, err := (&ib.SubnetManager{Tree: tr, Engine: s}).Configure()
			if err != nil {
				t.Fatal(err)
			}
			for sw := 0; sw < tr.Switches(); sw++ {
				for lid := 1; lid < sn.LIDSpace(); lid++ {
					abstract, ok := s.OutPortAbstract(tr, topology.SwitchID(sw), ib.LID(lid))
					phys := sn.LFTs[sw].Port(ib.LID(lid))
					if _, owned := sn.OwnerOf(ib.LID(lid)); !owned || !ok {
						if phys != ib.PortNone {
							t.Fatalf("%s %s sw%d lid%d: routes to %d what the engine does not (owned %v, engine ok %v)",
								tr, s.Name(), sw, lid, phys, owned, ok)
						}
						continue
					}
					if int(phys) != abstract+1 {
						t.Fatalf("%s %s sw%d lid%d: table %d, engine abstract %d", tr, s.Name(), sw, lid, phys, abstract)
					}
				}
			}
		}
	}
}

// TestConfigureRejectsLMCTooLarge: FT(8,5) needs LMC = 4*log2(4) = 8 > 7.
func TestConfigureRejectsLMCTooLarge(t *testing.T) {
	tr := topology.MustNew(8, 5)
	_, err := (&ib.SubnetManager{Tree: tr, Engine: core.NewMLID()}).Configure()
	if err == nil || !strings.Contains(err.Error(), "LMC") {
		t.Fatalf("expected LMC error, got %v", err)
	}
	// The SLID baseline still configures (LMC 0).
	if _, err := (&ib.SubnetManager{Tree: tr, Engine: core.NewSLID()}).Configure(); err != nil {
		t.Fatalf("SLID on FT(8,5): %v", err)
	}
}

// TestConfigureRejectsLIDSpaceOverflow: FT(16,3) under MLID needs
// 1024*64 + 1 = 65537 LIDs, one more than the 16-bit space. The failure is
// the typed ib.ErrLIDSpaceExhausted — never a silent truncation (ib.LID is
// uint16, so an unchecked BaseLID would wrap around) and never a panic —
// and the message still names the sizes for humans. SLID (one LID per node)
// configures the same fabric fine.
func TestConfigureRejectsLIDSpaceOverflow(t *testing.T) {
	tr := topology.MustNew(16, 3)
	_, err := (&ib.SubnetManager{Tree: tr, Engine: core.NewMLID()}).Configure()
	if err == nil || !errors.Is(err, ib.ErrLIDSpaceExhausted) {
		t.Fatalf("expected ErrLIDSpaceExhausted, got %v", err)
	}
	if !strings.Contains(err.Error(), "65537") || !strings.Contains(err.Error(), "16-bit") {
		t.Fatalf("overflow error should name the sizes, got %v", err)
	}
	if _, err := (&ib.SubnetManager{Tree: tr, Engine: core.NewSLID()}).Configure(); err != nil {
		t.Fatalf("SLID on FT(16,3): %v", err)
	}
}

// TestSubnetDLIDDelivery: for every pair, looking up the subnet's forwarding
// tables hop by hop delivers the packet to the destination. This exercises
// the physical-port path (LFT entries), not the engine shortcut.
func TestSubnetDLIDDelivery(t *testing.T) {
	for _, dims := range [][2]int{{4, 2}, {4, 3}, {8, 2}} {
		tr := topology.MustNew(dims[0], dims[1])
		for _, s := range core.Schemes() {
			sn, err := (&ib.SubnetManager{Tree: tr, Engine: s}).Configure()
			if err != nil {
				t.Fatal(err)
			}
			for a := 0; a < tr.Nodes(); a++ {
				for b := 0; b < tr.Nodes(); b++ {
					if a == b {
						continue
					}
					dlid := sn.DLID(topology.NodeID(a), topology.NodeID(b))
					sw, _ := tr.NodeAttachment(topology.NodeID(a))
					var arrived topology.NodeID = -1
					for hop := 0; hop < 2*tr.N()+2; hop++ {
						phys, err := sn.OutPort(sw, dlid)
						if err != nil {
							t.Fatalf("%s %s: %v", tr, s.Name(), err)
						}
						ref := tr.SwitchNeighbor(sw, int(phys)-1)
						if ref.Kind == topology.KindNode {
							arrived = ref.Node
							break
						}
						sw = ref.Switch
					}
					if arrived != topology.NodeID(b) {
						t.Fatalf("%s %s: %d->%d arrived at %d", tr, s.Name(), a, b, arrived)
					}
				}
			}
		}
	}
}

// BenchmarkSubnetConfigure measures the subnet manager's plan (LID
// assignment and forwarding-table computation) per scheme on the paper's
// four networks.
func BenchmarkSubnetConfigure(b *testing.B) {
	for _, nw := range [][2]int{{4, 4}, {8, 3}, {16, 2}, {32, 2}} {
		tr := topology.MustNew(nw[0], nw[1])
		for _, s := range core.Schemes() {
			b.Run(fmt.Sprintf("%d-port_%d-tree/%s", nw[0], nw[1], s.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := (&ib.SubnetManager{Tree: tr, Engine: s}).Configure(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
