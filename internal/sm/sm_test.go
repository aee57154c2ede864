package sm

import (
	"reflect"
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
)

// TestMADConfigureEqualsOracle is the headline test of the management plane:
// the MAD-based subnet manager — which sees only GUIDs, port counts and
// SMP responses — must produce exactly the subnet the oracle SM computes
// from the topology object: same endport LID ranges, same forwarding table
// in every switch.
func TestMADConfigureEqualsOracle(t *testing.T) {
	for _, dims := range [][2]int{{4, 1}, {4, 2}, {4, 3}, {8, 2}, {8, 3}, {16, 2}} {
		tr := topology.MustNew(dims[0], dims[1])
		for _, scheme := range core.Schemes() {
			oracle, err := (&ib.SubnetManager{Tree: tr, Engine: scheme}).Configure()
			if err != nil {
				t.Fatal(err)
			}
			mad := &MADSubnetManager{
				Fabric: ib.NewSMAFabric(tr),
				Origin: 0,
				Engine: scheme,
			}
			got, err := mad.Configure()
			if err != nil {
				t.Fatalf("%s %s: %v", tr, scheme.Name(), err)
			}
			if got.Tree.M() != tr.M() || got.Tree.N() != tr.N() {
				t.Fatalf("%s %s: recognized FT(%d,%d)", tr, scheme.Name(), got.Tree.M(), got.Tree.N())
			}
			if !reflect.DeepEqual(got.Endports, oracle.Endports) {
				t.Fatalf("%s %s: endport ranges differ", tr, scheme.Name())
			}
			for s := range got.LFTs {
				a, b := got.LFTs[s].Entries(), oracle.LFTs[s].Entries()
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s %s: switch %d LFT differs", tr, scheme.Name(), s)
				}
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s %s: %v", tr, scheme.Name(), err)
			}
		}
	}
}

// TestMADConfigureFromAnyOrigin: the bring-up must not depend on which CA
// hosts the subnet manager.
func TestMADConfigureFromAnyOrigin(t *testing.T) {
	tr := topology.MustNew(4, 2)
	var base *ib.Subnet
	for origin := 0; origin < tr.Nodes(); origin++ {
		mad := &MADSubnetManager{Fabric: ib.NewSMAFabric(tr), Origin: topology.NodeID(origin), Engine: core.NewMLID()}
		sn, err := mad.Configure()
		if err != nil {
			t.Fatalf("origin %d: %v", origin, err)
		}
		if base == nil {
			base = sn
			continue
		}
		if !reflect.DeepEqual(sn.Endports, base.Endports) {
			t.Fatalf("origin %d: endports differ", origin)
		}
		for s := range sn.LFTs {
			if !reflect.DeepEqual(sn.LFTs[s].Entries(), base.LFTs[s].Entries()) {
				t.Fatalf("origin %d: switch %d LFT differs", origin, s)
			}
		}
	}
}

// TestMADConfigureAgentsHoldState: after the bring-up the device agents
// themselves carry the configuration (not just the SM's local copy).
func TestMADConfigureAgentsHoldState(t *testing.T) {
	tr := topology.MustNew(8, 2)
	fabric := ib.NewSMAFabric(tr)
	mad := &MADSubnetManager{Fabric: fabric, Origin: 3, Engine: core.NewMLID()}
	sn, err := mad.Configure()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < tr.Nodes(); p++ {
		pi := fabric.NodeAgent(topology.NodeID(p)).PortInfo()
		if pi.LID != sn.Endports[p].Base || pi.LMC != sn.Endports[p].LMC {
			t.Fatalf("node %d agent holds %v, subnet says %v", p, pi, sn.Endports[p])
		}
	}
	for s := 0; s < tr.Switches(); s++ {
		agentLFT := fabric.SwitchAgent(topology.SwitchID(s)).LFT()
		for lid := 1; lid < sn.LIDSpace(); lid++ {
			want, werr := sn.LFTs[s].Lookup(ib.LID(lid))
			got, gerr := agentLFT.Lookup(ib.LID(lid))
			if (werr == nil) != (gerr == nil) || (werr == nil && want != got) {
				t.Fatalf("switch %d lid %d: agent %d/%v, subnet %d/%v", s, lid, got, gerr, want, werr)
			}
		}
	}
}

// TestMADConfigureRejectsOversizedScheme: LMC overflow surfaces through the
// MAD path as well.
func TestMADConfigureRejectsOversizedScheme(t *testing.T) {
	tr := topology.MustNew(8, 5) // MLID needs LMC 8 > 7
	mad := &MADSubnetManager{Fabric: ib.NewSMAFabric(tr), Origin: 0, Engine: core.NewMLID()}
	if _, err := mad.Configure(); err == nil || !strings.Contains(err.Error(), "LMC") {
		t.Fatalf("expected LMC error, got %v", err)
	}
}

// TestMADSubnetRoutesEndToEnd: packets forwarded by the MAD-programmed
// tables reach their destinations.
func TestMADSubnetRoutesEndToEnd(t *testing.T) {
	tr := topology.MustNew(4, 3)
	mad := &MADSubnetManager{Fabric: ib.NewSMAFabric(tr), Origin: 0, Engine: core.NewMLID()}
	sn, err := mad.Configure()
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < tr.Nodes(); a++ {
		for b := 0; b < tr.Nodes(); b++ {
			if a == b {
				continue
			}
			dlid := sn.DLID(topology.NodeID(a), topology.NodeID(b))
			p, err := core.TraceSubnet(sn, topology.NodeID(a), dlid)
			if err != nil {
				t.Fatal(err)
			}
			if p.Dst != topology.NodeID(b) {
				t.Fatalf("%d->%d delivered to %d", a, b, p.Dst)
			}
		}
	}
}

// TestBringupStats: the SMP counts of a bring-up match the closed forms —
// probes = 2 + switches*m (origin, first switch, then every switch port),
// and per-switch programming is 1 SwitchInfo + ceil(space/64) LFT sets plus
// the same number of read-back gets.
func TestBringupStats(t *testing.T) {
	tr := topology.MustNew(8, 2)
	mad := &MADSubnetManager{Fabric: ib.NewSMAFabric(tr), Origin: 0, Engine: core.NewMLID()}
	sn, err := mad.Configure()
	if err != nil {
		t.Fatal(err)
	}
	st := mad.Stats
	wantProbes := 2 + tr.Switches()*tr.M()
	if st.Probes != wantProbes {
		t.Errorf("probes %d, want %d", st.Probes, wantProbes)
	}
	blocks := (sn.LIDSpace() + ib.LFTBlockSize - 1) / ib.LFTBlockSize
	wantSets := tr.Nodes() + tr.Switches()*(1+blocks)
	if st.Sets != wantSets {
		t.Errorf("sets %d, want %d", st.Sets, wantSets)
	}
	wantGets := tr.Nodes() + tr.Switches()*blocks
	if st.Gets != wantGets {
		t.Errorf("gets %d, want %d", st.Gets, wantGets)
	}
	if st.MaxHops < tr.N()+1 || st.MaxHops >= 2*(tr.N()+1)+1 {
		t.Errorf("max hops %d implausible for height %d", st.MaxHops, tr.N()+1)
	}
	if st.Total() != st.Probes+st.Gets+st.Sets {
		t.Error("Total mismatch")
	}
}

// corruptingFabric passes SMPs to the device agents and alters the response
// to the first Get of one attribute that carries routed state: a CA's LID,
// or an LFT block with a routed entry.
type corruptingFabric struct {
	*ib.SMAFabric
	attr ib.Attribute
	done bool
}

func (f *corruptingFabric) Send(origin topology.NodeID, smp *ib.SMP) error {
	get := smp.Method == ib.MethodGet
	if err := f.SMAFabric.Send(origin, smp); err != nil || f.done || !get || smp.Attribute != f.attr {
		return err
	}
	switch f.attr {
	case ib.AttrPortInfo:
		pi := ib.DecodePortInfo(&smp.Data)
		pi.LID++
		pi.Encode(&smp.Data)
		f.done = true
	case ib.AttrLFTBlock:
		b := ib.DecodeLFTBlock(&smp.Data)
		for i, p := range b.Ports {
			if p != ib.PortNone {
				b.Ports[i] = ib.PortNone
				b.Encode(&smp.Data)
				f.done = true
				break
			}
		}
	}
	return nil
}

// TestMADConfigureReadBackMismatch: a device that answers a read-back Get
// with state other than the SM wrote fails the bring-up, for an endport's
// PortInfo and for a switch's LFT block alike.
func TestMADConfigureReadBackMismatch(t *testing.T) {
	for _, tc := range []struct {
		attr ib.Attribute
		want string
	}{
		{ib.AttrPortInfo, "sm: CA 0x"},
		{ib.AttrLFTBlock, "sm: switch 0x"},
	} {
		tr := topology.MustNew(4, 2)
		fabric := &corruptingFabric{SMAFabric: ib.NewSMAFabric(tr), attr: tc.attr}
		mad := &MADSubnetManager{Fabric: fabric, Origin: 0, Engine: core.NewMLID()}
		_, err := mad.Configure()
		if !fabric.done {
			t.Fatalf("%s: no response was altered", tc.attr)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "read-back mismatch") {
			t.Errorf("%s: Configure error %v, want a %q read-back mismatch", tc.attr, err, tc.want)
		}
	}
}
