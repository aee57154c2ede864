package sim

import (
	"reflect"
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// findSwitch returns the first switch of the tree at the given level.
func findSwitch(t *testing.T, tr *topology.Tree, level int) int32 {
	t.Helper()
	for sw := 0; sw < tr.Switches(); sw++ {
		if tr.SwitchLevel(topology.SwitchID(sw)) == level {
			return int32(sw)
		}
	}
	t.Fatalf("no switch at level %d", level)
	return -1
}

// TestSwitchFaultRootOutage kills one root switch atomically — every port
// down at the same instant, one shared trap — and revives it later. In
// FT(4,2) the second root keeps every destination reachable, so MLID with
// reselection rides through, and revival restores the fabric.
func TestSwitchFaultRootOutage(t *testing.T) {
	cfg := faultCfg(t, core.NewMLID(), nil)
	root := findSwitch(t, cfg.Subnet.Tree, 0)
	cfg.FaultPlan = &FaultPlan{
		SwitchFaults: []SwitchFault{{Switch: root, DownNs: 40_000, UpNs: 80_000}},
		Reselect:     true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstFaultNs != 40_000 {
		t.Errorf("FirstFaultNs = %d, want 40000", res.FirstFaultNs)
	}
	if res.DroppedTotal == 0 {
		t.Error("killing a root switch dropped nothing")
	}
	if res.Reroutes == 0 {
		t.Error("no reroutes: reselection never steered off the dead root")
	}
	if got := res.TotalDelivered + res.DroppedTotal + res.InFlightAtEnd; got != res.TotalGenerated {
		t.Errorf("conservation: delivered+dropped+inflight = %d, generated = %d", got, res.TotalGenerated)
	}
	// Atomic outage: the switch's ports must all die at the same instant —
	// no drop may be recorded between the first down event and the fault
	// time itself (they coincide).
	if res.LastDropNs <= 40_000 {
		t.Errorf("LastDropNs = %d: drops should continue past the fault instant", res.LastDropNs)
	}

	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Error("switch-fault run is not deterministic")
	}
}

// TestSwitchFaultLeafWithTransport kills a leaf switch — severing its
// attached nodes entirely — then revives it. With the reliable transport on,
// traffic to the severed nodes retries through the outage and succeeds after
// revival: zero silent loss, zero failures, nothing left in flight.
func TestSwitchFaultLeafWithTransport(t *testing.T) {
	cfg := faultCfg(t, core.NewMLID(), nil)
	leaf := findSwitch(t, cfg.Subnet.Tree, cfg.Subnet.Tree.N()-1)
	cfg.FaultPlan = &FaultPlan{
		SwitchFaults: []SwitchFault{{Switch: leaf, DownNs: 40_000, UpNs: 80_000}},
		Reselect:     true,
	}
	cfg.Transport = &TransportConfig{DrainNs: 500_000}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmits == 0 {
		t.Fatal("no retransmissions across a 40us leaf outage")
	}
	if res.Failed != 0 {
		t.Errorf("Failed = %d, want 0: the leaf revives well within the retry budget", res.Failed)
	}
	if res.InFlightAtEnd != 0 {
		t.Errorf("InFlightAtEnd = %d, want 0", res.InFlightAtEnd)
	}
	if res.LastRecoveredNs < 80_000 {
		t.Errorf("LastRecoveredNs = %d, want after the revival at 80000", res.LastRecoveredNs)
	}
	if got := res.TotalDelivered + res.Failed + res.InFlightAtEnd; got != res.TotalGenerated {
		t.Errorf("conservation: delivered+failed+inflight = %d, generated = %d", got, res.TotalGenerated)
	}
}

// TestFaultPlanValidationExtended exercises the up-front plan validation:
// unknown names, inversions, duplicate events at the same instant, and
// overlapping outages — including a link fault colliding with a switch fault
// that covers the same link, and the same link addressed from both ends.
func TestFaultPlanValidationExtended(t *testing.T) {
	cfg := faultCfg(t, core.NewMLID(), nil)
	tr := cfg.Subnet.Tree
	// The peer endpoint of the canonical (switch 2, port 2) spine link.
	peer := tr.SwitchNeighbor(topology.SwitchID(2), 2)
	if peer.Kind != topology.KindSwitch {
		t.Fatalf("switch 2 port 2 is not an inter-switch link")
	}
	cases := []struct {
		name string
		plan *FaultPlan
		want string
	}{
		{
			"unknown switch",
			&FaultPlan{SwitchFaults: []SwitchFault{{Switch: 99, DownNs: 1}}},
			"invalid switch",
		},
		{
			"switch up before down",
			&FaultPlan{SwitchFaults: []SwitchFault{{Switch: 0, DownNs: 10, UpNs: 5}}},
			"not after its failure",
		},
		{
			"duplicate link events at the same instant",
			&FaultPlan{Faults: []LinkFault{
				{Switch: 2, Port: 2, DownNs: 10},
				{Switch: 2, Port: 2, DownNs: 10},
			}},
			"same instant",
		},
		{
			"same link from both ends",
			&FaultPlan{Faults: []LinkFault{
				{Switch: 2, Port: 2, DownNs: 10},
				{Switch: int32(peer.Switch), Port: peer.Port, DownNs: 10},
			}},
			"same instant",
		},
		{
			"overlapping outages",
			&FaultPlan{Faults: []LinkFault{
				{Switch: 2, Port: 2, DownNs: 10, UpNs: 50},
				{Switch: 2, Port: 2, DownNs: 30, UpNs: 70},
			}},
			"overlaps",
		},
		{
			"event after forever-down",
			&FaultPlan{Faults: []LinkFault{
				{Switch: 2, Port: 2, DownNs: 10},
				{Switch: 2, Port: 2, DownNs: 50, UpNs: 60},
			}},
			"forever",
		},
		{
			"revive and kill at the same instant",
			&FaultPlan{Faults: []LinkFault{
				{Switch: 2, Port: 2, DownNs: 10, UpNs: 50},
				{Switch: 2, Port: 2, DownNs: 50, UpNs: 60},
			}},
			"same instant",
		},
		{
			"link fault inside a switch fault",
			&FaultPlan{
				Faults:       []LinkFault{{Switch: 2, Port: 2, DownNs: 30, UpNs: 40}},
				SwitchFaults: []SwitchFault{{Switch: 2, DownNs: 10, UpNs: 50}},
			},
			"overlaps",
		},
	}
	for _, c := range cases {
		_, err := Run(faultCfg(t, core.NewMLID(), c.plan))
		if err == nil {
			t.Errorf("%s: plan accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// Disjoint outages of the same link in succession are fine.
	ok := &FaultPlan{Faults: []LinkFault{
		{Switch: 2, Port: 2, DownNs: 30_000, UpNs: 50_000},
		{Switch: 2, Port: 2, DownNs: 60_000, UpNs: 70_000},
	}}
	if _, err := Run(faultCfg(t, core.NewMLID(), ok)); err != nil {
		t.Errorf("disjoint repeated outages rejected: %v", err)
	}
}

// TestSwitchFaultAdjacentPair fails two adjacent non-leaf switches with one
// window, the shape the degraded study's switch axis can draw: the plan
// validates, the shared link goes down once, and the run conserves packets
// exactly. Every other overlap on the shared link stays rejected.
func TestSwitchFaultAdjacentPair(t *testing.T) {
	cfg := faultCfg(t, core.NewMLID(), nil)
	cfg.Subnet = mustSubnet(t, 4, 3, core.NewMLID())
	cfg.Pattern = traffic.Uniform{Nodes: cfg.Subnet.Tree.Nodes()}
	tr := cfg.Subnet.Tree
	mid := findSwitch(t, tr, 1)
	top := int32(-1)
	for port := 0; port < tr.M() && top < 0; port++ {
		ref := tr.SwitchNeighbor(topology.SwitchID(mid), port)
		if ref.Kind == topology.KindSwitch && tr.SwitchLevel(ref.Switch) == 0 {
			top = int32(ref.Switch)
		}
	}
	if top < 0 {
		t.Fatalf("switch %d has no root neighbor", mid)
	}
	cfg.FaultPlan = &FaultPlan{
		SwitchFaults: []SwitchFault{
			{Switch: mid, DownNs: 30_000, UpNs: 70_000},
			{Switch: top, DownNs: 30_000, UpNs: 70_000},
		},
		Reselect: true,
	}

	s := build(cfg.withDefaults())
	s.scheduleFaults()
	downs := 0
	for {
		ev, ok := s.pop(1 << 40)
		if !ok {
			break
		}
		if ev.kind == evLinkDown {
			downs++
		}
	}
	if want := 2*tr.M() - 1; downs != want {
		t.Errorf("scheduled %d link-down events, want %d (the shared link once)", downs, want)
	}

	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("adjacent pair with one window rejected: %v", err)
	}
	if res.DroppedTotal == 0 {
		t.Error("the outage dropped nothing")
	}
	if got := res.TotalDelivered + res.DroppedTotal + res.InFlightAtEnd; got != res.TotalGenerated {
		t.Errorf("conservation: delivered+dropped+inflight = %d, generated = %d", got, res.TotalGenerated)
	}
	if again, err := Run(cfg); err != nil || !reflect.DeepEqual(res, again) {
		t.Errorf("same adjacent-pair config, different results (err %v)", err)
	}

	for _, c := range []struct {
		name   string
		faults []SwitchFault
		want   string
	}{
		{"different windows", []SwitchFault{
			{Switch: mid, DownNs: 30_000, UpNs: 70_000},
			{Switch: top, DownNs: 40_000, UpNs: 80_000},
		}, "overlaps"},
		{"same switch twice", []SwitchFault{
			{Switch: mid, DownNs: 30_000, UpNs: 70_000},
			{Switch: mid, DownNs: 30_000, UpNs: 70_000},
		}, "same instant"},
		{"pair plus a repeat", []SwitchFault{
			{Switch: mid, DownNs: 30_000, UpNs: 70_000},
			{Switch: top, DownNs: 30_000, UpNs: 70_000},
			{Switch: mid, DownNs: 30_000, UpNs: 70_000},
		}, "same instant"},
	} {
		bad := cfg
		bad.FaultPlan = &FaultPlan{SwitchFaults: c.faults}
		if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}
