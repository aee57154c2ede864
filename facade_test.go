package mlid_test

import (
	"strings"
	"testing"

	"mlid"
	"mlid/internal/ib"
	"mlid/internal/topology"
)

func TestFacadeMADAndBatch(t *testing.T) {
	tree, err := mlid.NewTree(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := mlid.ConfigureViaMAD(tree, mlid.MLID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mlid.SimulateBatch(mlid.SimConfig{
		Subnet:   sn,
		Messages: mlid.GatherMessages(tree, 0, 1024),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanNs <= 0 || res.Packets != int64((tree.Nodes()-1)*4) {
		t.Fatalf("%+v", res)
	}
	a2a := mlid.AllToAllMessages(tree, 256)
	if len(a2a) != tree.Nodes()*(tree.Nodes()-1) {
		t.Fatalf("%d messages", len(a2a))
	}
}

// cyclicTables rewires two forwarding entries on each of two leaves of an
// FT(4,2) SLID subnet into down-then-up routes, an up*/down* violation that
// closes a 4-link channel-dependency cycle leafA -> r0 -> leafB -> r1 ->
// leafA.
func cyclicTables(t *testing.T) *mlid.Subnet {
	t.Helper()
	tree, _ := mlid.NewTree(4, 2)
	sn, err := mlid.Configure(tree, mlid.SLID())
	if err != nil {
		t.Fatal(err)
	}
	leafA, _ := tree.NodeAttachment(0)
	leafB, _ := tree.NodeAttachment(mlid.NodeID(tree.Nodes() - 1))
	roots := tree.SwitchesWithPrefix(nil, 0)
	r0, r1 := roots[0], roots[1]
	// route sends lid out of the port from one switch toward another.
	route := func(from, to mlid.SwitchID, lid mlid.LID) {
		for k := 0; k < tree.M(); k++ {
			if ref := tree.SwitchNeighbor(from, k); ref.Kind == topology.KindSwitch && ref.Switch == to {
				if err := sn.LFTs[from].Set(lid, uint8(k+1)); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
		t.Fatalf("no link %d->%d", from, to)
	}
	// Node 0's LID 1 descends from r0 to leaf B, which sends it back up
	// through r1; node N-1's LID N descends from r1 to leaf A, which sends
	// it back up through r0.
	route(r0, leafB, 1)
	route(leafB, r1, 1)
	lidB := mlid.LID(tree.Nodes())
	route(r1, leafA, lidB)
	route(leafA, r0, lidB)
	return sn
}

// TestFacadeDeadlockAndRepair pins the credit-loop checker: the exact graph
// size of both schemes' healthy tables on every test fabric, a cycle in
// hand-broken tables, freedom after fault repair, and an error for tables
// that do not route an assigned DLID.
func TestFacadeDeadlockAndRepair(t *testing.T) {
	configured := func(m, n int, s mlid.Scheme) func(*testing.T) *mlid.Subnet {
		return func(t *testing.T) *mlid.Subnet {
			tree, _ := mlid.NewTree(m, n)
			sn, err := mlid.Configure(tree, s)
			if err != nil {
				t.Fatal(err)
			}
			return sn
		}
	}
	repaired := func(t *testing.T) *mlid.Subnet {
		sn := configured(8, 2, mlid.MLID())(t)
		faults := mlid.NewFaultSet()
		leaf, _ := sn.Tree.NodeAttachment(0)
		faults.FailLink(sn.Tree, leaf, sn.Tree.DownPorts(leaf))
		if _, _, err := mlid.RepairSubnet(sn, faults); err != nil {
			t.Fatal(err)
		}
		return sn
	}
	// broken reprograms one live entry of a healthy FT(4,2) to port phys.
	broken := func(phys uint8) func(*testing.T) *mlid.Subnet {
		return func(t *testing.T) *mlid.Subnet {
			sn := configured(4, 2, mlid.MLID())(t)
			if err := sn.LFTs[0].Set(sn.Endports[sn.Tree.Nodes()-1].Base, phys); err != nil {
				t.Fatal(err)
			}
			return sn
		}
	}
	// Channels and Dependencies are the checker's graph sizes on the
	// paper's schemes; an FT(m,1) single switch has one-hop routes and no
	// dependencies.
	cases := []struct {
		name         string
		subnet       func(*testing.T) *mlid.Subnet
		channels     int
		dependencies int
		cycle        []string // the witness channels in walk order; nil means cycle-free
		wantErr      bool
	}{
		{"FT(4,1) MLID", configured(4, 1, mlid.MLID()), 4, 0, nil, false},
		{"FT(4,1) SLID", configured(4, 1, mlid.SLID()), 4, 0, nil, false},
		{"FT(4,2) MLID", configured(4, 2, mlid.MLID()), 24, 40, nil, false},
		{"FT(4,2) SLID", configured(4, 2, mlid.SLID()), 24, 32, nil, false},
		{"FT(4,3) MLID", configured(4, 3, mlid.MLID()), 80, 160, nil, false},
		{"FT(4,3) SLID", configured(4, 3, mlid.SLID()), 80, 128, nil, false},
		{"FT(4,4) MLID", configured(4, 4, mlid.MLID()), 224, 480, nil, false},
		{"FT(4,4) SLID", configured(4, 4, mlid.SLID()), 224, 384, nil, false},
		{"FT(8,2) MLID", configured(8, 2, mlid.MLID()), 96, 352, nil, false},
		{"FT(8,2) SLID", configured(8, 2, mlid.SLID()), 96, 256, nil, false},
		{"FT(8,3) MLID", configured(8, 3, mlid.MLID()), 640, 2816, nil, false},
		{"FT(8,3) SLID", configured(8, 3, mlid.SLID()), 640, 2048, nil, false},
		{"FT(16,2) MLID", configured(16, 2, mlid.MLID()), 384, 2944, nil, false},
		{"FT(16,2) SLID", configured(16, 2, mlid.SLID()), 384, 2048, nil, false},
		{"FT(32,2) MLID", configured(32, 2, mlid.MLID()), 1536, 24064, nil, false},
		{"FT(32,2) SLID", configured(32, 2, mlid.SLID()), 1536, 16384, nil, false},
		{"cyclic tables", cyclicTables, 22, 28, []string{"SW<0,0>:3", "SW<3,1>:3", "SW<1,0>:0", "SW<0,1>:2"}, false},
		{"repaired FT(8,2) MLID", repaired, 95, 345, nil, false},
		{"unprogrammed entry", broken(ib.PortNone), 0, 0, nil, true},
		{"route off the fabric", broken(5), 0, 0, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := mlid.CheckDeadlockFree(tc.subnet(t))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("no error, report %+v", rep)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.Channels != tc.channels || rep.Dependencies != tc.dependencies {
				t.Errorf("graph %d channels / %d dependencies, want %d / %d",
					rep.Channels, rep.Dependencies, tc.channels, tc.dependencies)
			}
			if got, want := strings.Join(rep.Cycle, " "), strings.Join(tc.cycle, " "); got != want || rep.Free() != (want == "") {
				t.Errorf("cycle [%s] (free %v), want [%s]", got, rep.Free(), want)
			}
		})
	}

	tree, _ := mlid.NewTree(4, 2)
	sn, err := mlid.Configure(tree, mlid.MLID())
	if err != nil {
		t.Fatal(err)
	}
	faults := mlid.NewFaultSet()
	leaf, _ := tree.NodeAttachment(0)
	faults.FailLink(tree, leaf, tree.DownPorts(leaf))
	remapped, _, err := mlid.RepairSubnet(sn, faults)
	if err != nil || remapped == 0 {
		t.Fatalf("repair: %v remapped %d", err, remapped)
	}
	p, err := mlid.TraceSubnet(sn, 0, sn.Endports[7].Base)
	if err != nil || p.Dst != 7 {
		t.Fatalf("TraceSubnet: %v %+v", err, p)
	}
}

func TestFacadeComparison(t *testing.T) {
	tree, _ := mlid.NewTree(8, 2)
	ft := tree.FamilyStats()
	kary, err := mlid.KaryNTreeStats(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := mlid.FormatFamilyComparison(ft, kary)
	if !strings.Contains(out, "k-ary") {
		t.Errorf("comparison:\n%s", out)
	}
}

func TestFacadePatternsAndPolicies(t *testing.T) {
	p := mlid.MultiHotspotTraffic(16, []int{1, 2}, 0.5)
	if p.Name() == "" {
		t.Error("multi-hotspot name")
	}
	l := mlid.LocalTraffic(16, 4, 0.8)
	if l.Name() == "" {
		t.Error("local name")
	}
	if mlid.SelectRank().Name() == mlid.SelectRandom().Name() {
		t.Error("path policies collide")
	}
	if got := len(mlid.SelectorNames()); got != 5 {
		t.Errorf("SelectorNames: %d names, want 5", got)
	}
	if _, err := mlid.SelectorByName("adaptive"); err != nil {
		t.Errorf("SelectorByName(adaptive): %v", err)
	}
	if mlid.VLRoundRobin == mlid.VLByDLID {
		t.Error("VL policies collide")
	}
	if mlid.SwitchingVCT == mlid.SwitchingSAF {
		t.Error("switching modes collide")
	}
}

func TestFacadeObservationsAndReport(t *testing.T) {
	spec, err := mlid.EvalFigureByID("F5")
	if err != nil {
		t.Fatal(err)
	}
	spec.Network = mlid.EvalNetwork{M: 4, N: 2}
	spec.Loads = []float64{0.2, 0.6}
	spec.VLs = []int{1}
	spec.WarmupNs = 5_000
	spec.MeasureNs = 20_000
	fig, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	obs := mlid.CheckObservations([]mlid.EvalFigure{fig})
	if len(obs) != 5 {
		t.Fatalf("%d observations", len(obs))
	}
	rep, err := mlid.EvalReport([]mlid.EvalFigure{fig}, obs)
	if err != nil || !strings.Contains(rep, "Reproduction report") {
		t.Fatalf("report: %v", err)
	}
}

func TestFacadeSimKnobs(t *testing.T) {
	tree, _ := mlid.NewTree(4, 2)
	sn, err := mlid.Configure(tree, mlid.SLID())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mlid.Simulate(mlid.SimConfig{
		Subnet:           sn,
		Pattern:          mlid.UniformTraffic(tree.Nodes()),
		OfferedLoad:      0.2,
		Reception:        mlid.ReceptionLink,
		PathSelect:       mlid.SelectRandom(),
		VLSelect:         mlid.VLByDLID,
		Switching:        mlid.SwitchingSAF,
		CollectPortStats: true,
		TracePackets:     2,
		WarmupNs:         5_000,
		MeasureNs:        30_000,
		Seed:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredWindow == 0 || len(res.LatencyOctaves) == 0 || len(res.PortStats) == 0 || len(res.Traces) != 2 {
		t.Fatalf("knobs not honored: %+v", res)
	}
}

func TestFacadeExportImport(t *testing.T) {
	tree, _ := mlid.NewTree(4, 2)
	sn, err := mlid.Configure(tree, mlid.SLID())
	if err != nil {
		t.Fatal(err)
	}
	data, err := mlid.ExportSubnet(sn)
	if err != nil {
		t.Fatal(err)
	}
	back, err := mlid.ImportSubnet(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Engine.Name() != "SLID" || back.LIDSpace() != sn.LIDSpace() {
		t.Fatalf("imported %s space %d", back.Engine.Name(), back.LIDSpace())
	}
	if _, err := mlid.ImportSubnet([]byte("junk")); err == nil {
		t.Error("junk accepted")
	}
}

func TestFacadeOptimizePaths(t *testing.T) {
	tree, _ := mlid.NewTree(8, 2)
	flows := []mlid.Flow{{Src: 0, Dst: 25, Weight: 5}, {Src: 4, Dst: 26, Weight: 5}}
	plan, err := mlid.OptimizePaths(tree, flows)
	if err != nil || plan.Planned() != 2 {
		t.Fatalf("OptimizePaths: %v", err)
	}
	sn, err := mlid.Configure(tree, mlid.MLID())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mlid.SimulateBatch(mlid.SimConfig{
		Subnet:     sn,
		Messages:   []mlid.Message{{Src: 0, Dst: 25, Bytes: 1024}, {Src: 4, Dst: 26, Bytes: 1024}},
		PathSelect: mlid.SelectPlan(plan),
		Seed:       1,
	})
	if err != nil || res.Packets != 8 {
		t.Fatalf("batch over plan: %v %+v", err, res)
	}
}
