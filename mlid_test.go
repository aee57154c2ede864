package mlid_test

import (
	"testing"

	"mlid"
)

// TestQuickstartFlow exercises the documented end-to-end usage of the public
// API: build a tree, configure the subnet, simulate, inspect results.
func TestQuickstartFlow(t *testing.T) {
	tree, err := mlid.NewTree(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() != 32 || tree.Switches() != 12 {
		t.Fatalf("FT(8,2): %d nodes, %d switches", tree.Nodes(), tree.Switches())
	}
	subnet, err := mlid.Configure(tree, mlid.MLID())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mlid.Simulate(mlid.SimConfig{
		Subnet:      subnet,
		Pattern:     mlid.UniformTraffic(tree.Nodes()),
		OfferedLoad: 0.2,
		WarmupNs:    10_000,
		MeasureNs:   50_000,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted < 0.18 || res.Accepted > 0.22 {
		t.Errorf("accepted = %v", res.Accepted)
	}
	if res.MeanLatencyNs <= 0 {
		t.Errorf("latency = %v", res.MeanLatencyNs)
	}
}

func TestFacadeSchemesAndPatterns(t *testing.T) {
	if mlid.MLID().Name() != "MLID" || mlid.SLID().Name() != "SLID" {
		t.Error("scheme names")
	}
	if len(mlid.Schemes()) != 2 {
		t.Error("Schemes()")
	}
	if _, err := mlid.SchemeByName("MLID"); err != nil {
		t.Error(err)
	}
	if _, err := mlid.SchemeByName("x"); err == nil {
		t.Error("bad scheme accepted")
	}
	for _, name := range []string{"uniform", "centric", "bitreversal"} {
		if _, err := mlid.PatternByName(name, 8, 0); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if p := mlid.CentricTraffic(16, 3, 0.5); p.Name() == "" {
		t.Error("centric name")
	}
}

func TestFacadeRoutingAndAnalysis(t *testing.T) {
	tree, _ := mlid.NewTree(4, 3)
	p, err := mlid.Trace(tree, mlid.MLID(), 0, 9)
	if err != nil || p.Dst != 9 {
		t.Fatalf("Trace: %v %+v", err, p)
	}
	paths, err := mlid.AllPaths(tree, mlid.MLID(), 0, 9)
	if err != nil || len(paths) == 0 {
		t.Fatalf("AllPaths: %v", err)
	}
	// All-to-one is the paper's Figure 9 case: SLID piles each source leaf
	// group onto one ascending link, MLID spreads it over m/2 of them.
	var maxLoad [2]float64
	for i, s := range []mlid.Scheme{mlid.SLID(), mlid.MLID()} {
		sn, err := mlid.Configure(tree, s)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mlid.LinkLoad(sn, mlid.AllToOne(tree, 9))
		if err != nil || rep.Flows != tree.Nodes()-1 || rep.Unrouted != 0 {
			t.Fatalf("%s LinkLoad: %v %+v", s.Name(), err, rep)
		}
		maxLoad[i] = rep.MaxLoad
	}
	if maxLoad[0] <= maxLoad[1] {
		t.Fatalf("all-to-one max inter-switch load: SLID %v, MLID %v — SLID should be higher", maxLoad[0], maxLoad[1])
	}
	faults := mlid.NewFaultSet()
	lid, _, ok := mlid.SelectDLID(tree, mlid.MLID(), 0, 9, faults)
	if !ok || lid == 0 {
		t.Fatalf("SelectDLID: %v %v", lid, ok)
	}
}

func TestFacadeEvalHarness(t *testing.T) {
	if len(mlid.EvalFigures()) != 8 || len(mlid.EvalQuickFigures()) != 8 {
		t.Error("figure counts")
	}
	if len(mlid.EvalNetworks()) != 4 {
		t.Error("network count")
	}
	rows, err := mlid.EvalTable1(mlid.EvalNetworks())
	if err != nil || len(rows) != 4 {
		t.Fatalf("Table1: %v", err)
	}
	if _, err := mlid.EvalFigureByID("F8"); err != nil {
		t.Error(err)
	}
}

func TestFacadeReceptionConstants(t *testing.T) {
	if mlid.ReceptionIdeal == mlid.ReceptionLink {
		t.Error("reception constants collide")
	}
}
