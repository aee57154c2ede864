package experiment

import (
	"strings"
	"testing"

	"mlid/internal/sim"
)

func TestPaperNetworksAndFigures(t *testing.T) {
	nets := PaperNetworks()
	if len(nets) != 4 {
		t.Fatalf("%d networks", len(nets))
	}
	figs := Figures()
	if len(figs) != 8 {
		t.Fatalf("%d figures, want 8", len(figs))
	}
	uniform, centric := 0, 0
	ids := map[string]bool{}
	for _, f := range figs {
		if ids[f.ID] {
			t.Fatalf("duplicate figure id %s", f.ID)
		}
		ids[f.ID] = true
		switch f.Pattern {
		case "uniform":
			uniform++
		case "centric":
			centric++
		default:
			t.Fatalf("bad pattern %q", f.Pattern)
		}
		if len(f.VLs) != 3 || len(f.Loads) == 0 {
			t.Fatalf("figure %s incomplete: %+v", f.ID, f)
		}
	}
	if uniform != 4 || centric != 4 {
		t.Fatalf("uniform/centric = %d/%d", uniform, centric)
	}
}

func TestFigureByID(t *testing.T) {
	f, err := FigureByID("F1")
	if err != nil || f.ID != "F1" {
		t.Fatalf("F1: %v %+v", err, f)
	}
	f, err = FigureByID("c-16x2")
	if err != nil || f.Pattern != "centric" || f.Network.M != 16 {
		t.Fatalf("c-16x2: %v %+v", err, f)
	}
	if _, err := FigureByID("nope"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(PaperNetworks())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Spot-check FT(8,3): 128 nodes, 80 switches, LMC 4, 16 LIDs/node.
	var found bool
	for _, r := range rows {
		if r.Network.M == 8 && r.Network.N == 3 {
			found = true
			if r.Nodes != 128 || r.Switches != 80 || r.LMC != 4 || r.LIDsPerNode != 16 {
				t.Fatalf("FT(8,3) row: %+v", r)
			}
			if r.LIDSpace != 128*16+1 || r.PathsAlpha0 != 16 {
				t.Fatalf("FT(8,3) LID row: %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("FT(8,3) missing")
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "8-port 3-tree") || !strings.Contains(out, "Table 1") {
		t.Errorf("FormatTable1:\n%s", out)
	}
	if _, err := Table1([]Network{{3, 1}}); err == nil {
		t.Error("invalid network accepted")
	}
}

// TestRunSmallFigure runs a reduced sweep end to end and checks the curve
// structure plus the basic physical sanity of every point.
func TestRunSmallFigure(t *testing.T) {
	spec := FigureSpec{
		ID:        "TEST",
		Network:   Network{4, 2},
		Pattern:   "uniform",
		Loads:     []float64{0.1, 0.5},
		VLs:       []int{1, 2},
		WarmupNs:  10_000,
		MeasureNs: 40_000,
		Seed:      7,
	}
	fig, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 4 { // 2 schemes x 2 VL counts
		t.Fatalf("%d curves", len(fig.Curves))
	}
	labels := map[string]bool{}
	for _, c := range fig.Curves {
		labels[c.Label] = true
		if len(c.Points) != 2 {
			t.Fatalf("curve %s has %d points", c.Label, len(c.Points))
		}
		for _, p := range c.Points {
			if p.Accepted <= 0 || p.Accepted > 1.01 {
				t.Fatalf("curve %s: accepted %v", c.Label, p.Accepted)
			}
			if p.MeanLatencyNs <= 0 {
				t.Fatalf("curve %s: latency %v", c.Label, p.MeanLatencyNs)
			}
		}
	}
	for _, want := range []string{"MLID 1VL", "MLID 2VL", "SLID 1VL", "SLID 2VL"} {
		if !labels[want] {
			t.Fatalf("missing curve %s (have %v)", want, labels)
		}
	}
	if fig.Curve("MLID 1VL") == nil || fig.Curve("nope") != nil {
		t.Error("Curve lookup broken")
	}
	if !strings.Contains(fig.CSV(), "MLID 1VL") {
		t.Error("CSV missing curve")
	}
	if !strings.Contains(fig.Chart(), "TEST") {
		t.Error("Chart missing title")
	}
	sum := fig.Summary()
	if !strings.Contains(sum, "MLID/SLID peak ratio @1VL") {
		t.Errorf("Summary:\n%s", sum)
	}
}

// TestRunDeterministicAcrossParallelism: the sweep's parallel execution must
// not affect results.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	spec := FigureSpec{
		ID:        "DET",
		Network:   Network{4, 2},
		Pattern:   "centric",
		Loads:     []float64{0.2, 0.6},
		VLs:       []int{1},
		WarmupNs:  5_000,
		MeasureNs: 20_000,
		Seed:      3,
	}
	a, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Errorf("non-deterministic sweep:\n%s\nvs\n%s", a.CSV(), b.CSV())
	}
}

// TestRunRejectsBadSpec: a spec that cannot run returns an error naming the
// cause. A sweep whose runs fail reports the lowest-indexed run's error, and
// a spec whose runs would share a seed is rejected before any run.
func TestRunRejectsBadSpec(t *testing.T) {
	ok := FigureSpec{Network: Network{4, 2}, Pattern: "uniform", Loads: []float64{0.1}, VLs: []int{1},
		WarmupNs: 1000, MeasureNs: 1000}
	with := func(edit func(*FigureSpec)) FigureSpec {
		f := ok
		edit(&f)
		return f
	}
	for _, tc := range []struct {
		name, want string
		spec       FigureSpec
	}{
		{"invalid network", "", with(func(f *FigureSpec) { f.Network = Network{3, 2} })},
		{"invalid pattern", "unknown pattern", with(func(f *FigureSpec) { f.Pattern = "weird" })},
		// MLID on FT(8,5) needs LMC 8 > 7: the sweep must surface the SM error.
		{"LMC overflow", "MLID on 8-port 5-tree", with(func(f *FigureSpec) { f.Network = Network{8, 5} })},
		{"failing runs", "OfferedLoad must be positive, got -1", with(func(f *FigureSpec) { f.Loads = []float64{-1, -2, -3} })},
		{"replica seeds", "Replicas 101", with(func(f *FigureSpec) { f.Replicas = 101 })},
		{"load seeds", "1001 Loads", with(func(f *FigureSpec) { f.Loads = make([]float64, 1001) })},
	} {
		_, err := tc.spec.Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestQuickFiguresSmaller(t *testing.T) {
	q := QuickFigures()
	full := Figures()
	if len(q) != len(full) {
		t.Fatalf("quick %d vs full %d", len(q), len(full))
	}
	for i := range q {
		if len(q[i].Loads) >= len(full[i].Loads) {
			t.Error("quick figures not smaller")
		}
		if q[i].MeasureNs >= full[i].MeasureNs {
			t.Error("quick windows not shorter")
		}
	}
	var _ sim.Time = q[0].MeasureNs
}

// TestReplicasAveraging: replicated points average distinct seeds; the run
// still succeeds and points remain physical.
func TestReplicasAveraging(t *testing.T) {
	spec := FigureSpec{
		ID:        "REP",
		Network:   Network{4, 2},
		Pattern:   "uniform",
		Loads:     []float64{0.3},
		VLs:       []int{1},
		Replicas:  3,
		WarmupNs:  5_000,
		MeasureNs: 20_000,
		Seed:      31,
	}
	fig, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := fig.Curves[0].Points[0]
	if p.Accepted < 0.28 || p.Accepted > 0.32 || p.MeanLatencyNs <= 0 {
		t.Fatalf("averaged point %+v", p)
	}
	// Replicated results differ from a single-seed run (averaging happened).
	spec.Replicas = 1
	one, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if one.Curves[0].Points[0].MeanLatencyNs == p.MeanLatencyNs {
		t.Log("averaged equals single run (possible but unlikely); not failing")
	}
}
