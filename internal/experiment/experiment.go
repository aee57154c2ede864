// Package experiment is the reproduction harness for the paper's evaluation
// section: it defines the simulated network configurations (Table 1), the
// eight latency-vs-accepted-traffic figures (SLID/MLID x 1/2/4 virtual lanes,
// under uniform and 50%-centric traffic, across four network sizes), runs the
// parameter sweeps in parallel, and renders tables, CSV and ASCII charts.
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/sim"
	"mlid/internal/stats"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// Network names one m-port n-tree configuration of the evaluation.
type Network struct {
	M, N int
}

// String returns the paper's naming, e.g. "8-port 3-tree".
func (n Network) String() string { return fmt.Sprintf("%d-port %d-tree", n.M, n.N) }

// PaperNetworks are the four network sizes the evaluation sweeps. The paper's
// exact sizes were lost to OCR; these span the axes its observations discuss:
// small vs large switch port counts, and low vs high tree dimension n.
func PaperNetworks() []Network {
	return []Network{{4, 4}, {8, 3}, {16, 2}, {32, 2}}
}

// PaperVLs are the virtual-lane counts the paper simulates.
func PaperVLs() []int { return []int{1, 2, 4} }

// FigureSpec describes one figure: a network, a traffic pattern, and the
// load sweep; every figure carries six curves (SLID/MLID x VL counts).
type FigureSpec struct {
	// ID is the experiment identifier, e.g. "F1".
	ID      string
	Network Network
	// Pattern is "uniform" or "centric" (50% hotspot).
	Pattern string
	// Loads are the offered loads to sweep, in bytes/ns per node.
	Loads []float64
	// VLs are the virtual-lane counts to sweep.
	VLs []int
	// WarmupNs and MeasureNs size each run's windows.
	WarmupNs, MeasureNs sim.Time
	// Reception selects the endnode consumption model.
	Reception sim.ReceptionModel
	// Replicas runs each point this many times with distinct seeds and
	// averages the measurements (0 or 1 means a single run per point).
	Replicas int
	// Shards is passed through to sim.Config.Shards.
	//
	// Deprecated: the sharded engine was removed; sim.Config rejects any
	// value other than 0 or 1. Leave Shards unset.
	Shards int
	// Seed drives all runs of the figure.
	Seed int64
}

// ResolveShards returns requested unchanged.
//
// Deprecated: the sharded engine was removed, so there is no shard count to
// resolve. Pass the spec's Shards field (or nothing) to sim.Config.
func ResolveShards(_ *topology.Tree, requested int) int { return requested }

// Title renders the figure caption, mirroring the paper's.
func (f FigureSpec) Title() string {
	return fmt.Sprintf("%s: %s, %s traffic, 256-byte packets", f.ID, f.Network, f.Pattern)
}

// Figure is a completed figure: the spec plus its measured curves.
type Figure struct {
	Spec   FigureSpec
	Curves []stats.Curve
}

// Figures returns the full-fidelity specs for the paper's eight evaluation
// figures: F1..F4 uniform, F5..F8 50%-centric, over PaperNetworks.
func Figures() []FigureSpec {
	return buildFigures(defaultLoads(), 100_000, 300_000)
}

// QuickFigures returns reduced-cost specs (fewer load points, shorter
// windows) for test suites and benchmarks; the curve shapes are preserved.
func QuickFigures() []FigureSpec {
	return buildFigures([]float64{0.1, 0.4, 0.8}, 30_000, 80_000)
}

func defaultLoads() []float64 {
	return []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

func buildFigures(loads []float64, warm, meas sim.Time) []FigureSpec {
	var out []FigureSpec
	id := 1
	for _, pattern := range []string{"uniform", "centric"} {
		for _, nw := range PaperNetworks() {
			out = append(out, FigureSpec{
				ID:        fmt.Sprintf("F%d", id),
				Network:   nw,
				Pattern:   pattern,
				Loads:     loads,
				VLs:       PaperVLs(),
				WarmupNs:  warm,
				MeasureNs: meas,
				Seed:      1000 + int64(id),
			})
			id++
		}
	}
	return out
}

// FigureByID finds a spec among Figures() by its ID or by a short name of the
// form "u-8x3" / "c-16x2" (pattern prefix, then MxN).
func FigureByID(name string) (FigureSpec, error) {
	for _, f := range Figures() {
		if f.ID == name {
			return f, nil
		}
		short := fmt.Sprintf("%c-%dx%d", f.Pattern[0], f.Network.M, f.Network.N)
		if short == name {
			return f, nil
		}
	}
	return FigureSpec{}, fmt.Errorf("experiment: unknown figure %q (want F1..F8 or e.g. u-8x3)", name)
}

// pattern builds the figure's traffic pattern for a node count.
func (f FigureSpec) pattern(nodes int) (traffic.Pattern, error) {
	switch f.Pattern {
	case "uniform":
		return traffic.Uniform{Nodes: nodes}, nil
	case "centric":
		// The hotspot sits at node 0, as in the paper's Figure 9 example
		// where a single destination draws concentrated traffic.
		return traffic.Centric{Nodes: nodes, Hotspot: 0, Fraction: 0.5}, nil
	}
	return nil, fmt.Errorf("experiment: unknown pattern %q", f.Pattern)
}

// Run executes the figure's sweep: for each scheme and VL count, one
// simulation per load point and replica. The runs are the points of one
// study: every run is independently seeded and results come back in point
// order, so the figure does not depend on scheduling, and a failing sweep
// returns the lowest-indexed run's error. Replicas are averaged after the
// campaign.
func (f FigureSpec) Run() (Figure, error) {
	// Run r of load pi on curve ci is seeded Seed + ci*100_000 + pi*100 + r;
	// past these bounds two runs would share a seed.
	if f.Replicas > 100 {
		return Figure{}, fmt.Errorf("experiment: %s: Replicas %d > 100 reuses seeds across load points", f.ID, f.Replicas)
	}
	if len(f.Loads) > 1000 {
		return Figure{}, fmt.Errorf("experiment: %s: %d Loads > 1000 reuses seeds across curves", f.ID, len(f.Loads))
	}
	tree, err := topology.New(f.Network.M, f.Network.N)
	if err != nil {
		return Figure{}, err
	}
	pat, err := f.pattern(tree.Nodes())
	if err != nil {
		return Figure{}, err
	}

	replicas := max(f.Replicas, 1)
	var s study[stats.Point]
	var curves []stats.Curve
	for _, scheme := range []core.Scheme{core.NewSLID(), core.NewMLID()} {
		sn, err := (&ib.SubnetManager{Tree: tree, Engine: scheme}).Configure()
		if err != nil {
			return Figure{}, fmt.Errorf("experiment: %s on %s: %w", scheme.Name(), f.Network, err)
		}
		for _, vls := range f.VLs {
			ci := len(curves)
			label := fmt.Sprintf("%s %dVL", scheme.Name(), vls)
			curves = append(curves, stats.Curve{Label: label, Points: make([]stats.Point, len(f.Loads))})
			for pi, load := range f.Loads {
				for r := 0; r < replicas; r++ {
					s.points = append(s.points, point[stats.Point]{
						name: fmt.Sprintf("%s %s load %v replica %d", f.ID, label, load, r),
						cfg: sim.Config{
							Subnet:      sn,
							Pattern:     pat,
							DataVLs:     vls,
							OfferedLoad: load,
							WarmupNs:    f.WarmupNs,
							MeasureNs:   f.MeasureNs,
							Reception:   f.Reception,
							Shards:      f.Shards,
							Seed:        f.Seed + int64(ci*100_000+pi*100+r),
						},
					})
				}
			}
		}
	}
	s.reduce = func(res sim.Result, p *stats.Point) error {
		*p = stats.Point{
			OfferedLoad:   res.OfferedLoad,
			Accepted:      res.Accepted,
			MeanLatencyNs: res.MeanLatencyNs,
			P99LatencyNs:  res.P99LatencyNs,
			Delivered:     res.DeliveredWindow,
			Generated:     res.GeneratedWindow,
			Saturated:     res.Saturated,
		}
		return nil
	}
	runs, err := s.run()
	if err != nil {
		return Figure{}, err
	}
	// Runs are ordered (curve, load, replica): each point's replicas are
	// one contiguous block, averaged in replica order.
	for i := range curves {
		for pi := range curves[i].Points {
			k := (i*len(f.Loads) + pi) * replicas
			curves[i].Points[pi] = meanPoint(runs[k : k+replicas])
		}
	}
	return Figure{Spec: f, Curves: curves}, nil
}

// meanPoint averages replica measurements; the point is flagged saturated
// when a majority of replicas were.
func meanPoint(results []stats.Point) stats.Point {
	var out stats.Point
	sat := 0
	for _, r := range results {
		out.OfferedLoad = r.OfferedLoad
		out.Accepted += r.Accepted
		out.MeanLatencyNs += r.MeanLatencyNs
		out.P99LatencyNs += r.P99LatencyNs
		out.Delivered += r.Delivered
		out.Generated += r.Generated
		if r.Saturated {
			sat++
		}
	}
	n := float64(len(results))
	out.Accepted /= n
	out.MeanLatencyNs /= n
	out.P99LatencyNs /= n
	out.Delivered /= int64(len(results))
	out.Generated /= int64(len(results))
	out.Saturated = sat*2 > len(results)
	return out
}

// Curve returns the named curve ("MLID 1VL", ...), or nil.
func (fig Figure) Curve(label string) *stats.Curve {
	for i := range fig.Curves {
		if fig.Curves[i].Label == label {
			return &fig.Curves[i]
		}
	}
	return nil
}

// CSV renders the figure's curves in long form.
func (fig Figure) CSV() string { return stats.CSV(fig.Curves) }

// Chart renders the figure as an ASCII latency-vs-accepted-traffic plot.
func (fig Figure) Chart() string {
	return stats.ASCIIChart(fig.Spec.Title(), fig.Curves, 72, 20)
}

// Summary compares peak accepted traffic across the figure's curves and
// states the MLID/SLID ratio per VL count — the quantity behind the paper's
// Observations 1, 3 and 5.
func (fig Figure) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", fig.Spec.Title())
	peaks := map[string]float64{}
	for _, c := range fig.Curves {
		peaks[c.Label] = c.PeakAccepted()
		fmt.Fprintf(&b, "  %-10s peak accepted %.4f B/ns/node, low-load latency %.0f ns\n",
			c.Label, c.PeakAccepted(), c.LowLoadLatency())
	}
	var vls []int
	seen := map[int]bool{}
	for _, v := range fig.Spec.VLs {
		if !seen[v] {
			seen[v] = true
			vls = append(vls, v)
		}
	}
	sort.Ints(vls)
	for _, v := range vls {
		m := peaks[fmt.Sprintf("MLID %dVL", v)]
		s := peaks[fmt.Sprintf("SLID %dVL", v)]
		if s > 0 {
			fmt.Fprintf(&b, "  MLID/SLID peak ratio @%dVL: %.2f\n", v, m/s)
		}
	}
	return b.String()
}

// Table1Row is one row of the reproduced Table 1: the simulated network
// configurations and their MLID addressing parameters.
type Table1Row struct {
	Network         Network
	Nodes, Switches int
	Links           int
	LMC             uint8
	LIDsPerNode     int
	LIDSpace        int
	PathsAlpha0     int64 // distinct paths between maximally distant nodes
}

// Table1 computes the configuration table for the evaluation networks.
func Table1(nets []Network) ([]Table1Row, error) {
	mlidScheme := core.NewMLID()
	rows := make([]Table1Row, 0, len(nets))
	for _, nw := range nets {
		t, err := topology.New(nw.M, nw.N)
		if err != nil {
			return nil, err
		}
		lmc := mlidScheme.LMC(t)
		rows = append(rows, Table1Row{
			Network:     nw,
			Nodes:       t.Nodes(),
			Switches:    t.Switches(),
			Links:       t.Links(),
			LMC:         lmc,
			LIDsPerNode: 1 << lmc,
			LIDSpace:    mlidScheme.LIDSpace(t),
			PathsAlpha0: t.PathCount(0, topology.NodeID(t.Nodes()-1)),
		})
	}
	return rows, nil
}

// FormatTable1 renders Table 1 as aligned text.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: simulated m-port n-tree InfiniBand networks\n")
	fmt.Fprintf(&b, "%-16s %7s %9s %7s %4s %10s %9s %11s\n",
		"network", "nodes", "switches", "links", "LMC", "LIDs/node", "LIDspace", "paths(a=0)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %7d %9d %7d %4d %10d %9d %11d\n",
			r.Network.String(), r.Nodes, r.Switches, r.Links, r.LMC, r.LIDsPerNode, r.LIDSpace, r.PathsAlpha0)
	}
	return b.String()
}
