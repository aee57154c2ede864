package experiment

import (
	"fmt"
	"strings"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/sim"
	"mlid/internal/sm"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// ScalingRow is one network's MLID/SLID peak-throughput comparison at one
// virtual lane — the quantity behind the paper's Observation 5 / Remark 3.
type ScalingRow struct {
	Network      Network
	Nodes        int
	UniformRatio float64
	CentricRatio float64
}

// ScalingStudy measures, for each network, the MLID/SLID peak accepted
// traffic ratio under uniform and 50%-centric traffic with one VL. Its
// points are one run per (network, scheme, pattern, load); the peaks over
// the loads are taken after the campaign.
func ScalingStudy(nets []Network, quick bool) ([]ScalingRow, error) {
	warm, meas := sim.Time(80_000), sim.Time(250_000)
	loads := []float64{0.1, 0.2, 0.3, 0.5, 0.8}
	if quick {
		warm, meas = 20_000, 60_000
		loads = []float64{0.2, 0.6}
	}
	// Each network's curves, in point order: MLID and SLID under uniform
	// traffic, then under centric traffic.
	const curves = 4
	var s study[float64]
	rows := make([]ScalingRow, 0, len(nets))
	for _, nw := range nets {
		tr, err := topology.New(nw.M, nw.N)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScalingRow{Network: nw, Nodes: tr.Nodes()})
		schemes := []core.Scheme{core.NewMLID(), core.NewSLID()}
		subnets := make([]*ib.Subnet, len(schemes))
		for i, scheme := range schemes {
			if subnets[i], err = (&ib.SubnetManager{Tree: tr, Engine: scheme}).Configure(); err != nil {
				return nil, err
			}
		}
		for _, pat := range []traffic.Pattern{
			traffic.Uniform{Nodes: tr.Nodes()},
			traffic.Centric{Nodes: tr.Nodes(), Hotspot: 0, Fraction: 0.5},
		} {
			for i, sn := range subnets {
				for li, load := range loads {
					s.points = append(s.points, point[float64]{
						name: fmt.Sprintf("scaling %s %s %s load %v", nw, schemes[i].Name(), pat.Name(), load),
						cfg: sim.Config{
							Subnet:      sn,
							Pattern:     pat,
							OfferedLoad: load,
							WarmupNs:    warm,
							MeasureNs:   meas,
							Seed:        91 + int64(li),
						},
					})
				}
			}
		}
	}
	s.reduce = func(res sim.Result, accepted *float64) error {
		*accepted = res.Accepted
		return nil
	}
	accepted, err := s.run()
	if err != nil {
		return nil, err
	}
	// peak is the best accepted rate over the loads of curve k.
	peak := func(k int) float64 {
		best := 0.0
		for _, a := range accepted[k*len(loads) : (k+1)*len(loads)] {
			best = max(best, a)
		}
		return best
	}
	for i := range rows {
		k := i * curves
		rows[i].UniformRatio = ratioOf(peak(k), peak(k+1))
		rows[i].CentricRatio = ratioOf(peak(k+2), peak(k+3))
	}
	return rows, nil
}

// FormatScaling renders the scaling rows as a markdown table.
func FormatScaling(rows []ScalingRow) string {
	var b strings.Builder
	b.WriteString("| network | nodes | MLID/SLID uniform | MLID/SLID centric |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %.2f | %.2f |\n", r.Network, r.Nodes, r.UniformRatio, r.CentricRatio)
	}
	return b.String()
}

// BringupRow records the subnet-manager cost of configuring one network
// through the management plane.
type BringupRow struct {
	Network  Network
	Nodes    int
	Switches int
	Stats    sm.BringupStats
}

// BringupStudy measures the MAD subnet manager's SMP traffic per network.
func BringupStudy(nets []Network) ([]BringupRow, error) {
	rows := make([]BringupRow, 0, len(nets))
	for _, nw := range nets {
		tr, err := topology.New(nw.M, nw.N)
		if err != nil {
			return nil, err
		}
		mgr := &sm.MADSubnetManager{Fabric: ib.NewSMAFabric(tr), Origin: 0, Engine: core.NewMLID()}
		if _, err := mgr.Configure(); err != nil {
			return nil, fmt.Errorf("experiment: bring-up of %s: %w", nw, err)
		}
		rows = append(rows, BringupRow{
			Network:  nw,
			Nodes:    tr.Nodes(),
			Switches: tr.Switches(),
			Stats:    mgr.Stats,
		})
	}
	return rows, nil
}

// FormatBringup renders the bring-up rows as a markdown table.
func FormatBringup(rows []BringupRow) string {
	var b strings.Builder
	b.WriteString("| network | nodes | switches | probes | sets | gets | total SMPs | max hops |\n|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d | %d |\n",
			r.Network, r.Nodes, r.Switches, r.Stats.Probes, r.Stats.Sets, r.Stats.Gets, r.Stats.Total(), r.Stats.MaxHops)
	}
	return b.String()
}
