package experiment

import (
	"fmt"
	"strings"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/sim"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

// AblationRow is one measured ablation point.
type AblationRow struct {
	// Experiment ids follow DESIGN.md's index (EX-A, EX-B, ...).
	Experiment string
	Setting    string
	// AcceptedBns is the measured accepted traffic (bytes/ns/node) and
	// MeanLatencyNs the mean latency of the run.
	AcceptedBns   float64
	MeanLatencyNs float64
}

// RunAblations executes the repository's ablation suite (DESIGN.md EX-A,
// EX-B, EX-C, EX-F, EX-G, EX-H and the switching-mode study) on the 8-port
// 2-tree and returns the measured rows in suite order. quick shortens the
// windows.
func RunAblations(quick bool) ([]AblationRow, error) { return runStudy(ablationStudy(quick)) }

// ablationStudy has one point per ablation setting, in suite order.
func ablationStudy(quick bool) (study[AblationRow], error) {
	var s study[AblationRow]
	tr, err := topology.New(8, 2)
	if err != nil {
		return s, err
	}
	warm, meas := sim.Time(60_000), sim.Time(200_000)
	if quick {
		warm, meas = 20_000, 60_000
	}
	subnets := map[string]*ib.Subnet{}
	for _, sc := range core.Schemes() {
		if subnets[sc.Name()], err = (&ib.SubnetManager{Tree: tr, Engine: sc}).Configure(); err != nil {
			return s, err
		}
	}
	centric := traffic.Centric{Nodes: tr.Nodes(), Hotspot: 0, Fraction: 0.5}
	uniform := traffic.Uniform{Nodes: tr.Nodes()}
	bitcomp := traffic.BitComplement(tr.Nodes())
	// add appends one setting: the scheme at load 0.5 on pat, as mutate
	// changes it.
	add := func(experiment, setting string, scheme core.Scheme, pat traffic.Pattern, mutate func(cfg *sim.Config)) {
		cfg := sim.Config{
			Subnet:      subnets[scheme.Name()],
			Pattern:     pat,
			OfferedLoad: 0.5,
			WarmupNs:    warm,
			MeasureNs:   meas,
			Seed:        71,
		}
		mutate(&cfg)
		s.points = append(s.points, point[AblationRow]{
			name: fmt.Sprintf("ablation %s/%s", experiment, setting),
			cfg:  cfg,
			row:  AblationRow{Experiment: experiment, Setting: setting},
		})
	}
	mlid := core.NewMLID()

	// EX-A: virtual lanes beyond the paper's 4.
	for _, vls := range []int{1, 4, 8} {
		for _, sc := range core.Schemes() {
			add("EX-A vl-count", fmt.Sprintf("%s %dVL", sc.Name(), vls), sc, centric,
				func(cfg *sim.Config) { cfg.DataVLs = vls })
		}
	}
	// EX-B: buffer depth.
	for _, buf := range []int{1, 2, 4} {
		add("EX-B buffers", fmt.Sprintf("MLID %d-pkt buffers", buf), mlid, centric,
			func(cfg *sim.Config) { cfg.BufPackets = buf })
	}
	// EX-C: packet size.
	for _, size := range []int{64, 256, 1024} {
		add("EX-C pktsize", fmt.Sprintf("MLID %dB packets", size), mlid, uniform,
			func(cfg *sim.Config) { cfg.PacketSize = size; cfg.OfferedLoad = 0.3 })
	}
	// EX-F: reception model.
	for _, sc := range core.Schemes() {
		add("EX-F reception", sc.Name()+" ideal", sc, centric,
			func(cfg *sim.Config) { cfg.Reception = sim.ReceptionIdeal })
		add("EX-F reception", sc.Name()+" link-limited", sc, centric,
			func(cfg *sim.Config) { cfg.Reception = sim.ReceptionLink })
	}
	// EX-G: path selection on a permutation.
	add("EX-G pathselect", "MLID rank (paper)", mlid, bitcomp,
		func(cfg *sim.Config) { cfg.OfferedLoad = 0.7 })
	add("EX-G pathselect", "MLID random offset", mlid, bitcomp,
		func(cfg *sim.Config) { cfg.OfferedLoad = 0.7; cfg.PathSelect = sim.SelectRandom() })
	// EX-H: VL mapping under the hotspot.
	for _, sc := range core.Schemes() {
		add("EX-H vlmap", sc.Name()+" round-robin (default)", sc, centric,
			func(cfg *sim.Config) { cfg.DataVLs = 2 })
		add("EX-H vlmap", sc.Name()+" DLID-pinned", sc, centric,
			func(cfg *sim.Config) { cfg.DataVLs = 2; cfg.VLSelect = sim.VLByDLID })
	}
	// Switching discipline.
	add("switching", "MLID cut-through (paper)", mlid, uniform,
		func(cfg *sim.Config) { cfg.OfferedLoad = 0.3 })
	add("switching", "MLID store-and-forward", mlid, uniform,
		func(cfg *sim.Config) { cfg.OfferedLoad = 0.3; cfg.Switching = sim.SwitchingSAF })

	s.reduce = func(res sim.Result, row *AblationRow) error {
		row.AcceptedBns = res.Accepted
		row.MeanLatencyNs = res.MeanLatencyNs
		return nil
	}
	return s, nil
}

// AblationTable renders the rows as a markdown table.
func AblationTable(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("| experiment | setting | accepted (B/ns/node) | mean latency (ns) |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %.4f | %.0f |\n", r.Experiment, r.Setting, r.AcceptedBns, r.MeanLatencyNs)
	}
	return b.String()
}
