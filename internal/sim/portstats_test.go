package sim

import (
	"math"
	"testing"

	"mlid/internal/core"
	"mlid/internal/traffic"
)

func TestPortStatsCollection(t *testing.T) {
	sn := mustSubnet(t, 8, 2, core.NewSLID())
	res, err := Run(Config{
		Subnet:           sn,
		Pattern:          traffic.Centric{Nodes: sn.Tree.Nodes(), Hotspot: 0, Fraction: 0.5},
		OfferedLoad:      0.3,
		CollectPortStats: true,
		WarmupNs:         20_000,
		MeasureNs:        100_000,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PortStats) == 0 {
		t.Fatal("no port stats collected")
	}
	// Sorted busiest-first, utilizations within [0, 1].
	for i, ps := range res.PortStats {
		if ps.Utilization < 0 || ps.Utilization > 1.0001 {
			t.Fatalf("stat %d: utilization %v", i, ps.Utilization)
		}
		if ps.Packets <= 0 || ps.BusyNs <= 0 {
			t.Fatalf("stat %d: empty entry %+v", i, ps)
		}
		if i > 0 && ps.BusyNs > res.PortStats[i-1].BusyNs {
			t.Fatal("port stats not sorted by busy time")
		}
	}
	// Under SLID centric, the busiest directed link must be on the hotspot
	// path: a switch link, not an injection link.
	if res.PortStats[0].IsNode {
		t.Errorf("busiest link is an injection link: %+v", res.PortStats[0])
	}
	// Off by default.
	res2, err := Run(Config{
		Subnet:      sn,
		Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
		OfferedLoad: 0.1,
		WarmupNs:    5_000,
		MeasureNs:   20_000,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.PortStats != nil {
		t.Error("port stats collected without opting in")
	}
}

// TestLatencyOctavesMatchWindow holds Result.LatencyOctaves to the window: its
// counts sum to DeliveredWindow, and its last octave holds MaxLatencyNs.
func TestLatencyOctavesMatchWindow(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	res, err := Run(Config{
		Subnet:      sn,
		Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
		OfferedLoad: 0.3,
		WarmupNs:    10_000,
		MeasureNs:   60_000,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range res.LatencyOctaves {
		sum += n
	}
	if sum != res.DeliveredWindow || sum == 0 {
		t.Errorf("latency octaves hold %d samples, window delivered %d", sum, res.DeliveredWindow)
	}
	top := len(res.LatencyOctaves) - 1
	if lo := math.Exp2(float64(top)); res.MaxLatencyNs < lo || res.MaxLatencyNs >= 2*lo {
		t.Errorf("max latency %v outside the last octave [%v, %v)", res.MaxLatencyNs, lo, 2*lo)
	}
}
