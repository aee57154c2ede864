package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

func mustSubnet(t testing.TB, m, n int, s core.Scheme) *ib.Subnet {
	t.Helper()
	tr := topology.MustNew(m, n)
	sn, err := (&ib.SubnetManager{Tree: tr, Engine: s}).Configure()
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

func TestConfigValidation(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	pat := traffic.Uniform{Nodes: sn.Tree.Nodes()}
	bad := []Config{
		{Pattern: pat, OfferedLoad: 0.1},                             // no subnet
		{Subnet: sn, OfferedLoad: 0.1},                               // no pattern
		{Subnet: sn, Pattern: pat},                                   // no load
		{Subnet: sn, Pattern: pat, OfferedLoad: -1},                  // negative load
		{Subnet: sn, Pattern: pat, OfferedLoad: 0.1, DataVLs: 16},    // too many VLs
		{Subnet: sn, Pattern: pat, OfferedLoad: 0.1, DataVLs: -1},    // negative VLs
		{Subnet: sn, Pattern: pat, OfferedLoad: 0.1, PacketSize: -5}, // bad size
		{Subnet: sn, Pattern: pat, OfferedLoad: 0.1, BufPackets: -1}, // bad buffers
		{Subnet: sn, Pattern: pat, OfferedLoad: 0.1, WarmupNs: -1},   // bad window
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestConfigRejectsNonFinite: NaN and ±Inf in a float field fail validation
// with an error naming the field. Range checks alone let NaN through (every
// comparison with it is false), and an infinite OfferedLoad used to hang Run.
func TestConfigRejectsNonFinite(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	fields := []struct {
		name string
		set  func(c *Config, v float64)
	}{
		{"OfferedLoad", func(c *Config, v float64) { c.OfferedLoad = v }},
		{"Transport.BackoffMult", func(c *Config, v float64) {
			c.Transport = &TransportConfig{BackoffMult: v}
		}},
		{"InBandSM.TrapLossProb", func(c *Config, v float64) {
			c.FaultPlan = &FaultPlan{InBandSM: &InBandSMConfig{TrapLossProb: v}}
		}},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(fmt.Sprintf("%s=%v", f.name, v), func(t *testing.T) {
				cfg := Config{Subnet: sn, Pattern: traffic.Uniform{Nodes: sn.Tree.Nodes()}, OfferedLoad: 0.3}
				if err := cfg.withDefaults().validate(); err != nil {
					t.Fatalf("base config rejected: %v", err)
				}
				f.set(&cfg, v)
				err := cfg.withDefaults().validate()
				if err == nil || !strings.Contains(err.Error(), f.name) {
					t.Errorf("err = %v, want a rejection naming %s", err, f.name)
				}
			})
		}
	}
}

// TestLowLoadLatencyMatchesModel: with bit-complement traffic on FT(4,2)
// every pair has gcp length 0, so an uncontended packet crosses exactly 3
// switches: latency = 3*route + 4*fly + serialization = 300+40+256 = 596 ns.
// At near-zero load the mean must sit within a few collisions of that.
func TestLowLoadLatencyMatchesModel(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	res, err := Run(Config{
		Subnet:      sn,
		Pattern:     traffic.BitComplement(sn.Tree.Nodes()),
		OfferedLoad: 0.004,
		WarmupNs:    20_000,
		MeasureNs:   400_000,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredWindow < 20 {
		t.Fatalf("too few deliveries: %+v", res)
	}
	const ideal = 3*100 + 4*10 + 256
	if res.MeanLatencyNs < ideal || res.MeanLatencyNs > ideal*1.1 {
		t.Errorf("mean latency %.1f, want ~%d ns", res.MeanLatencyNs, ideal)
	}
	if res.Saturated {
		t.Error("saturated at 0.004 load")
	}
}

// TestSameLeafLatency: a shift-by-one pattern restricted to one leaf pair...
// use FT(4,2) where nodes 0 and 1 share a leaf: a custom pattern sending
// everyone to their leaf partner crosses exactly 1 switch:
// latency = 100 + 2*10 + 256 = 376 ns.
func TestSameLeafLatency(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	n := sn.Tree.Nodes()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i ^ 1 // leaf partner: last digit flipped
	}
	res, err := Run(Config{
		Subnet:      sn,
		Pattern:     traffic.PermutationPattern{Label: "leafpair", Perm: perm},
		OfferedLoad: 0.004,
		WarmupNs:    20_000,
		MeasureNs:   400_000,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	const ideal = 100 + 2*10 + 256
	if res.MeanLatencyNs < ideal || res.MeanLatencyNs > ideal*1.1 {
		t.Errorf("mean latency %.1f, want ~%d ns", res.MeanLatencyNs, ideal)
	}
}

func TestConservation(t *testing.T) {
	sn := mustSubnet(t, 8, 2, core.NewMLID())
	for _, load := range []float64{0.05, 0.4, 1.5} {
		res, err := Run(Config{
			Subnet:      sn,
			Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
			OfferedLoad: load,
			WarmupNs:    10_000,
			MeasureNs:   60_000,
			Seed:        3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalDelivered > res.TotalGenerated {
			t.Fatalf("load %v: delivered %d > generated %d", load, res.TotalDelivered, res.TotalGenerated)
		}
		if res.InFlightAtEnd != res.TotalGenerated-res.TotalDelivered || res.InFlightAtEnd < 0 {
			t.Fatalf("load %v: conservation violated: %+v", load, res)
		}
		if res.TotalGenerated == 0 || res.Events == 0 {
			t.Fatalf("load %v: nothing happened: %+v", load, res)
		}
	}
}

func TestDeterminism(t *testing.T) {
	sn := mustSubnet(t, 4, 3, core.NewMLID())
	run := func(seed int64) Result {
		res, err := Run(Config{
			Subnet:      sn,
			Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
			OfferedLoad: 0.3,
			DataVLs:     2,
			WarmupNs:    10_000,
			MeasureNs:   50_000,
			Seed:        seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(5), run(5)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
	c := run(6)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

// TestOfferedMatchesAcceptedBelowSaturation: at modest uniform load the
// fabric delivers what is offered.
func TestOfferedMatchesAcceptedBelowSaturation(t *testing.T) {
	sn := mustSubnet(t, 8, 2, core.NewMLID())
	res, err := Run(Config{
		Subnet:      sn,
		Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
		OfferedLoad: 0.1,
		WarmupNs:    20_000,
		MeasureNs:   100_000,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatalf("saturated at 10%% load: %+v", res)
	}
	if res.Accepted < 0.095 || res.Accepted > 0.105 {
		t.Errorf("accepted %.4f, want ~0.1", res.Accepted)
	}
}

// TestSaturationCapsAccepted: offered load beyond link capacity cannot be
// accepted; the run must flag saturation and accepted must stay below 1.
func TestSaturationCapsAccepted(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	res, err := Run(Config{
		Subnet:      sn,
		Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
		OfferedLoad: 1.5,
		WarmupNs:    10_000,
		MeasureNs:   100_000,
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Errorf("not saturated at 150%% load: %+v", res)
	}
	if res.Accepted >= 1.0 {
		t.Errorf("accepted %.3f exceeds link capacity", res.Accepted)
	}
	if res.InFlightAtEnd == 0 {
		t.Error("saturated run ended with empty queues")
	}
}

// TestHotspotMLIDBeatsSLID is the paper's headline result as an integration
// test: under 50%-centric traffic at high load, MLID accepts strictly more
// traffic than SLID with the same single VL.
func TestHotspotMLIDBeatsSLID(t *testing.T) {
	run := func(s core.Scheme) Result {
		sn := mustSubnet(t, 8, 2, s)
		res, err := Run(Config{
			Subnet:      sn,
			Pattern:     traffic.Centric{Nodes: sn.Tree.Nodes(), Hotspot: 0, Fraction: 0.5},
			OfferedLoad: 0.4,
			WarmupNs:    20_000,
			MeasureNs:   150_000,
			Seed:        17,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	m, s := run(core.NewMLID()), run(core.NewSLID())
	if m.Accepted <= s.Accepted {
		t.Errorf("hotspot: MLID accepted %.4f <= SLID %.4f", m.Accepted, s.Accepted)
	}
}

// TestVLsHelpSLIDHotspot: adding virtual lanes relieves head-of-line
// blocking, so SLID with 4 VLs must beat SLID with 1 VL under uniform
// traffic at high load.
func TestVLsHelpSLIDUniform(t *testing.T) {
	run := func(vls int) Result {
		sn := mustSubnet(t, 8, 2, core.NewSLID())
		res, err := Run(Config{
			Subnet:      sn,
			Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
			OfferedLoad: 0.8,
			DataVLs:     vls,
			WarmupNs:    20_000,
			MeasureNs:   150_000,
			Seed:        19,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := run(1), run(4)
	if four.Accepted <= one.Accepted {
		t.Errorf("uniform: SLID 4VL accepted %.4f <= 1VL %.4f", four.Accepted, one.Accepted)
	}
}

// TestMisdeliveryDetected: corrupting a leaf switch's forwarding entry so a
// DLID lands on the wrong node must abort the run with an error.
func TestMisdeliveryDetected(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewSLID())
	tr := sn.Tree
	// Node 7's LID is 8 (PID+1). Its leaf switch forwards LID 8 down its
	// attachment port; rewire that entry to node 6's port.
	sw, port7 := tr.NodeAttachment(7)
	_, port6 := tr.NodeAttachment(6)
	if port6 == port7 {
		t.Fatal("test setup: ports equal")
	}
	if err := sn.LFTs[sw].Set(8, uint8(port6+1)); err != nil {
		t.Fatal(err)
	}
	_, err := Run(Config{
		Subnet:      sn,
		Pattern:     traffic.PermutationPattern{Label: "allto7", Perm: []int{7, 7, 7, 7, 7, 7, 7, 0}},
		OfferedLoad: 0.05,
		WarmupNs:    1_000,
		MeasureNs:   30_000,
		Seed:        23,
	})
	if err == nil || !strings.Contains(err.Error(), "delivered to node") {
		t.Fatalf("misdelivery not detected: %v", err)
	}
}

// TestUnroutedDLIDDetected: wiping an entry makes the switch unable to
// forward, which must surface as an error, not a hang.
func TestUnroutedDLIDDetected(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewSLID())
	// Corrupt every switch's entry for LID 8 by marking it unreachable.
	for _, lft := range sn.LFTs {
		if err := lft.Set(8, ib.PortNone); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Run(Config{
		Subnet:      sn,
		Pattern:     traffic.PermutationPattern{Label: "allto7", Perm: []int{7, 7, 7, 7, 7, 7, 7, 0}},
		OfferedLoad: 0.05,
		WarmupNs:    1_000,
		MeasureNs:   30_000,
		Seed:        29,
	})
	if err == nil || !strings.Contains(err.Error(), "cannot forward") {
		t.Fatalf("unrouted DLID not detected: %v", err)
	}
}

// TestBufferDepthImprovesThroughput: deeper per-VL buffers absorb more
// contention; accepted traffic at saturation must not decrease.
func TestBufferDepthImprovesThroughput(t *testing.T) {
	run := func(buf int) Result {
		sn := mustSubnet(t, 4, 3, core.NewMLID())
		res, err := Run(Config{
			Subnet:      sn,
			Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
			OfferedLoad: 0.9,
			BufPackets:  buf,
			WarmupNs:    20_000,
			MeasureNs:   100_000,
			Seed:        31,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shallow, deep := run(1), run(4)
	if deep.Accepted < shallow.Accepted*0.98 {
		t.Errorf("deeper buffers hurt: %.4f (4 pkts) vs %.4f (1 pkt)", deep.Accepted, shallow.Accepted)
	}
}

// TestDefaultsApplied: zero-valued optional fields pick the paper's model
// constants and the run behaves.
func TestDefaultsApplied(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	res, err := Run(Config{
		Subnet:      sn,
		Pattern:     traffic.Uniform{Nodes: sn.Tree.Nodes()},
		OfferedLoad: 0.05,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredWindow == 0 {
		t.Fatalf("no deliveries with defaults: %+v", res)
	}
}

// TestQuickNoHangRandomConfigs: random small configurations always terminate
// and conserve packets. Guards against event-loop deadlocks.
func TestQuickNoHangRandomConfigs(t *testing.T) {
	sn4 := mustSubnet(t, 4, 2, core.NewMLID())
	sn8 := mustSubnet(t, 8, 2, core.NewSLID())
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 12; i++ {
		sn := sn4
		if rng.Intn(2) == 0 {
			sn = sn8
		}
		pats := []traffic.Pattern{
			traffic.Uniform{Nodes: sn.Tree.Nodes()},
			traffic.Centric{Nodes: sn.Tree.Nodes(), Hotspot: rng.Intn(sn.Tree.Nodes()), Fraction: 0.5},
			traffic.BitReversal(sn.Tree.Nodes()),
		}
		cfg := Config{
			Subnet:      sn,
			Pattern:     pats[rng.Intn(len(pats))],
			OfferedLoad: 0.05 + rng.Float64()*1.2,
			DataVLs:     1 + rng.Intn(4),
			BufPackets:  1 + rng.Intn(3),
			PacketSize:  64 << rng.Intn(3),
			WarmupNs:    5_000,
			MeasureNs:   30_000,
			Seed:        int64(i),
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		if res.TotalDelivered > res.TotalGenerated || res.InFlightAtEnd < 0 {
			t.Fatalf("cfg %d: conservation: %+v", i, res)
		}
		if res.DeliveredWindow > 0 && res.MeanLatencyNs <= 0 {
			t.Fatalf("cfg %d: deliveries without latency: %+v", i, res)
		}
	}
}
