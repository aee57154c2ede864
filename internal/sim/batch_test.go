package sim

import (
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/topology"
	"mlid/internal/traffic"
)

func TestBatchSingleMessage(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	res, err := RunBatch(Config{
		Subnet:   sn,
		Messages: []Message{{Src: 0, Dst: 7, Bytes: 256}},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 1 || res.Bytes != 256 {
		t.Fatalf("%+v", res)
	}
	// One uncontended packet across 3 switches: 596 ns.
	if res.MakespanNs != 596 {
		t.Errorf("makespan %d, want 596", res.MakespanNs)
	}
	if res.MeanLatencyNs != 596 {
		t.Errorf("latency %v", res.MeanLatencyNs)
	}
}

func TestBatchMessageSplitsIntoPackets(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	res, err := RunBatch(Config{
		Subnet:   sn,
		Messages: []Message{{Src: 0, Dst: 7, Bytes: 1000}}, // 4 x 256B packets
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 4 || res.Bytes != 4*256 {
		t.Fatalf("%+v", res)
	}
	// Pipelined: first packet 596 ns, each further packet adds one
	// injection serialization plus queueing; makespan must be far below
	// 4 sequential transfers.
	if res.MakespanNs >= 4*596 {
		t.Errorf("makespan %d shows no pipelining", res.MakespanNs)
	}
	if res.MakespanNs <= 596 {
		t.Errorf("makespan %d impossibly fast", res.MakespanNs)
	}
}

func TestBatchValidation(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	if _, err := RunBatch(Config{Messages: []Message{{Src: 0, Dst: 1, Bytes: 1}}}); err == nil {
		t.Error("nil subnet accepted")
	}
	if _, err := RunBatch(Config{Subnet: sn}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := RunBatch(Config{Subnet: sn, Messages: []Message{{Src: 0, Dst: 0, Bytes: 1}}}); err == nil {
		t.Error("self message accepted")
	}
	if _, err := RunBatch(Config{Subnet: sn, Messages: []Message{{Src: 0, Dst: 1, Bytes: 0}}}); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := RunBatch(Config{Subnet: sn, Messages: []Message{{Src: 0, Dst: 99, Bytes: 1}}}); err == nil {
		t.Error("bad destination accepted")
	}
}

// TestBatchRejectsUnhonouredFields: every Config field a closed workload
// cannot honour fails RunBatch with an error naming it, and Run refuses a
// closed workload.
func TestBatchRejectsUnhonouredFields(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	msgs := []Message{{Src: 0, Dst: 7, Bytes: 256}}
	for _, tc := range []struct {
		field string
		set   func(c *Config)
	}{
		{"Pattern", func(c *Config) { c.Pattern = traffic.Uniform{Nodes: sn.Tree.Nodes()} }},
		{"OfferedLoad", func(c *Config) { c.OfferedLoad = 0.5 }},
		{"WarmupNs", func(c *Config) { c.WarmupNs = 1_000 }},
		{"FaultPlan", func(c *Config) { c.FaultPlan = &FaultPlan{} }},
		{"Transport", func(c *Config) { c.Transport = &TransportConfig{} }},
		{"VerifyEpochs", func(c *Config) { c.VerifyEpochs = true }},
		{"CollectPortStats", func(c *Config) { c.CollectPortStats = true }},
		{"TracePackets", func(c *Config) { c.TracePackets = 4 }},
		{"SeriesIntervalNs", func(c *Config) { c.SeriesIntervalNs = 1_000 }},
	} {
		cfg := Config{Subnet: sn, Messages: msgs, Seed: 1}
		tc.set(&cfg)
		if _, err := RunBatch(cfg); err == nil || !strings.Contains(err.Error(), "Config."+tc.field) {
			t.Errorf("%s set: err = %v, want a rejection naming Config.%s", tc.field, err, tc.field)
		}
	}
	_, err := Run(Config{
		Subnet: sn, Pattern: traffic.Uniform{Nodes: sn.Tree.Nodes()}, OfferedLoad: 0.1, Messages: msgs,
	})
	if err == nil || !strings.Contains(err.Error(), "Messages") {
		t.Errorf("Run with Messages: err = %v, want a rejection naming Messages", err)
	}
}

func TestBatchDeadline(t *testing.T) {
	sn := mustSubnet(t, 4, 2, core.NewMLID())
	_, err := RunBatch(Config{
		Subnet:    sn,
		Messages:  AllToAll(sn.Tree, 4096),
		MeasureNs: 100, // an absurdly short drain deadline
		Seed:      1,
	})
	if err == nil {
		t.Error("deadline not enforced")
	}
}

// TestBatchGatherMLIDFasterThanSLID: the all-to-one gather is the paper's
// congestion scenario as a collective; MLID's spread ascent and multiple
// descending paths finish it faster.
func TestBatchGatherMLIDFasterThanSLID(t *testing.T) {
	run := func(s core.Scheme) BatchResult {
		sn := mustSubnet(t, 8, 2, s)
		res, err := RunBatch(Config{
			Subnet:   sn,
			Messages: Gather(sn.Tree, 0, 4*256),
			Seed:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	m, sl := run(core.NewMLID()), run(core.NewSLID())
	if m.MakespanNs >= sl.MakespanNs {
		t.Errorf("gather makespan: MLID %d >= SLID %d", m.MakespanNs, sl.MakespanNs)
	}
}

// TestBatchAllToAllCompletes: the full personalized exchange drains and
// MLID's makespan is no worse than SLID's.
func TestBatchAllToAllCompletes(t *testing.T) {
	run := func(s core.Scheme) BatchResult {
		sn := mustSubnet(t, 8, 2, s)
		res, err := RunBatch(Config{
			Subnet:   sn,
			Messages: AllToAll(sn.Tree, 256),
			Seed:     5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	m, sl := run(core.NewMLID()), run(core.NewSLID())
	if m.Packets != int64(31*32) {
		t.Fatalf("packets %d", m.Packets)
	}
	if m.MakespanNs > sl.MakespanNs*11/10 {
		t.Errorf("all-to-all makespan: MLID %d much worse than SLID %d", m.MakespanNs, sl.MakespanNs)
	}
	if m.AggregateBandwidth <= 0 {
		t.Error("no aggregate bandwidth")
	}
}

// TestBatchDeterministic: same seed, same makespan.
func TestBatchDeterministic(t *testing.T) {
	sn := mustSubnet(t, 4, 3, core.NewMLID())
	msgs := AllToAll(sn.Tree, 512)
	a, err := RunBatch(Config{Subnet: sn, Messages: msgs, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBatch(Config{Subnet: sn, Messages: msgs, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("non-deterministic batch: %+v vs %+v", a, b)
	}
}

func TestGatherAndAllToAllBuilders(t *testing.T) {
	tr := topology.MustNew(4, 2)
	g := Gather(tr, 3, 100)
	if len(g) != tr.Nodes()-1 {
		t.Fatalf("gather %d messages", len(g))
	}
	for _, m := range g {
		if m.Dst != 3 || m.Src == 3 {
			t.Fatalf("bad gather message %+v", m)
		}
	}
	a := AllToAll(tr, 100)
	if len(a) != tr.Nodes()*(tr.Nodes()-1) {
		t.Fatalf("all-to-all %d messages", len(a))
	}
}
