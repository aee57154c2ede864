package sim

import (
	"fmt"
	"sort"

	"mlid/internal/topology"
)

// Message is one batch transfer: Bytes from Src to Dst, split into packets.
type Message struct {
	Src, Dst topology.NodeID
	Bytes    int
}

// BatchResult reports a closed-workload run.
type BatchResult struct {
	// MakespanNs is the delivery time of the last packet.
	MakespanNs Time
	// Packets and Bytes count the delivered traffic.
	Packets, Bytes int64
	// AggregateBandwidth is Bytes / MakespanNs (bytes/ns across the fabric).
	AggregateBandwidth float64
	// MeanLatencyNs averages per-packet generation-to-delivery latency.
	MeanLatencyNs float64
	Events        int64
}

// RunBatch executes the closed workload cfg.Messages and returns its
// makespan — the completion time of a collective exchange — rather than the
// open-loop accepted/latency pair. Every message's packets are enqueued at
// time zero and the run ends when the fabric drains; statistics cover the
// whole run, and MeasureNs is the drain deadline (1e9 ns when zero).
//
// The open-loop fields (Pattern, OfferedLoad, WarmupNs) and the fields the
// batch loop never drives (FaultPlan, Transport, VerifyEpochs,
// CollectPortStats, TracePackets, SeriesIntervalNs) are rejected with an
// error naming the field, never ignored.
func RunBatch(cfg Config) (BatchResult, error) {
	if cfg.Subnet == nil {
		return BatchResult{}, fmt.Errorf("sim: Config.Subnet is required")
	}
	if len(cfg.Messages) == 0 {
		return BatchResult{}, fmt.Errorf("sim: RunBatch needs Config.Messages")
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Pattern", cfg.Pattern != nil},
		{"OfferedLoad", cfg.OfferedLoad != 0},
		{"WarmupNs", cfg.WarmupNs != 0},
		{"FaultPlan", cfg.FaultPlan != nil},
		{"Transport", cfg.Transport != nil},
		{"VerifyEpochs", cfg.VerifyEpochs},
		{"CollectPortStats", cfg.CollectPortStats},
		{"TracePackets", cfg.TracePackets != 0},
		{"SeriesIntervalNs", cfg.SeriesIntervalNs != 0},
	} {
		if f.set {
			return BatchResult{}, fmt.Errorf("sim: RunBatch does not honour Config.%s; leave it unset for a closed workload", f.name)
		}
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return BatchResult{}, err
	}
	s := build(cfg)
	defer s.release()
	s.end = cfg.MeasureNs

	// Enqueue every message's packets at time zero, in a deterministic
	// source-major order so same-source messages keep their given order.
	msgs := append([]Message{}, cfg.Messages...)
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].Src < msgs[j].Src })
	var totalPkts, totalBytes int64
	for _, m := range msgs {
		if !s.tree.ValidNode(m.Src) || !s.tree.ValidNode(m.Dst) || m.Src == m.Dst {
			return BatchResult{}, fmt.Errorf("sim: bad message %d -> %d", m.Src, m.Dst)
		}
		if m.Bytes <= 0 {
			return BatchResult{}, fmt.Errorf("sim: message %d -> %d has %d bytes", m.Src, m.Dst, m.Bytes)
		}
		packets := (m.Bytes + cfg.PacketSize - 1) / cfg.PacketSize
		for p := 0; p < packets; p++ {
			s.inject(int32(m.Src), int32(m.Dst))
			totalPkts++
		}
		totalBytes += int64(packets) * int64(cfg.PacketSize)
	}

	events := s.runUntil(cfg.MeasureNs)
	if s.err != nil {
		return BatchResult{}, s.err
	}
	if s.res.TotalDelivered != totalPkts {
		return BatchResult{}, fmt.Errorf("sim: batch did not drain: %d of %d packets delivered by the %d ns deadline",
			s.res.TotalDelivered, totalPkts, cfg.MeasureNs)
	}
	res := BatchResult{
		MakespanNs:    s.lastDelivery,
		Packets:       totalPkts,
		Bytes:         totalBytes,
		MeanLatencyNs: s.lat.Mean(),
		Events:        events,
	}
	if res.MakespanNs > 0 {
		res.AggregateBandwidth = float64(totalBytes) / float64(res.MakespanNs)
	}
	return res, nil
}

// AllToAll builds the classic staggered all-to-all personalized exchange:
// node i sends bytesPer to i+1, i+2, ..., wrapping around.
func AllToAll(t *topology.Tree, bytesPer int) []Message {
	n := t.Nodes()
	msgs := make([]Message, 0, n*(n-1))
	for src := 0; src < n; src++ {
		for step := 1; step < n; step++ {
			msgs = append(msgs, Message{
				Src:   topology.NodeID(src),
				Dst:   topology.NodeID((src + step) % n),
				Bytes: bytesPer,
			})
		}
	}
	return msgs
}

// Gather builds the all-to-one collective: every node sends bytesPer to root.
func Gather(t *topology.Tree, root topology.NodeID, bytesPer int) []Message {
	msgs := make([]Message, 0, t.Nodes()-1)
	for src := 0; src < t.Nodes(); src++ {
		if topology.NodeID(src) == root {
			continue
		}
		msgs = append(msgs, Message{Src: topology.NodeID(src), Dst: root, Bytes: bytesPer})
	}
	return msgs
}
