package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// Message is one batch transfer: Bytes from Src to Dst, split into packets.
type Message struct {
	Src, Dst topology.NodeID
	Bytes    int
}

// BatchConfig describes a closed-workload run: every node's messages are
// enqueued up front and the simulation runs until the fabric drains. The
// measured quantity is the makespan — the completion time of a collective
// exchange — rather than the open-loop accepted/latency pair.
type BatchConfig struct {
	Subnet   *ib.Subnet
	Messages []Message
	// DataVLs, PacketSize, BufPackets, FlyNs, RouteNs, NsPerByte, Reception,
	// PathSelect, VLSelect and Switching behave as in Config.
	DataVLs                   int
	PacketSize                int
	BufPackets                int
	FlyNs, RouteNs, NsPerByte Time
	Reception                 ReceptionModel
	PathSelect                Selector
	VLSelect                  VLPolicy
	Switching                 SwitchingMode
	// DLIDFunc overrides path selection, as in Config.DLIDFunc.
	DLIDFunc func(src, dst topology.NodeID) ib.LID
	Seed     int64
	// DeadlineNs aborts a run that has not drained (default 1e9 ns).
	DeadlineNs Time
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

// RunBatch executes a closed workload and returns its makespan.
func RunBatch(bc BatchConfig) (BatchResult, error) {
	if bc.Subnet == nil {
		return BatchResult{}, fmt.Errorf("sim: BatchConfig.Subnet is required")
	}
	if len(bc.Messages) == 0 {
		return BatchResult{}, fmt.Errorf("sim: no messages")
	}
	if bc.DeadlineNs == 0 {
		bc.DeadlineNs = 1_000_000_000
	}
	cfg := Config{
		Subnet:      bc.Subnet,
		Pattern:     batchPattern{}, // unused; generation is bypassed
		DataVLs:     bc.DataVLs,
		PacketSize:  bc.PacketSize,
		BufPackets:  bc.BufPackets,
		FlyNs:       bc.FlyNs,
		RouteNs:     bc.RouteNs,
		NsPerByte:   bc.NsPerByte,
		Reception:   bc.Reception,
		PathSelect:  bc.PathSelect,
		VLSelect:    bc.VLSelect,
		Switching:   bc.Switching,
		DLIDFunc:    bc.DLIDFunc,
		OfferedLoad: 1, // satisfies validation; no open-loop generators run
		WarmupNs:    0,
		MeasureNs:   bc.DeadlineNs,
		Seed:        bc.Seed,
	}
	cfg = cfg.withDefaults()
	// Batch runs measure everything from time zero.
	cfg.WarmupNs = 0
	cfg.MeasureNs = bc.DeadlineNs
	if err := cfg.validate(); err != nil {
		return BatchResult{}, err
	}
	s := build(cfg)
	defer s.release()
	s.end = bc.DeadlineNs

	// Enqueue every message's packets at time zero, in a deterministic
	// source-major order so same-source messages keep their given order.
	msgs := append([]Message{}, bc.Messages...)
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
			s.enqueueBatchPacket(m.Src, m.Dst)
			totalPkts++
		}
		totalBytes += int64(packets) * int64(cfg.PacketSize)
	}

	events := s.runUntil(bc.DeadlineNs)
	if s.err != nil {
		return BatchResult{}, s.err
	}
	if s.totalDelivered != totalPkts {
		return BatchResult{}, fmt.Errorf("sim: batch did not drain: %d of %d packets delivered by the %d ns deadline",
			s.totalDelivered, totalPkts, bc.DeadlineNs)
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

// batchPattern satisfies the Pattern interface for configuration validation;
// batch runs never invoke it.
type batchPattern struct{}

func (batchPattern) Name() string { return "batch" }
func (batchPattern) Dest(int, *rand.Rand) int {
	panic("sim: batch pattern must not generate")
}

// enqueueBatchPacket creates one packet at time zero and injects it through
// the node's source queue.
func (s *Sim) enqueueBatchPacket(src, dst topology.NodeID) {
	n := &s.nodes[src]
	var seq uint32
	if s.flowSeq != nil {
		seq = s.flowSeq[int(src)*s.tree.Nodes()+int(dst)] + 1
		s.flowSeq[int(src)*s.tree.Nodes()+int(dst)] = seq
	}
	dlid := s.selectDLID(n, src, dst, seq)
	s.totalGenerated++
	var vl int
	if s.cfg.VLSelect == VLByDLID {
		vl = int(dlid) % s.cfg.DataVLs
	} else {
		vl = n.nextVL
		n.nextVL = (n.nextVL + 1) % s.cfg.DataVLs
	}
	p := s.newPkt()
	p.Packet = ib.Packet{
		SLID:    s.cfg.Subnet.Endports[src].Base,
		DLID:    dlid,
		VL:      uint8(vl),
		Size:    s.cfg.PacketSize,
		Seq:     uint64(s.totalGenerated),
		Src:     int32(src),
		Dst:     int32(dst),
		GenTime: 0,
	}
	s.requestTransfer(s.nodePid(int32(src)), p)
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

// noteDelivery records the latest tail-delivery timestamp (the makespan).
func (s *Sim) noteDelivery(t Time) {
	if t > s.lastDelivery {
		s.lastDelivery = t
	}
}
