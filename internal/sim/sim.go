package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mlid/internal/arena"
	"mlid/internal/ib"
	"mlid/internal/stats"
	"mlid/internal/topology"
)

// noPort is the nil value of a global port id (see Sim.ports): a packet not
// yet transmitted by any port, or a compiled forwarding entry with no route.
const noPort int32 = -1

// pktSlabSize is how many packets one backing-array allocation provides to
// newPkt; the free list recycles them for the rest of the run. The size is a
// power of two so a packet's stable slab index (pkt.idx) decomposes into
// (slab, offset) by shift and mask in pktAt.
const (
	pktSlabShift = 8
	pktSlabSize  = 1 << pktSlabShift
)

// pkt is an in-flight packet plus per-hop bookkeeping: the local route header
// fields that drive forwarding (DLID, VL, Size) and the model's own. Fields
// are ordered by width so the struct packs without padding holes.
type pkt struct {
	// next links the packet into the one queue it sits in (see pktList).
	next *pkt
	// trace records the packet's timeline when tracing is on.
	trace *PacketTrace
	// GenTime and InjectTime record when the packet was created and when it
	// first left its source endport.
	GenTime, InjectTime Time
	// arrival is the head-arrival time at the current switch.
	arrival Time
	// Size is the packet length in bytes, including headers.
	Size int

	// idx is the packet's stable slab index (see Sim.pktAt): events reference
	// packets by this index instead of by pointer, keeping the scheduler's
	// queues pointer-free. Assigned once when the slab is carved; newPkt
	// preserves it across recycling.
	idx int32
	// flowSeq is the packet's generation index within its (src, dst) flow.
	flowSeq uint32
	// Src and Dst are the endpoint indices.
	Src, Dst int32
	// inPort is the abstract input port at the current switch; the crossbar
	// arbiter round-robins over input ports.
	inPort int32
	// upstream is the global port id of the output port that transmitted the
	// packet on its last hop; its credit is returned when this hop's input
	// buffer frees. noPort while the packet sits in its source.
	upstream int32

	// cum and sack are an ACK/NAK control packet's cumulative and selective
	// acknowledgments (Config.Transport).
	cum, sack uint32

	// DLID alone determines the path; VL is the lane the packet travels on.
	DLID ib.LID
	VL   uint8
	// ctrl distinguishes data from ACK/NAK control packets; rexmit marks a
	// retransmission copy (Config.Transport).
	ctrl   uint8
	rexmit bool
}

// pktList is a FIFO of packets threaded through pkt.next. A packet sits in at
// most one queue at a time — a source queue, an output buffer or an input
// buffer's waiting list — so the queues own no storage of their own: an
// open-loop backlog costs nothing beyond the packets themselves.
type pktList struct{ head, tail *pkt }

func (q *pktList) empty() bool { return q.head == nil }

func (q *pktList) push(p *pkt) {
	p.next = nil
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
}

func (q *pktList) popFront() *pkt {
	p := q.head
	q.unlink(nil, p)
	return p
}

// unlink removes p from the list; prev is its predecessor, nil for the head.
func (q *pktList) unlink(prev, p *pkt) {
	if prev == nil {
		q.head = p.next
	} else {
		prev.next = p.next
	}
	if q.tail == p {
		q.tail = prev
	}
	p.next = nil
}

// vlFlow is the link-level flow-control state of one (port, VL): credits the
// transmitter holds for the receiver's input buffer, and packets resident in
// the transmitter's output buffer.
type vlFlow struct {
	credits   int32
	occupancy int32
}

// portState is the scalar state of one transmitting port — a switch output
// port or an endnode source. Ports live in one dense array indexed by global
// port id (switch sw's abstract port k is sw*M+k; node i's source is
// srcBase+i), and all per-(port, VL) state lives in parallel flat slices
// indexed pid*vls+vl (Sim.cv, .queues, .waiting, .rrIn), so
// the per-packet path walks index-addressed arrays instead of chasing
// per-port heap objects.
type portState struct {
	busyUntil Time
	busyAccum Time  // total time this link spent transmitting
	pktCount  int64 // packets transmitted

	// destNode >= 0 marks a link ending at that endnode; otherwise the link
	// ends at input port destPort of switch destSw.
	destNode int32
	destSw   int32
	destPort int32

	rrNext int32 // round-robin pointer over VLs (link arbitration)

	// limited marks switch output buffers (capacity BufPackets per VL);
	// endnode source queues are unbounded (open-loop injection).
	limited  bool
	isSource bool

	// dead marks a link killed by a FaultPlan event: nothing transmits on
	// it, and packets entering or arriving over it are dropped.
	dead      bool
	kickArmed bool
}

// nodeState is one endnode: an open-loop generator plus a sink. The k-th
// generation time is derived from the integer packet count (genTimeAt) rather
// than a float accumulator, so rounding error cannot drift over soak-length
// runs.
type nodeState struct {
	rng      *rand.Rand
	genPhase float64
	genCount int64
	nextVL   int
}

// Sim is one in-progress simulation run.
type Sim struct {
	engine
	cfg  Config
	tree *topology.Tree

	// Struct-of-arrays switch and source state, preallocated once per run.
	// m/vls are the indexing strides; srcBase is the global port id of node
	// 0's source port (switches*m).
	m, vls  int
	srcBase int32
	ports   []portState
	// Per-(port, VL) state, indexed pid*vls+vl. The credit and occupancy
	// counters share one struct so the flow-control updates a packet makes at
	// the same (port, VL) touch one cache line, not two parallel arrays.
	cv      []vlFlow
	queues  []pktList // packets in the output buffer (or source queue), FIFO
	waiting []pktList // packets stuck in input buffers upstream of the
	// crossbar, waiting for an output-buffer slot, in request order
	rrIn []int32 // round-robin pointer over input ports (crossbar arbitration)

	// lfts holds each switch's live forwarding table; fwd16/fwd32 is its
	// compiled form — one flat row of lftSize entries per switch mapping DLID
	// directly to the global port id of the output port (noPort: no route).
	// Compiled at build and recompiled entry-wise by applyLFTUpdate, so the
	// forwarding step is a single array read with no method call or error
	// construction. fwd16 is used whenever every global port id fits in an
	// int16 (every practical fabric): halving the table's footprint keeps the
	// hot rows cache-resident, and route's load of it is the single most
	// frequent memory access in a run. fwd32 is the fallback for enormous
	// fabrics; exactly one of the two is non-nil.
	lfts    []*ib.LFT
	fwd16   []int16
	fwd32   []int32
	lftSize int
	// lftOwn[sw] is the arena's own copy of a table the plan can dirty.
	lftOwn []ib.LFT
	// warmSink absorbs the hot path's cache-warming reads (swArrive touching
	// the compiled forwarding entry its evRoute will read, nodeArrive and
	// deliverIdeal touching the flow-ordering counter their evDeliver will
	// update). Summing into a field keeps the loads from being eliminated;
	// the value is never consumed.
	warmSink int64

	nodes []nodeState

	// selector is the resolved path-selection policy (Config.PathSelect,
	// rank when nil); selState is the per-(src,dst) flow-state array
	// stateful selectors pin choices in (flowspray's pin, adaptive's current
	// path), allocated only when the selector needs it. selCtx is the reused per-call context: selectors receive *SelectContext
	// through an interface, and a stack-local would escape to the heap on
	// every packet.
	selector Selector
	selState []uint32
	selCtx   SelectContext

	serPkt Time    // serialization time of a full packet
	ia     float64 // per-node open-loop interarrival in ns
	end    Time    // generation/measurement horizon

	err error

	// res is the run's Result, counted into in place: the data plane, fault,
	// transport and in-band SM code increment its counters directly, and
	// buildResult fills in only the derived fields. The window byte count,
	// the latency collector and the network-latency sum below are the
	// inputs of the derived Accepted and latency fields; network latency is
	// reported only as a mean, so it keeps a sum, not a histogram.
	res                  Result
	deliveredBytesWindow int64
	lat                  stats.LatencyCollector
	netLatSum            float64

	// flowSeq / flowHigh track per-(src,dst) generation sequence numbers
	// and the highest delivered one, for the reordering metric. nil when
	// the fabric is too large to track.
	flowSeq, flowHigh []uint32

	// lastDelivery is the latest tail-delivery timestamp (batch makespan).
	lastDelivery Time

	// pktFree recycles delivered packets; past it, newPkt carves slot
	// pktCarved of pktSlabs (which pktAt indexes by pkt.idx), appending a
	// slab when carving runs past the last one. A pkt on the free list is
	// dead: the model must never reference a packet after its evDeliver
	// dispatched (see DESIGN.md, "Event engine internals").
	pktFree   []*pkt
	pktSlabs  [][]pkt
	pktCarved int32

	// series is the delivery series, one bin per SeriesIntervalNs (see
	// seriesAt); buildResult turns it into Result.Series.
	series []seriesBin

	// reliable-transport state (Config.Transport); nil when disabled.
	transport *transportRun

	// live-fault state (Config.FaultPlan).
	faults *faultRun
}

// seriesBin accumulates one interval of the delivery series: the bytes,
// count and summed latency of the bin's deliveries, and the bin's share of
// the fault and transport counters.
type seriesBin struct {
	bytes, delivered                                    int64
	lat                                                 float64
	dropped, reroutes, retransmits, failed, unreachable int64
}

// nodePid returns the global port id of a node's source port.
func (s *Sim) nodePid(node int32) int32 { return s.srcBase + node }

// Run executes one simulation and returns its measurements.
func Run(cfg Config) (Result, error) {
	if len(cfg.Messages) > 0 {
		return Result{}, fmt.Errorf("sim: Run does not take Config.Messages; run a closed workload with RunBatch")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	s := build(cfg)
	defer s.release()
	s.end = cfg.WarmupNs + cfg.MeasureNs

	s.scheduleFaults()

	// Start every generator at a random phase within its first interval to
	// avoid lockstep injection.
	ia := s.interarrival()
	for i := range s.nodes {
		n := &s.nodes[i]
		n.genPhase = n.rng.Float64() * ia
		s.schedule(genTimeAt(n.genPhase, ia, 0), event{kind: evGenerate, a: int32(i)})
	}

	// With transport on, the run drains past the generation horizon so
	// outstanding retransmissions resolve into a delivery or a Failed count;
	// without it the horizon is the classic measurement end.
	horizon := s.end
	if s.transport != nil {
		horizon += s.transport.cfg.DrainNs
	}
	events := s.runUntil(horizon)
	if s.err != nil {
		return Result{}, s.err
	}
	return s.buildResult(horizon, events), nil
}

// buildResult completes a finished run's Result: the counters are already in
// s.res, so only the derived fields are computed here, and LatencyOctaves,
// Series and PortStats are built fresh rather than aliasing the arena.
func (s *Sim) buildResult(horizon Time, events int64) Result {
	cfg := s.cfg
	res := s.res
	res.Events, res.EndTime = events, s.now
	res.MeanLatencyNs = s.lat.Mean()
	res.P99LatencyNs = s.lat.Percentile(0.99)
	res.P999LatencyNs = s.lat.Percentile(0.999)
	res.MaxLatencyNs = s.lat.Max()
	res.LatencyOctaves = s.lat.Octaves()
	if res.DeliveredWindow > 0 {
		res.MeanNetLatencyNs = s.netLatSum / float64(res.DeliveredWindow)
	}
	if s.flowHigh == nil {
		res.OutOfOrder = -1
	}
	// Packets leave the books delivered, lost or written off. Dropped copies
	// are lost unless the transport retries them: then only Failed packets
	// are. Degraded packets (in-band SM) left the sender's books without a
	// Failed count.
	lost := res.DroppedTotal
	if s.transport != nil {
		lost = res.Failed
	}
	res.InFlightAtEnd = res.TotalGenerated - res.TotalDelivered - lost - res.UnreachableDegraded
	// FirstFaultNs holds -1 until a link dies and RecoveryNs the last table
	// update's time, -1 until one lands (see scheduleFaults).
	switch {
	case res.FirstFaultNs < 0:
		res.FirstFaultNs, res.RecoveryNs = 0, 0
	case res.RecoveryNs < 0:
		res.RecoveryNs = 0
	default:
		res.RecoveryNs -= res.FirstFaultNs
	}
	nodes := float64(s.tree.Nodes())
	res.Accepted = float64(s.deliveredBytesWindow) / float64(cfg.MeasureNs) / nodes
	res.Saturated = res.Accepted < 0.98*cfg.OfferedLoad
	var sum float64
	var links int
	for sw := 0; sw < s.tree.Switches(); sw++ {
		for k := 0; k < s.m; k++ {
			pt := &s.ports[sw*s.m+k]
			u := float64(pt.busyAccum) / float64(horizon)
			if u > res.MaxLinkUtilization {
				res.MaxLinkUtilization = u
			}
			sum += u
			links++
		}
	}
	for i := range s.nodes {
		pt := &s.ports[int(s.srcBase)+i]
		if u := float64(pt.busyAccum) / float64(horizon); u > res.MaxLinkUtilization {
			res.MaxLinkUtilization = u
		}
	}
	if links > 0 {
		res.MeanLinkUtilization = sum / float64(links)
	}
	iv := cfg.SeriesIntervalNs
	for bin, b := range s.series {
		sp := SeriesPoint{
			StartNs:     Time(bin) * iv,
			Accepted:    float64(b.bytes) / float64(iv) / nodes,
			Delivered:   b.delivered,
			Dropped:     b.dropped,
			Reroutes:    b.reroutes,
			Retransmits: b.retransmits,
			Failed:      b.failed,
			Unreachable: b.unreachable,
		}
		if b.delivered > 0 {
			sp.MeanLatencyNs = b.lat / float64(b.delivered)
		}
		res.Series = append(res.Series, sp)
	}
	if cfg.CollectPortStats {
		for sw := 0; sw < s.tree.Switches(); sw++ {
			for port := 0; port < s.m; port++ {
				pt := &s.ports[sw*s.m+port]
				if pt.pktCount == 0 {
					continue
				}
				res.PortStats = append(res.PortStats, PortStat{
					Switch: int32(sw), Port: port,
					BusyNs: pt.busyAccum, Packets: pt.pktCount,
					Utilization: float64(pt.busyAccum) / float64(horizon),
				})
			}
		}
		for ni := range s.nodes {
			pt := &s.ports[int(s.srcBase)+ni]
			if pt.pktCount == 0 {
				continue
			}
			res.PortStats = append(res.PortStats, PortStat{
				IsNode: true, Node: int32(ni),
				BusyNs: pt.busyAccum, Packets: pt.pktCount,
				Utilization: float64(pt.busyAccum) / float64(horizon),
			})
		}
		sort.Slice(res.PortStats, func(i, j int) bool {
			a, b := res.PortStats[i], res.PortStats[j]
			if a.BusyNs != b.BusyNs {
				return a.BusyNs > b.BusyNs
			}
			if a.IsNode != b.IsNode {
				return !a.IsNode
			}
			if a.Switch != b.Switch {
				return a.Switch < b.Switch
			}
			if a.Port != b.Port {
				return a.Port < b.Port
			}
			return a.Node < b.Node
		})
	}
	return res
}

// build prepares a run of cfg on recycled state from pool: every buffer
// keeps its backing array when the capacity suffices and is cleared, so a
// sweep's runs reuse one arena per worker instead of reallocating it. A
// buffer the run does not use (the transport tables of a run without
// transport, say) is dropped rather than carried along.
func build(cfg Config) *Sim {
	t := cfg.Subnet.Tree
	S, M, N := t.Switches(), t.M(), t.Nodes()
	s := pool.Get()
	prev := *s
	prev.engine.reset()
	faults := prev.faults
	if faults == nil {
		faults = &faultRun{}
	}
	reselMask, reselEpoch := faults.reselMask, faults.reselEpoch
	*faults = faultRun{}
	*s = Sim{
		engine:  prev.engine,
		cfg:     cfg,
		tree:    t,
		m:       M,
		srcBase: int32(S * M),
		serPkt:  Time(cfg.PacketSize) * DefaultNsPerByte,
		ia:      float64(cfg.PacketSize) * float64(DefaultNsPerByte) / cfg.OfferedLoad,
		faults:  faults,
		res:     Result{OfferedLoad: cfg.OfferedLoad},
		// Packet slabs outlive the run: newPkt carves them again from slot
		// zero, re-zeroing each packet.
		pktSlabs: prev.pktSlabs,
		pktFree:  prev.pktFree[:0],
		// The series grows by appending zeroed bins (seriesAt).
		series: prev.series[:0],
		// The latency histogram keeps the rows earlier runs touched.
		lat: prev.lat,
	}
	s.lat.Reset()
	s.engine.heapOnly = cfg.HeapOnlyScheduler
	// The reliable transport claims one management VL for ACK/NAK traffic on
	// top of the data VLs; without it the port arrays keep their classic
	// shape, byte for byte.
	vls := cfg.DataVLs
	if cfg.Transport != nil {
		vls++
	}
	s.vls = vls
	numPorts := S*M + N
	s.ports = arena.Recycle(prev.ports, numPorts)
	s.cv = arena.Recycle(prev.cv, numPorts*vls)
	s.queues = arena.Recycle(prev.queues, numPorts*vls)
	s.waiting = arena.Recycle(prev.waiting, numPorts*vls)
	s.rrIn = arena.Recycle(prev.rrIn, numPorts*vls)
	for i := range s.cv {
		s.cv[i].credits = int32(cfg.BufPackets)
	}
	// Live tables diverge from the configured subnet once the SM model
	// starts applying timed updates, but only at the switches the plan's
	// faults can dirty: those get copies in lftOwn, so the caller's subnet
	// stays pristine (and serves as the repair baseline); every other switch
	// reads the subnet's own table, which nothing writes.
	s.lfts = append(prev.lfts[:0], cfg.Subnet.LFTs...)
	s.lftOwn = arena.RecycleKeep(prev.lftOwn, S, func(*ib.LFT) {})
	if cfg.FaultPlan != nil {
		cfg.FaultPlan.markWritable(t, func(sw int32) { s.lfts[sw] = cfg.Subnet.LFTs[sw].CloneInto(&s.lftOwn[sw]) })
	}
	for sw := 0; sw < S; sw++ {
		if n := s.lfts[sw].Size(); n > s.lftSize {
			s.lftSize = n
		}
		for k := 0; k < M; k++ {
			ref := t.SwitchNeighbor(topology.SwitchID(sw), k)
			pt := &s.ports[sw*M+k]
			pt.limited = true
			pt.destNode = -1
			switch ref.Kind {
			case topology.KindNode:
				pt.destNode = int32(ref.Node)
			case topology.KindSwitch:
				pt.destSw = int32(ref.Switch)
				pt.destPort = int32(ref.Port)
			}
		}
	}
	if maxPid := S*M + N - 1; maxPid <= math.MaxInt16 {
		s.fwd16 = arena.Recycle(prev.fwd16, S*s.lftSize)
	} else {
		s.fwd32 = arena.Recycle(prev.fwd32, S*s.lftSize)
	}
	for sw := 0; sw < S; sw++ {
		s.compileLFT(int32(sw))
	}
	// Each node keeps its generator: Seed restarts the stream exactly where
	// a fresh rand.New(rand.NewSource(seed)) would begin.
	s.nodes = arena.RecycleKeep(prev.nodes, N, func(n *nodeState) { *n = nodeState{rng: n.rng} })
	for p := 0; p < N; p++ {
		sw, port := t.NodeAttachment(topology.NodeID(p))
		pt := &s.ports[int(s.srcBase)+p]
		pt.isSource = true
		pt.destNode = -1
		pt.destSw = int32(sw)
		pt.destPort = int32(port)
		seed := cfg.Seed*1_000_003 + int64(p)
		if n := &s.nodes[p]; n.rng == nil {
			n.rng = rand.New(rand.NewSource(seed))
		} else {
			n.rng.Seed(seed)
		}
	}
	if N <= 4096 {
		s.flowSeq = arena.Recycle(prev.flowSeq, N*N)
		s.flowHigh = arena.Recycle(prev.flowHigh, N*N)
	}
	s.selector = cfg.PathSelect
	if s.selector == nil {
		s.selector = SelectRank()
	}
	if s.selector.NeedsFlowState() {
		// validate capped stateful selectors at 4096 nodes.
		s.selState = arena.Recycle(prev.selState, N*N)
	}
	if plan := cfg.FaultPlan; plan != nil && plan.Reselect && N <= 4096 {
		s.faults.reselMask = arena.Recycle(reselMask, N*N)
		s.faults.reselEpoch = arena.Recycle(reselEpoch, N*N)
	}
	if cfg.Transport != nil {
		tr := prev.transport
		if tr == nil {
			tr = &transportRun{}
		}
		tr.reset(*cfg.Transport, uint8(cfg.DataVLs), N*N) // mgmt VL: the last index, claimed above
		s.transport = tr
		s.res.DrainedNs = cfg.Transport.DrainNs
	}
	return s
}

// compileLFT rebuilds one switch's compiled forwarding row from its live
// table. Called at build for every switch; fault-time table rewrites
// recompile entry-wise in applyLFTUpdate instead.
func (s *Sim) compileLFT(sw int32) {
	base := int(sw) * s.lftSize
	lft := s.lfts[sw]
	for lid := 0; lid < s.lftSize; lid++ {
		s.setFwd(base+lid, s.compileEntry(sw, lft.Port(ib.LID(lid))))
	}
}

// fwdAt reads one compiled forwarding entry; setFwd writes one. Only the
// build/recompile paths and the cold fault-probe use these — route inlines
// the fwd16 read directly.
func (s *Sim) fwdAt(i int) int32 {
	if s.fwd16 != nil {
		return int32(s.fwd16[i])
	}
	return s.fwd32[i]
}

func (s *Sim) setFwd(i int, pid int32) {
	if s.fwd16 != nil {
		s.fwd16[i] = int16(pid)
		return
	}
	s.fwd32[i] = pid
}

// compileEntry fuses one raw LFT entry (a 1-based physical port) into the
// global port id of the switch's output port, or noPort when the entry names
// no usable port.
func (s *Sim) compileEntry(sw int32, phys uint8) int32 {
	out := int(phys) - 1
	if phys == ib.PortNone || out < 0 || out >= s.m {
		return noPort
	}
	return sw*int32(s.m) + int32(out)
}

// interarrival returns the per-node packet spacing in ns, computed once at
// build (generate derives every deadline from it; recomputing the division
// per packet was measurable).
func (s *Sim) interarrival() float64 { return s.ia }

// runUntil processes events in order until the queue is empty or the next
// event is later than end. It returns the number of events processed.
func (s *Sim) runUntil(end Time) int64 {
	var n int64
	for {
		ev, ok := s.pop(end)
		if !ok {
			break
		}
		s.dispatch(ev)
		n++
	}
	return n
}

// dispatch runs one typed event. This switch replaces the per-event closure
// of the original engine; it is the single place event kinds gain meaning.
func (s *Sim) dispatch(ev event) {
	switch ev.kind {
	case evGenerate:
		s.generate(ev.a)
	case evRoute:
		s.route(ev.a, s.pktAt(ev.pi))
	case evSwArrive:
		s.swArrive(ev.a, ev.b, s.pktAt(ev.pi))
	case evNodeArrive:
		s.nodeArrive(ev.a, s.pktAt(ev.pi))
	case evDeliver:
		// The event fires exactly at the packet's tail-arrival time.
		p := s.pktAt(ev.pi)
		s.deliver(ev.a, p, s.now)
		s.freePkt(p)
	case evCredit:
		s.creditArrive(ev.a, int(ev.b))
	case evKick:
		s.ports[ev.a].kickArmed = false
		s.kick(ev.a)
	case evRelease:
		s.releaseSlot(ev.a, int(ev.b))
	case evLinkDown:
		s.linkDown(ev.a, int(ev.b))
	case evLinkUp:
		s.linkUp(ev.a, int(ev.b))
	case evTrap:
		s.smReact(s.faults.deadLinks)
	case evLFTUpdate:
		s.applyLFTUpdate(int(ev.a))
	case evRexmit:
		s.rexmitTimer(ev.a, ev.b, ev.pi != 0)
	case evTrapArrive:
		s.trapArrive(ev.a, ev.b, ev.pi != 0)
	case evSMSweep:
		s.smSweep()
	case evSMPArrive:
		s.smpArrive(int(ev.a))
	case evSMPAck:
		s.smpAck(int(ev.a))
	case evSMPTimeout:
		s.smpTimeout(int(ev.a), ev.b)
	default:
		s.fail(fmt.Errorf("sim: unknown event kind %d (engine bug)", ev.kind))
	}
}

// newPkt returns a zeroed packet (upstream set to noPort), reusing a
// delivered one when available and carving the next slab slot otherwise, so
// packet churn costs one allocation per pktSlabSize packets. Slabs carry over
// from the recycled run, so a new slab is allocated only once carving passes
// every slab an earlier run left behind.
func (s *Sim) newPkt() *pkt {
	var p *pkt
	if n := len(s.pktFree); n > 0 {
		p = s.pktFree[n-1]
		s.pktFree = s.pktFree[:n-1]
	} else {
		if int(s.pktCarved) == len(s.pktSlabs)<<pktSlabShift {
			slab := make([]pkt, pktSlabSize)
			for j := range slab {
				slab[j].idx = s.pktCarved + int32(j)
			}
			s.pktSlabs = append(s.pktSlabs, slab)
		}
		p = s.pktAt(s.pktCarved)
		s.pktCarved++
	}
	*p = pkt{idx: p.idx, upstream: noPort}
	return p
}

// pktAt resolves a packet's stable slab index (pkt.idx) back to its handle.
// Events store this index instead of a *pkt so the scheduler's backing arrays
// hold no pointers.
func (s *Sim) pktAt(pi int32) *pkt {
	return &s.pktSlabs[pi>>pktSlabShift][pi&(pktSlabSize-1)]
}

// freePkt returns a delivered packet to the free list. The caller guarantees
// no live reference to p remains anywhere in the model.
func (s *Sim) freePkt(p *pkt) {
	s.pktFree = append(s.pktFree, p)
}

// generate creates one packet at the node for a destination the traffic
// pattern draws, and schedules the next generation.
func (s *Sim) generate(node int32) {
	n := &s.nodes[node]
	s.inject(node, int32(s.cfg.Pattern.Dest(int(node), n.rng)))
	n.genCount++
	next := genTimeAt(n.genPhase, s.ia, n.genCount)
	if next <= s.end {
		s.schedule(next, event{kind: evGenerate, a: node})
	}
}

// inject creates one data packet from src to dst at the current time, picks
// its path and virtual lane, and hands it to the source's queue: the one
// injection path of the open-loop generator and of a closed workload.
func (s *Sim) inject(src, dst int32) {
	n := &s.nodes[src]
	// The packet's flow sequence number is chosen before path selection so
	// per-packet selectors (pktspray) can key their rotation on it.
	seq := uint32(n.genCount)
	if s.flowSeq != nil {
		i := s.flowIdx(src, dst)
		s.flowSeq[i]++
		seq = s.flowSeq[i]
	}
	dlid := s.selectDLID(n, topology.NodeID(src), topology.NodeID(dst), seq)
	s.res.TotalGenerated++
	if s.now >= s.cfg.WarmupNs && s.now < s.end {
		s.res.GeneratedWindow++
	}
	vl := s.dataVL(n, dlid)
	p := s.newPkt()
	p.DLID, p.VL, p.Size = dlid, vl, s.cfg.PacketSize
	p.Src, p.Dst, p.GenTime = src, dst, s.now
	p.flowSeq = seq
	if len(s.res.Traces) < s.cfg.TracePackets {
		p.trace = &PacketTrace{
			Seq: uint64(s.res.TotalGenerated), Src: src, Dst: dst,
			DLID: uint16(dlid), VL: vl, GenNs: s.now,
		}
		s.res.Traces = append(s.res.Traces, p.trace)
	}
	if s.transport != nil {
		// Track before injecting: a packet dropped at a dead source link is
		// still unacknowledged and will be retried by the flow's timer.
		s.txTrack(src, p)
	}
	s.requestTransfer(s.nodePid(src), p)
}

// dataVL picks a data packet's virtual lane under Config.VLSelect: pinned by
// DLID, or the source's next lane in round-robin order.
func (s *Sim) dataVL(n *nodeState, dlid ib.LID) uint8 {
	if s.cfg.VLSelect == VLByDLID {
		return uint8(int(dlid) % s.cfg.DataVLs)
	}
	vl := n.nextVL
	n.nextVL = (n.nextVL + 1) % s.cfg.DataVLs
	return uint8(vl)
}

// genTimeAt returns the k-th generation time of a source with the given
// random phase and interarrival spacing. Deriving each time from the integer
// packet count (rather than accumulating a float) keeps the realized
// injection rate within one rounding of OfferedLoad at any horizon.
func genTimeAt(phase, ia float64, k int64) Time {
	return Time(math.Round(phase + float64(k)*ia))
}

// selectDLID applies the configured path-selection policy for one packet.
// Composition order is fixed: fault-avoiding reselection (FaultPlan.Reselect)
// first filters the destination's LID offsets down to those naming surviving
// paths, then the selector chooses within the survivors. seq is the packet's
// sequence number within its (src, dst) flow.
func (s *Sim) selectDLID(n *nodeState, src, dst topology.NodeID, seq uint32) ib.LID {
	r := s.cfg.Subnet.Endports[dst]
	count := r.Count()
	if count > 64 {
		count = 64 // the usable mask tracks at most 64 offsets
	}
	fullMask := ^uint64(0) >> uint(64-count)
	mask := fullMask
	if s.reselectActive() {
		if m := s.usableMask(src, dst); m != 0 {
			// A zero mask (every tracked path dead) keeps the full mask:
			// selection proceeds normally and the packet documents the
			// outage by dropping at the dead link.
			mask = m
		}
	}
	canonical := int(s.cfg.Subnet.DLID(src, dst)) - int(r.Base)
	if canonical < 0 || canonical >= count {
		canonical = 0
	}
	c := &s.selCtx
	*c = SelectContext{
		Src: src, Dst: dst, Seq: seq, RNG: n.rng,
		Base: r.Base, Count: count, Mask: mask, Full: mask == fullMask,
		Canonical: canonical,
		View: CongestionView{
			s:       s,
			fwdBase: int(s.ports[s.nodePid(int32(src))].destSw)*s.lftSize + int(r.Base),
			dataVLs: s.cfg.DataVLs,
			maxCred: s.cfg.DataVLs * s.cfg.BufPackets,
		},
	}
	if s.selState != nil {
		c.state = &s.selState[int(src)*s.tree.Nodes()+int(dst)]
	}
	off, rerouted := s.selector.Select(c)
	if rerouted {
		s.res.Reroutes++
		if b := s.seriesAt(s.now); b != nil {
			b.reroutes++
		}
	}
	return r.Base + ib.LID(off)
}

// swArrive handles a packet head reaching a switch input port: after the
// crossbar routing delay the forwarding table names the output port and the
// packet requests an output-buffer slot.
func (s *Sim) swArrive(sw int32, inPort int32, p *pkt) {
	if p.upstream >= 0 && s.ports[p.upstream].dead {
		// The link died while the packet was flying or serializing on it.
		s.res.DroppedOnDeadLink++
		s.dropPkt(p)
		return
	}
	p.arrival = s.now
	p.inPort = inPort
	if p.trace != nil {
		p.trace.Hops = append(p.trace.Hops, TraceHop{Switch: sw, ArriveNs: s.now})
	}
	delay := DefaultRouteNs
	if s.cfg.Switching == SwitchingSAF {
		// Store-and-forward: the table lookup waits for the tail.
		delay += s.serPkt
	}
	s.schedule(s.now+delay, event{kind: evRoute, a: sw, pi: p.idx})
	// Touch the compiled forwarding entry this packet's evRoute will read, so
	// the cache line is warm when the routing delay elapses. The summed-into-
	// a-sink read cannot be dead-code-eliminated and has no model effect: the
	// authoritative lookup still happens at route time, after any table
	// rewrite that lands in between.
	if i := int(sw)*s.lftSize + int(p.DLID); i < len(s.fwd16) {
		s.warmSink += int64(s.fwd16[i])
	}
}

// warmFlowHigh touches the flow-ordering counter the packet's evDeliver will
// update, so the line is warm at delivery time. No model effect; see warmSink.
func (s *Sim) warmFlowHigh(p *pkt) {
	if s.flowHigh != nil {
		s.warmSink += int64(s.flowHigh[s.flowIdx(p.Src, p.Dst)])
	}
}

// route fires when the crossbar routing delay elapses: the compiled
// forwarding row names the output port in one array read and the packet
// requests an output-buffer slot.
func (s *Sim) route(sw int32, p *pkt) {
	if int(p.DLID) >= s.lftSize {
		s.routeFail(sw, p)
		return
	}
	var pid int32
	if i := int(sw)*s.lftSize + int(p.DLID); s.fwd16 != nil {
		pid = int32(s.fwd16[i])
	} else {
		pid = s.fwd32[i]
	}
	if pid < 0 {
		s.routeFail(sw, p)
		return
	}
	pt := &s.ports[pid]
	if pt.dead {
		// The table — stale before the SM's repair lands, or holding an
		// irreparable descending entry after it — forwards onto a dead
		// link. Never silently misroute: count and drop.
		s.res.DroppedAtDeadLink++
		s.dropPkt(p)
		return
	}
	if s.cfg.Reception == ReceptionIdeal && pt.destNode >= 0 {
		s.deliverIdeal(pt.destNode, p)
		return
	}
	s.requestTransfer(pid, p)
}

// routeFail aborts the run on a forwarding miss, reproducing the diagnostics
// of the uncompiled path: the raw table distinguishes a missing entry from
// one naming an out-of-range port.
func (s *Sim) routeFail(sw int32, p *pkt) {
	phys, err := s.lfts[sw].Lookup(p.DLID)
	if err != nil {
		s.fail(fmt.Errorf("sim: switch %d cannot forward DLID %d: %w", sw, p.DLID, err))
		return
	}
	s.fail(fmt.Errorf("sim: switch %d forwards DLID %d to invalid port %d", sw, p.DLID, phys))
}

// requestTransfer asks for an output-buffer slot on (pid, p.VL). If the
// buffer is full the packet waits in its input buffer (virtual cut-through:
// the whole packet collapses there), holding the upstream credit.
func (s *Sim) requestTransfer(pid int32, p *pkt) {
	pt := &s.ports[pid]
	if pt.dead {
		// Injection into a dead link (a source whose attachment link is
		// down, or a flush race); route-time drops are counted separately.
		s.res.DroppedOnDeadLink++
		s.dropPkt(p)
		return
	}
	i := int(pid)*s.vls + int(p.VL)
	if pt.limited && s.cv[i].occupancy >= int32(s.cfg.BufPackets) {
		s.waiting[i].push(p)
		return
	}
	s.cv[i].occupancy++
	s.completeTransfer(pid, p)
}

// completeTransfer moves the packet across the crossbar into the output
// buffer. The input buffer it came from frees once the tail has both arrived
// (arrival + serialization) and moved on — at which point the credit flies
// back to the upstream transmitter.
func (s *Sim) completeTransfer(pid int32, p *pkt) {
	vl := int(p.VL)
	if p.upstream >= 0 {
		free := p.arrival + s.serPkt
		if s.now > free {
			free = s.now
		}
		s.schedule(free+DefaultFlyNs, event{kind: evCredit, a: p.upstream, b: int32(vl)})
		p.upstream = noPort
	}
	s.queues[int(pid)*s.vls+vl].push(p)
	s.kick(pid)
}

// kick runs the output port's arbitration: when the link is idle it starts
// transmitting the next ready packet, picking among virtual lanes with
// queued packets and available credits in round-robin order.
func (s *Sim) kick(pid int32) {
	pt := &s.ports[pid]
	if pt.kickArmed || pt.dead {
		return
	}
	base := int(pid) * s.vls
	n := s.vls
	qs := s.queues[base : base+n]
	if pt.busyUntil > s.now {
		// Re-arbitrate when the link frees, if anything is pending.
		for vl := range qs {
			if !qs[vl].empty() {
				pt.kickArmed = true
				s.schedule(pt.busyUntil, event{kind: evKick, a: pid})
				return
			}
		}
		return
	}
	cr := s.cv[base : base+n]
	for i := 0; i < n; i++ {
		vl := (int(pt.rrNext) + i) % n
		if !qs[vl].empty() && cr[vl].credits > 0 {
			pt.rrNext = int32((vl + 1) % n)
			s.transmit(pid, vl)
			s.kick(pid) // arm for the next pending packet, if any
			return
		}
	}
}

// transmit starts serializing the head packet of the VL onto the link.
func (s *Sim) transmit(pid int32, vl int) {
	i := int(pid)*s.vls + vl
	p := s.queues[i].popFront()
	s.cv[i].credits--
	if s.cv[i].credits < 0 {
		s.fail(fmt.Errorf("sim: credit underflow on VL %d (model bug)", vl))
		return
	}
	pt := &s.ports[pid]
	start := s.now
	pt.busyUntil = start + s.serPkt
	pt.busyAccum += s.serPkt
	pt.pktCount++
	if pt.isSource {
		p.InjectTime = start
	}
	if p.trace != nil {
		if pt.isSource {
			p.trace.InjectNs = start
		} else if n := len(p.trace.Hops); n > 0 {
			p.trace.Hops[n-1].DepartNs = start
		}
	}
	if pt.limited {
		s.schedule(pt.busyUntil, event{kind: evRelease, a: pid, b: int32(vl)})
	} else {
		s.cv[i].occupancy--
	}
	p.upstream = pid
	if pt.destNode >= 0 {
		s.schedule(start+DefaultFlyNs, event{kind: evNodeArrive, a: pt.destNode, pi: p.idx})
	} else {
		s.schedule(start+DefaultFlyNs, event{kind: evSwArrive, a: pt.destSw, b: pt.destPort, pi: p.idx})
	}
}

// releaseSlot frees an output-buffer slot when a packet's tail has left the
// switch, admitting one waiting input-buffered packet of that VL. The
// crossbar arbiter serves input ports in round-robin order (ties within an
// input port go to the oldest packet), the way a physical crossbar allocator
// shares an output among its contending inputs.
func (s *Sim) releaseSlot(pid int32, vl int) {
	i := int(pid)*s.vls + vl
	s.cv[i].occupancy--
	if s.cv[i].occupancy < 0 {
		s.fail(fmt.Errorf("sim: output-buffer occupancy underflow on VL %d (model bug)", vl))
		return
	}
	w := &s.waiting[i]
	if w.empty() {
		return
	}
	// Pick the waiting packet whose input port follows the round-robin
	// pointer most closely; the waiting list is in request order, so the
	// first match per input port is that port's oldest packet.
	const big = int(^uint(0) >> 1)
	var p, pPrev, prev *pkt
	bestDist := big
	for q := w.head; q != nil; prev, q = q, q.next {
		d := int(q.inPort - s.rrIn[i])
		if d < 0 {
			d += 1 << 16 // any bound larger than the port count works
		}
		if d < bestDist {
			p, pPrev, bestDist = q, prev, d
		}
	}
	w.unlink(pPrev, p)
	s.rrIn[i] = p.inPort + 1
	s.cv[i].occupancy++
	s.completeTransfer(pid, p)
}

// creditArrive returns one credit to the transmitter and re-arbitrates.
func (s *Sim) creditArrive(pid int32, vl int) {
	i := int(pid)*s.vls + vl
	s.cv[i].credits++
	if s.cv[i].credits > int32(s.cfg.BufPackets) {
		s.fail(fmt.Errorf("sim: credit overflow on VL %d: %d > %d (model bug)",
			vl, s.cv[i].credits, s.cfg.BufPackets))
		return
	}
	s.kick(pid)
}

// deliverIdeal consumes a routed packet at its destination's leaf switch
// under ReceptionIdeal: the final hop contributes its uncontended flying and
// serialization time to latency, the input buffer frees once the tail has
// streamed through, and no shared final-link resource exists.
func (s *Sim) deliverIdeal(node int32, p *pkt) {
	tail := s.now + DefaultFlyNs + s.serPkt
	s.schedule(tail, event{kind: evDeliver, a: node, pi: p.idx})
	s.warmFlowHigh(p)
	if p.upstream >= 0 {
		free := p.arrival + s.serPkt
		if s.now > free {
			free = s.now
		}
		s.schedule(free+DefaultFlyNs, event{kind: evCredit, a: p.upstream, b: int32(p.VL)})
		p.upstream = noPort
	}
}

// nodeArrive handles a packet head reaching its destination endnode. The
// packet is consumed as it streams in: delivery completes at tail arrival,
// and the input buffer's credit returns immediately after.
func (s *Sim) nodeArrive(node int32, p *pkt) {
	if p.upstream >= 0 && s.ports[p.upstream].dead {
		s.res.DroppedOnDeadLink++
		s.dropPkt(p)
		return
	}
	tail := s.now + s.serPkt
	up := p.upstream
	vl := int32(p.VL)
	p.upstream = noPort
	s.schedule(tail, event{kind: evDeliver, a: node, pi: p.idx})
	s.warmFlowHigh(p)
	if up >= 0 {
		// Guard against a missing upstream (as deliverIdeal and
		// completeTransfer do): scheduling evCredit for noPort would index
		// out of the port array in dispatch.
		s.schedule(tail+DefaultFlyNs, event{kind: evCredit, a: up, b: vl})
	}
}

// deliver finalizes a packet at its destination: correctness check,
// transport processing (ACK/NAK handling, duplicate suppression),
// ordering check, and window statistics.
func (s *Sim) deliver(node int32, p *pkt, tail Time) {
	if p.Dst != node {
		s.fail(fmt.Errorf("sim: packet %d of flow %d->%d delivered to node %d (DLID %d)",
			p.flowSeq, p.Src, p.Dst, node, p.DLID))
		return
	}
	if s.transport != nil {
		if p.ctrl != ctrlData {
			s.ctrlArrive(node, p)
			return
		}
		if !s.rxAccept(node, p) {
			return // duplicate: counted, not delivered again
		}
		if p.rexmit {
			s.res.LastRecoveredNs = tail
		}
	}
	s.res.TotalDelivered++
	if tail > s.lastDelivery {
		s.lastDelivery = tail
	}
	if s.flowHigh != nil {
		idx := s.flowIdx(p.Src, p.Dst)
		if p.flowSeq < s.flowHigh[idx] {
			s.res.OutOfOrder++
		} else {
			s.flowHigh[idx] = p.flowSeq
		}
	}
	if b := s.seriesAt(tail); b != nil {
		b.bytes += int64(p.Size)
		b.delivered++
		b.lat += float64(tail - p.GenTime)
	}
	if p.trace != nil {
		p.trace.DeliverNs = tail
		if n := len(p.trace.Hops); n > 0 && p.trace.Hops[n-1].DepartNs == 0 {
			// Ideal reception consumes at the leaf; mark the hand-off.
			p.trace.Hops[n-1].DepartNs = tail - s.serPkt - DefaultFlyNs
		}
	}
	if tail >= s.cfg.WarmupNs && tail < s.end {
		s.res.DeliveredWindow++
		s.deliveredBytesWindow += int64(p.Size)
		s.lat.Add(float64(tail - p.GenTime))
		s.netLatSum += float64(tail - p.InjectTime)
	}
}

// seriesAt returns the series bin covering t, growing the series to reach
// it, or nil when the run keeps no series or t is past the generation
// horizon.
func (s *Sim) seriesAt(t Time) *seriesBin {
	iv := s.cfg.SeriesIntervalNs
	if iv <= 0 || t >= s.end {
		return nil
	}
	bin := int(t / iv)
	for len(s.series) <= bin {
		s.series = append(s.series, seriesBin{})
	}
	return &s.series[bin]
}

// fail records the first fatal model error; the run aborts with it.
func (s *Sim) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}
