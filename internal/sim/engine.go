// Package sim is a discrete-event simulator for fat-tree-based InfiniBand
// subnets, reproducing the network model of the paper's evaluation section:
//
//   - endnodes generate and consume packets; switches forward them through a
//     non-blocking crossbar by linear-forwarding-table lookup;
//   - every switch port has per-virtual-lane input and output buffers of one
//     packet (256 bytes) by default;
//   - links carry 1 byte/ns (a 4X configuration's data rate) with 10 ns
//     flying time between devices;
//   - a packet takes 100 ns from input port to output port of the crossbar
//     (forwarding table lookup, arbitration and startup);
//   - switching is virtual cut-through: a head can leave a switch before its
//     tail has arrived, and a blocked packet collapses into the input buffer;
//   - the IBA credit-based link-level flow control governs every link: a
//     sender transmits on a virtual lane only while it holds a credit for
//     the receiver's input buffer, and credits return when that buffer
//     frees.
//
// Simulated time is integer nanoseconds. Runs are deterministic for a given
// configuration and seed.
//
// The scheduling core is allocation-free on the hot path: events are small
// typed records (no closures), queued in a calendar queue of 1 ns buckets for
// the short-horizon deadlines that dominate a run (link fly times, crossbar
// routing, per-byte transmit completions), with a monomorphic slice-backed
// min-heap as the fallback for far-future deadlines. See DESIGN.md, "Event
// engine internals".
package sim

import "math/bits"

// Time is simulated time in nanoseconds.
type Time = int64

// evKind names the simulator actions an event can trigger. Dispatch is a
// switch in (*Sim).dispatch; adding a kind means adding a case there.
type evKind uint8

const (
	evNone evKind = iota
	// evGenerate creates the next open-loop packet at node a.
	evGenerate
	// evRoute fires when the crossbar routing delay of packet p at switch a
	// elapses: the forwarding table names the output port.
	evRoute
	// evSwArrive is packet p's head reaching input port b of switch a.
	evSwArrive
	// evNodeArrive is packet p's head reaching destination endnode a.
	evNodeArrive
	// evDeliver finalizes packet p at endnode a (tail fully received).
	evDeliver
	// evCredit returns one VL-b credit to the transmitting port with global
	// port id a.
	evCredit
	// evKick re-arbitrates the output port with global port id a when its
	// link frees.
	evKick
	// evRelease frees a VL-b output-buffer slot of the port with global port
	// id a (tail left the switch).
	evRelease
	// evLinkDown kills the bidirectional link at switch a, abstract port b
	// (Config.FaultPlan).
	evLinkDown
	// evLinkUp revives the bidirectional link at switch a, abstract port b.
	evLinkUp
	// evTrap is the subnet-manager model noticing the fabric changed (one
	// trap latency after a link event): it recomputes repaired tables and
	// stages per-switch forwarding-table updates.
	evTrap
	// evLFTUpdate applies the staged forwarding-table delta with index a.
	evLFTUpdate
	// evRexmit fires the retransmit timer of transport flow a; b carries the
	// timer generation that armed it, so a stale timer (the flow re-armed or
	// fully acknowledged since) is ignored (Config.Transport).
	evRexmit
	// evTrapArrive is an in-band trap about the link at switch a, abstract
	// port b reaching the active SM; pi carries the direction flag (1: the
	// link died, 0: it revived). Only scheduled when a live management path
	// existed at emission time (FaultPlan.InBandSM).
	evTrapArrive
	// evSMSweep is the in-band SM's periodic sweep tick: liveness check and
	// failover, port-state discovery diffed against the SM's view, and
	// re-driving parked SMP transactions.
	evSMSweep
	// evSMPArrive is the LFT-update SMP of staged update a reaching its
	// target switch (first copy applies; retransmissions are idempotent).
	evSMPArrive
	// evSMPAck is the target switch's SMP response reaching the active SM,
	// closing transaction a.
	evSMPAck
	// evSMPTimeout fires the response timer of SMP transaction a; b carries
	// the timer generation that armed it, exactly like evRexmit.
	evSMPTimeout
)

// event is one scheduled typed record. The argument fields are a union over
// the kinds: a/b carry small indices (node, switch, global port id, VL) and
// pi carries the packet's slab index (see Sim.pktAt). Keeping the record flat
// and pointer-free — no closure, no interface, no *pkt — makes scheduling
// allocation-free, spares every queue store its write barrier, and leaves the
// calendar slab and heap backing arrays invisible to the garbage collector.
type event struct {
	t    Time
	seq  uint64
	pi   int32
	a    int32
	b    int32
	kind evKind
}

// less orders events by (t, seq); seq makes scheduling order a deterministic
// tiebreak, exactly as the original container/heap engine did.
func (ev event) less(o event) bool {
	if ev.t != o.t {
		return ev.t < o.t
	}
	return ev.seq < o.seq
}

// Calendar geometry: 1 ns ticks, 2^calBits buckets. The window covers every
// deadline the default model's per-hop machinery produces (fly 10 ns, route
// 100 ns, 256 B serialization); far-future deadlines — open-loop
// interarrivals at low load, retransmit timers, jumbo packet serializations —
// fall through to the heap. The window is sized so the whole calendar (bucket
// headers plus the event slab) stays cache-resident: which structure holds an
// event never affects pop order, which is the global (t, seq) minimum.
const (
	calBits = 9
	calSize = 1 << calBits
	calMask = calSize - 1
	// calSlabCap is the initial per-bucket capacity, carved from one shared
	// slab when the calendar materializes. Growing 4096 buckets individually
	// from nil dominated the scheduler's allocation profile; a bucket deeper
	// than the slab cap reallocates off-slab once and keeps the larger
	// backing array for the rest of the run.
	calSlabCap = 16
)

// calBucket is one 1 ns tick of the calendar: a FIFO drained by head index so
// its backing array is reused as the ring wraps.
type calBucket struct {
	evs  []event
	head int
}

// engine drives the event loop: a hybrid calendar queue (events within
// calSize ns of now) plus a min-heap (everything later). Because each bucket
// holds exactly one timestamp and seq grows monotonically, append order is
// seq order and buckets need no sorting; cross-structure ties resolve by
// comparing (t, seq) of the two heads.
type engine struct {
	now Time
	seq uint64
	// heapOnly disables the calendar fast path (Config.HeapOnlyScheduler:
	// the determinism suites prove both scheduler paths agree).
	heapOnly bool
	calCount int
	// scanFrom caches the bucket scan cursor: no calendar event exists in
	// [now, scanFrom).
	scanFrom Time
	// occ is a bitmap over the calendar's buckets — bit b set iff bucket b
	// holds a pending event — so finding the next non-empty bucket is a word
	// scan of one cache line instead of probing bucket headers tick by tick.
	occ     [calSize / 64]uint64
	buckets []calBucket
	far     eventHeap
}

// schedule enqueues ev at time t (clamped to >= now).
func (e *engine) schedule(t Time, ev event) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev.t = t
	ev.seq = e.seq
	if !e.heapOnly && t-e.now < calSize {
		if e.buckets == nil {
			e.buckets = make([]calBucket, calSize)
			slab := make([]event, calSize*calSlabCap)
			for i := range e.buckets {
				e.buckets[i].evs = slab[i*calSlabCap : i*calSlabCap : (i+1)*calSlabCap]
			}
		}
		bi := int(t & calMask)
		b := &e.buckets[bi]
		b.evs = append(b.evs, ev)
		e.occ[bi>>6] |= 1 << uint(bi&63)
		e.calCount++
		if t < e.scanFrom {
			e.scanFrom = t
		}
		return
	}
	e.far.push(ev)
}

// pop removes and returns the earliest pending event, or ok=false when the
// queue is empty or the earliest event is later than end (it stays queued).
func (e *engine) pop(end Time) (event, bool) {
	var calT Time
	haveCal := e.calCount > 0
	if haveCal {
		// Find the earliest non-empty bucket. All calendar events sit in
		// [now, now+calSize) and each tick owns one bucket, so the nearest
		// set occupancy bit (in circular order from the cursor) is the
		// calendar minimum.
		t := e.scanFrom
		if t < e.now {
			t = e.now
		}
		sb := int(t & calMask)
		w := sb >> 6
		found := e.occ[w] &^ (1<<uint(sb&63) - 1)
		for found == 0 {
			w = (w + 1) % (calSize / 64)
			found = e.occ[w]
		}
		bi := w<<6 + bits.TrailingZeros64(found)
		t += Time((bi - sb) & calMask)
		e.scanFrom = t
		calT = t
	}
	useCal := haveCal
	if haveCal && len(e.far) > 0 {
		b := &e.buckets[int(calT&calMask)]
		useCal = b.evs[b.head].less(e.far[0])
	}
	if useCal {
		if calT > end {
			return event{}, false
		}
		bi := int(calT & calMask)
		b := &e.buckets[bi]
		ev := b.evs[b.head]
		b.head++
		if b.head == len(b.evs) {
			b.evs = b.evs[:0]
			b.head = 0
			e.occ[bi>>6] &^= 1 << uint(bi&63)
		}
		e.calCount--
		e.now = calT
		return ev, true
	}
	if len(e.far) == 0 {
		return event{}, false
	}
	if e.far[0].t > end {
		return event{}, false
	}
	ev := e.far.pop()
	e.now = ev.t
	return ev, true
}

// pending reports the number of queued events.
func (e *engine) pending() int { return e.calCount + len(e.far) }

// eventHeap is a monomorphic binary min-heap on (t, seq). Hand-rolled push
// and pop avoid the interface boxing of container/heap: no per-event
// allocation, no dynamic dispatch.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !hh[i].less(hh[parent]) {
			break
		}
		hh[i], hh[parent] = hh[parent], hh[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	*h = hh[:n]
	hh = hh[:n]
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && hh[l].less(hh[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && hh[r].less(hh[small]) {
			small = r
		}
		if small == i {
			break
		}
		hh[i], hh[small] = hh[small], hh[i]
		i = small
	}
	return top
}
