package sim

import (
	"fmt"

	"mlid/internal/arena"
	"mlid/internal/sm"
	"mlid/internal/topology"
)

// Reliable end-to-end transport, modelled on the IBA Reliable Connection
// service: every data packet of a (source, destination) flow carries a packet
// sequence number (PSN), the receiver acknowledges in-order progress and
// reports gaps, and the sender retransmits on NAK or on a timeout with
// exponential backoff until a retry budget runs out. Retransmissions re-enter
// path selection (selectDLID), so a source with multiple LIDs per destination
// can steer each retry onto a surviving path while a single-LID source must
// hammer the one configured path — the mechanism that turns MLID's path
// diversity into shorter recovery tails under faults.
//
// Control packets (ACK/NAK) travel on a dedicated management virtual lane —
// the last VL index, claimed on top of Config.DataVLs — so acknowledgment
// traffic shares link bandwidth with data but never competes for data-VL
// buffers. They are ordinary packets: they serialize, fly, take crossbar time,
// and die on dead links like any other traffic (a lost ACK is recovered by the
// sender's timer).

// Default transport constants. The base timeout is ~17x the zero-load
// end-to-end latency of the default model on the evaluated fabrics, so
// timeouts fire for lost packets, not for queueing.
const (
	DefaultBaseTimeoutNs Time = 10_000
	DefaultBackoffMult        = 2.0
	DefaultMaxRetries         = 8
	DefaultAckBytes           = 20
)

// TransportConfig parameterizes the reliable transport layer.
type TransportConfig struct {
	// BaseTimeoutNs is the retransmit timeout of a packet's first try; zero
	// takes the default.
	BaseTimeoutNs Time
	// BackoffMult multiplies the timeout after every retry (exponential
	// backoff); zero takes the default, values below 1 are rejected.
	BackoffMult float64
	// MaxTimeoutNs caps the backed-off timeout; zero takes 8x the base.
	MaxTimeoutNs Time
	// MaxRetries is the retry budget per packet: after this many
	// retransmissions the next timeout counts the packet Failed instead of
	// retrying forever. Zero takes the default; negative means no
	// retransmissions at all (the first timeout fails the packet).
	MaxRetries int
	// AckBytes is the size of an ACK/NAK control packet; zero takes the
	// default.
	AckBytes int
	// DrainNs extends the run past the generation horizon so outstanding
	// retransmissions can resolve: the run keeps processing events (but
	// generates no new packets) for this long. Zero takes a computed
	// default — one full retry cycle (the sum of every backed-off timeout)
	// plus pipeline slack — and negative disables draining.
	DrainNs Time
}

// withDefaults fills zero fields.
func (tc TransportConfig) withDefaults() TransportConfig {
	if tc.BaseTimeoutNs == 0 {
		tc.BaseTimeoutNs = DefaultBaseTimeoutNs
	}
	if tc.BackoffMult == 0 {
		tc.BackoffMult = DefaultBackoffMult
	}
	if tc.MaxTimeoutNs == 0 {
		tc.MaxTimeoutNs = 8 * tc.BaseTimeoutNs
	}
	switch {
	case tc.MaxRetries == 0:
		tc.MaxRetries = DefaultMaxRetries
	case tc.MaxRetries < 0:
		tc.MaxRetries = 0
	}
	if tc.AckBytes == 0 {
		tc.AckBytes = DefaultAckBytes
	}
	switch {
	case tc.DrainNs == 0:
		// One full head retry cycle plus slack, so a packet that starts
		// timing out right at the horizon can exhaust its budget.
		var cycle Time
		for i := 0; i <= tc.MaxRetries; i++ {
			cycle += tc.backoff().Timeout(i)
		}
		tc.DrainNs = cycle + 100_000
	case tc.DrainNs < 0:
		tc.DrainNs = 0
	}
	return tc
}

// validate rejects inconsistent transport configurations. Runs after
// withDefaults, so zero-takes-default fields are already filled.
func (tc TransportConfig) validate() error {
	if tc.BaseTimeoutNs <= 0 {
		return fmt.Errorf("sim: Transport.BaseTimeoutNs must be positive, got %d", tc.BaseTimeoutNs)
	}
	if !(tc.BackoffMult >= 1 && finite(tc.BackoffMult)) {
		return fmt.Errorf("sim: Transport.BackoffMult must be finite and >= 1, got %v", tc.BackoffMult)
	}
	if tc.MaxTimeoutNs < tc.BaseTimeoutNs {
		return fmt.Errorf("sim: Transport.MaxTimeoutNs %d below BaseTimeoutNs %d", tc.MaxTimeoutNs, tc.BaseTimeoutNs)
	}
	if tc.MaxRetries < 0 {
		return fmt.Errorf("sim: Transport.MaxRetries must be >= 0 after defaults, got %d", tc.MaxRetries)
	}
	if tc.AckBytes <= 0 {
		return fmt.Errorf("sim: Transport.AckBytes must be positive, got %d", tc.AckBytes)
	}
	return nil
}

// backoff is the retransmit timer's schedule: the capped exponential
// backoff min(Base * Mult^attempts, Cap) the SM's SMP transactions use too.
func (tc TransportConfig) backoff() sm.TxnConfig {
	return sm.TxnConfig{BaseTimeoutNs: tc.BaseTimeoutNs, BackoffMult: tc.BackoffMult, MaxTimeoutNs: tc.MaxTimeoutNs}
}

// Control-packet kinds carried in pkt.ctrl.
const (
	ctrlData uint8 = iota // a data packet (the zero value)
	ctrlAck               // cumulative + selective acknowledgment
	ctrlNak               // negative acknowledgment: "cum+1 is missing"
)

// txPkt is one unacknowledged packet at its sender: enough to rebuild a
// retransmission copy without holding the (pooled, recycled) original.
type txPkt struct {
	genTime  Time // original generation time: retries keep end-to-end latency honest
	size     int
	seq      uint32 // PSN within the flow
	attempts int32  // retransmissions performed so far
}

// txFlow is the sender side of one (src, dst) flow. One retransmit timer
// guards the oldest unacknowledged packet; timerGen invalidates a scheduled
// timer when the head changes (the engine has no event deletion).
type txFlow struct {
	unacked  []txPkt // PSN-ascending; head is the retransmit candidate
	timerGen uint32
}

// nakDupThreshold is how many arrivals above a gap the receiver tolerates
// before NAKing the missing PSN. Multipath spreading reorders packets
// constantly — a gap usually means "in flight on a longer path", not "lost" —
// so NAKing the first gap would fast-retransmit (and duplicate) merely-late
// packets, penalizing exactly the schemes with path diversity. Three
// duplicate hints before reacting is the classic transport compromise (TCP
// fast retransmit); the sender's timer remains the backstop for real losses
// on quiet flows.
const nakDupThreshold = 3

// rxFlow is the receiver side of one (src, dst) flow.
type rxFlow struct {
	// cum is the highest PSN received in order: everything <= cum is
	// delivered and acknowledged.
	cum uint32
	// win is a sliding-window ring bitmap over the PSNs received above a
	// gap (membership-only, exactly what the old per-flow map provided,
	// without its per-entry allocation): the bit for PSN p lives at word
	// (p>>6) mod len(win), bit p&63, with len(win) a power of two. The
	// invariant is that only words in the active span — (cum, highest
	// buffered PSN] — hold set bits, so ring aliasing cannot produce false
	// positives; draining clears each bit as cum advances, and a span wider
	// than the ring doubles it with an absolute-word remap (winInsert).
	// Lazily borrowed from the run's pool on the first gap and returned
	// when the gap fully drains (oooCount hits zero).
	win []uint64
	// oooCount is the number of PSNs currently buffered in win.
	oooCount int32
	// nakFor is the missing PSN the receiver already NAKed, rate-limiting
	// NAKs to one per gap (the sender's timer is the fallback if either the
	// NAK or its retransmission dies).
	nakFor uint32
	// gapHits counts arrivals above the current gap since cum last moved;
	// the NAK fires once it reaches nakDupThreshold.
	gapHits int32
}

// winContains reports whether PSN seq is buffered. PSNs at or below cum, or
// beyond the ring's representable span, cannot be stored and answer false
// without touching the bitmap.
func (f *rxFlow) winContains(seq uint32) bool {
	if f.oooCount == 0 || seq <= f.cum {
		return false
	}
	w := seq >> 6
	w0 := (f.cum + 1) >> 6
	if w-w0 >= uint32(len(f.win)) {
		return false
	}
	return f.win[w&uint32(len(f.win)-1)]>>(seq&63)&1 == 1
}

// winClear removes PSN seq from the window (the caller knows it is present).
func (f *rxFlow) winClear(seq uint32) {
	f.win[(seq>>6)&uint32(len(f.win)-1)] &^= 1 << (seq & 63)
	f.oooCount--
}

// winInsert records PSN seq in the window, growing the ring when the span
// from the gap to seq no longer fits.
func (t *transportRun) winInsert(f *rxFlow, seq uint32) {
	w := seq >> 6
	w0 := (f.cum + 1) >> 6
	if span := w - w0 + 1; f.win == nil || span > uint32(len(f.win)) {
		t.winGrow(f, span)
	}
	f.win[w&uint32(len(f.win)-1)] |= 1 << (seq & 63)
	f.oooCount++
}

// winGrow (re)sizes a flow's ring to hold span words, doubling from a small
// floor and remapping every live word of the old ring onto its new slot by
// absolute word index.
func (t *transportRun) winGrow(f *rxFlow, span uint32) {
	newLen := uint32(4)
	for newLen < span {
		newLen <<= 1
	}
	old := f.win
	f.win = t.getWin(int(newLen))
	if old != nil {
		w0 := (f.cum + 1) >> 6
		for i := uint32(0); i < uint32(len(old)); i++ {
			w := w0 + i
			f.win[w&(newLen-1)] = old[w&uint32(len(old)-1)]
		}
		t.putWin(old)
	}
}

// getWin borrows a zeroed ring of exactly n words (n a power of two) from
// the pool, allocating only when the pool has nothing large enough.
func (t *transportRun) getWin(n int) []uint64 {
	var w []uint64
	if last := len(t.winFree) - 1; last >= 0 {
		w, t.winFree[last], t.winFree = t.winFree[last], nil, t.winFree[:last]
	}
	return arena.Recycle(w, n)
}

// putWin returns a drained ring to the pool for the next gapped flow.
func (t *transportRun) putWin(w []uint64) {
	t.winFree = append(t.winFree, w)
}

// transportRun is the live transport state of one simulation.
type transportRun struct {
	cfg    TransportConfig
	mgmtVL uint8
	// tx / rx are indexed src*nodes+dst: tx at the packet's source, rx at
	// its destination.
	tx []txFlow
	rx []rxFlow
	// winFree pools drained out-of-order ring bitmaps across flows, so the
	// number of live rings tracks the number of concurrently gapped flows,
	// not the number of flows that ever saw a gap.
	winFree [][]uint64
}

// reset prepares recycled transport state for a run with the given number
// of (src, dst) flows: every flow starts idle, sender queues keep their
// arrays, and the out-of-order rings receivers still hold join winFree.
func (t *transportRun) reset(cfg TransportConfig, mgmtVL uint8, flows int) {
	winFree := t.winFree
	tx := arena.RecycleKeep(t.tx, flows, func(f *txFlow) { *f = txFlow{unacked: f.unacked[:0]} })
	rx := arena.RecycleKeep(t.rx, flows, func(f *rxFlow) {
		if f.win != nil {
			winFree = append(winFree, f.win)
		}
		*f = rxFlow{}
	})
	*t = transportRun{cfg: cfg, mgmtVL: mgmtVL, tx: tx, rx: rx, winFree: winFree}
}

// flowIdx maps a (src, dst) pair onto the flat flow arrays.
func (s *Sim) flowIdx(src, dst int32) int32 {
	return src*int32(s.tree.Nodes()) + dst
}

// txTrack registers a freshly generated data packet with its sender's flow
// and arms the flow's retransmit timer if it was idle.
func (s *Sim) txTrack(node int32, p *pkt) {
	idx := s.flowIdx(node, p.Dst)
	f := &s.transport.tx[idx]
	f.unacked = append(f.unacked, txPkt{
		seq: p.flowSeq, genTime: p.GenTime, size: p.Size,
	})
	if len(f.unacked) == 1 {
		s.armTimer(idx, f)
	}
}

// armTimer (re)schedules the flow's retransmit timer for its current head,
// invalidating any previously scheduled one. The timer carries its drain
// classification (pi): whether the in-band SM considered the destination
// unreachable when the timer armed. Like the head's attempt count, the flag
// is frozen between arming and firing: a verdict change takes effect at the
// next re-arm, never on a timer already in flight.
func (s *Sim) armTimer(idx int32, f *txFlow) {
	f.timerGen++
	at := s.now + s.transport.cfg.backoff().Timeout(int(f.unacked[0].attempts))
	var drain int32
	if ib := s.faults.inband; ib != nil && ib.partitioned {
		n := int32(s.tree.Nodes())
		if src, dst := idx/n, idx%n; src != dst && !ib.finding.Reachable(topology.NodeID(src), topology.NodeID(dst)) {
			drain = 1
		}
	}
	s.schedule(at, event{kind: evRexmit, a: idx, b: int32(f.timerGen), pi: drain})
}

// rexmitTimer fires a flow's retransmit timer: retransmit the oldest
// unacknowledged packet, or — budget exhausted — count it Failed and move on.
// A timer armed while the SM declared the destination unreachable instead
// drains the flow's backlog into UnreachableDegraded (graceful degradation:
// no retry burned on a provably dead pair).
func (s *Sim) rexmitTimer(idx int32, gen int32, drain bool) {
	t := s.transport
	f := &t.tx[idx]
	if int32(f.timerGen) != gen || len(f.unacked) == 0 {
		return // stale: the flow re-armed or fully drained since scheduling
	}
	if drain {
		s.drainUnreachable(idx, f)
		return
	}
	head := &f.unacked[0]
	if int(head.attempts) >= t.cfg.MaxRetries {
		// Budget exhausted: the sender gives up on the packet. Failed counts
		// only packets the receiver truly never got (the simulator is
		// omniscient): a packet whose every acknowledgment died is
		// delivered-but-unconfirmed, and counting it Failed would double-
		// count it against the conservation identity.
		rxf := &t.rx[idx]
		delivered := head.seq <= rxf.cum || rxf.winContains(head.seq)
		if !delivered {
			s.res.Failed++
			if b := s.seriesAt(s.now); b != nil {
				b.failed++
			}
		}
		f.unacked = f.unacked[:copy(f.unacked, f.unacked[1:])]
		if len(f.unacked) > 0 {
			s.armTimer(idx, f)
		}
		return
	}
	s.retransmit(idx, head)
	s.armTimer(idx, f)
}

// retransmit injects a fresh copy of an unacknowledged packet at its source.
// The copy re-enters selectDLID — with fault-avoiding reselection active, an
// MLID source picks a surviving LID for the retry; a SLID source has only its
// single path to repeat.
func (s *Sim) retransmit(idx int32, tp *txPkt) {
	tp.attempts++
	s.res.Retransmits++
	if b := s.seriesAt(s.now); b != nil {
		b.retransmits++
	}
	nodes := int32(s.tree.Nodes())
	src, dst := idx/nodes, idx%nodes
	n := &s.nodes[src]
	// The retry carries its original flow sequence number into selection: a
	// spraying selector re-derives the same offset unless the fault mask
	// shrank, in which case the rotation shifts the retry onto a survivor.
	dlid := s.selectDLID(n, topology.NodeID(src), topology.NodeID(dst), tp.seq)
	vl := s.dataVL(n, dlid)
	p := s.newPkt()
	p.DLID, p.VL, p.Size = dlid, vl, tp.size
	p.Src, p.Dst, p.GenTime = src, dst, tp.genTime
	p.flowSeq = tp.seq
	p.rexmit = true
	s.requestTransfer(s.nodePid(src), p)
}

// rxAccept runs the receiver side for a delivered data packet: duplicate and
// gap detection against the flow's PSN state, and the acknowledgment reply.
// It reports whether the packet is a first-time delivery (false: duplicate,
// not to be counted again).
func (s *Sim) rxAccept(node int32, p *pkt) bool {
	t := s.transport
	f := &t.rx[s.flowIdx(p.Src, node)]
	seq := p.flowSeq
	switch {
	case seq <= f.cum:
		// Below the cumulative watermark: a duplicate (late original after
		// a spurious retransmission, or a repeated retransmission). Resync
		// the sender with the current watermark.
		s.res.DupDeliveries++
		s.sendCtrl(node, p.Src, ctrlAck, f.cum, seq)
		return false
	case seq == f.cum+1:
		// In order: advance the watermark, draining any buffered packets
		// the gap was holding back. A fully drained window returns its ring
		// to the pool.
		f.cum++
		if f.oooCount > 0 {
			for f.winContains(f.cum + 1) {
				f.winClear(f.cum + 1)
				f.cum++
			}
			if f.oooCount == 0 {
				t.putWin(f.win)
				f.win = nil
			}
		}
		f.gapHits = 0
		s.sendCtrl(node, p.Src, ctrlAck, f.cum, seq)
		return true
	default:
		// Above a gap: buffer, and NAK the missing PSN once the gap has
		// survived nakDupThreshold arrivals. Multipath reordering lands
		// here constantly, so out-of-order is accepted (selectively
		// acknowledged), never discarded, and never NAKed on first sight.
		if f.winContains(seq) {
			s.res.DupDeliveries++
			s.sendCtrl(node, p.Src, ctrlAck, f.cum, seq)
			return false
		}
		t.winInsert(f, seq)
		f.gapHits++
		if f.gapHits >= nakDupThreshold && f.nakFor != f.cum+1 {
			f.nakFor = f.cum + 1
			s.sendCtrl(node, p.Src, ctrlNak, f.cum, seq)
		} else {
			s.sendCtrl(node, p.Src, ctrlAck, f.cum, seq)
		}
		return true
	}
}

// sendCtrl injects one ACK/NAK control packet from node back to the flow's
// sender, on the management VL. Control packets take the same path-selection
// machinery as data (including fault-avoiding reselection), so acknowledgments
// route around known-dead links too.
func (s *Sim) sendCtrl(from, to int32, kind uint8, cum, sack uint32) {
	t := s.transport
	n := &s.nodes[from]
	// Control packets key spraying rotation on the cumulative watermark:
	// it advances with the flow, is deterministic, and needs no extra state.
	dlid := s.selectDLID(n, topology.NodeID(from), topology.NodeID(to), cum)
	p := s.newPkt()
	p.DLID, p.VL, p.Size = dlid, t.mgmtVL, t.cfg.AckBytes
	p.Src, p.Dst, p.GenTime = from, to, s.now
	p.ctrl = kind
	p.cum = cum
	p.sack = sack
	if kind == ctrlAck {
		s.res.AcksSent++
	} else {
		s.res.NaksSent++
	}
	s.res.CtrlBytesSent += int64(p.Size)
	s.requestTransfer(s.nodePid(from), p)
}

// ctrlArrive runs the sender side for a delivered ACK/NAK: release every
// packet the cumulative watermark covers plus the selectively acknowledged
// one, then react — a NAK for the current head retransmits it immediately
// (budget permitting); a head change restarts the timer.
func (s *Sim) ctrlArrive(node int32, p *pkt) {
	t := s.transport
	idx := s.flowIdx(node, p.Src)
	f := &t.tx[idx]
	headChanged := false
	i := 0
	for i < len(f.unacked) && f.unacked[i].seq <= p.cum {
		i++
	}
	if i > 0 {
		f.unacked = f.unacked[:copy(f.unacked, f.unacked[i:])]
		headChanged = true
	}
	if p.sack > p.cum {
		for j := range f.unacked {
			if f.unacked[j].seq == p.sack {
				f.unacked = append(f.unacked[:j], f.unacked[j+1:]...)
				if j == 0 {
					headChanged = true
				}
				break
			}
		}
	}
	if len(f.unacked) == 0 {
		f.timerGen++ // invalidate the outstanding timer
		return
	}
	if p.ctrl == ctrlNak && f.unacked[0].seq == p.cum+1 &&
		int(f.unacked[0].attempts) < t.cfg.MaxRetries {
		// Fast retransmit: the receiver named the missing packet; no need
		// to wait out the timer.
		s.retransmit(idx, &f.unacked[0])
		s.armTimer(idx, f)
		return
	}
	if headChanged {
		s.armTimer(idx, f)
	}
}
