package sim

// In-band subnet management (FaultPlan.InBandSM): the SM loses its oracle.
//
// The default fault model delivers traps and table updates by fiat — a link
// event always reaches the SM after TrapLatencyNs, and staged LFT rewrites
// always land. With InBandSM set, those notifications become management
// packets routed through the same live forwarding state as data traffic; the
// SM's reaction to what it learns (smReact: repair, staged table updates,
// epoch) and the table write itself (applyLFTUpdate) are the oracle's:
//
//   - A link event raises a trap at the observing switch, walked hop by hop
//     toward the active SM's endnode through the compiled tables. A trap
//     whose path crosses a dead link — including the link it reports — is
//     LOST. The peer switch of an inter-switch link raises the trap too, so
//     a single link death rarely silences itself; a trap about a node's
//     attachment link has no second reporter.
//   - Lost knowledge is recovered only by the SM's periodic lightweight
//     sweep, which reads ground-truth port state (an all-ports discovery
//     does not depend on routed traps) and diffs it against the SM's view.
//   - Table repairs travel as per-switch LFT-update SMP transactions with
//     timeout, capped exponential backoff, and a retry budget
//     (sm.TxnManager); a retry-exhausted transaction parks until the next
//     sweep re-drives it.
//   - A standby SM on a distinct leaf switch (SMNodes) takes over
//     (sm.Failover, observed at sweep ticks) when the master's attachment
//     dies; mastership is sticky, so recovery of the old master does not
//     flap it back.
//   - When repair cannot restore reachability the SM computes a typed
//     partition finding (core.DetectPartitions) over its knowledge, and
//     senders degrade gracefully: a retransmit timer armed while the
//     destination is declared unreachable drains the flow's backlog into
//     UnreachableDegraded instead of burning its retry budget.
//
// Modelling notes, deliberately simple but stated:
//
//   - Management packets do not occupy link buffers; they cost per-hop time
//     (mgmtHopNs, on top of the plan's latency constants) and
//     die on dead links, which is the failure coupling the tentpole needs,
//     without perturbing data-plane credit state.
//   - Traps are LID-routed: their path liveness is evaluated by walking the
//     compiled forwarding rows toward the SM node's base LID, so broken
//     tables can silence the very trap that reports them. LFT-update SMPs
//     are DIRECTED-ROUTE, as in InfiniBand — the SM lists the exit ports
//     hop by hop, consulting no forwarding table — precisely so they can
//     reconfigure switches whose LID-routed state is broken. The SM plans
//     the shortest route through links it believes alive (its possibly
//     stale knownDead view); the packet still dies on links that are
//     actually dead, so a stale view routes SMPs into holes until a trap
//     or sweep refreshes it. Links die bidirectionally, so the response
//     retracing the directed route lives iff the request route lives.
//   - Both SM instances share the trap-fed knowledge base (knownDead), the
//     transaction table and the staged updates — SM database replication —
//     so a takeover resumes, not restarts, recovery.

import (
	"math/rand"

	"mlid/internal/core"
	"mlid/internal/sm"
	"mlid/internal/topology"
)

// inbandRun is the live in-band SM state, nested in faultRun.
type inbandRun struct {
	cfg             InBandSMConfig
	master, standby int32 // SMNodes
	// rng draws trap losses only. Private to the SM model so enabling
	// TrapLossProb never perturbs traffic generation or path selection.
	rng  *rand.Rand
	fo   *sm.Failover
	txns *sm.TxnManager
	// knownDead is the SM's view of the dead links, fed by delivered traps
	// and sweeps; it lags ground truth (faultRun.deadLinks) whenever a trap
	// was lost.
	knownDead topology.LinkSet
	// finding is the latest partition verdict over knownDead; partitioned
	// tracks its Partitioned() state across repairs so transitions into a
	// partitioned fabric count once.
	finding     core.PartitionFinding
	partitioned bool
}

// initInBand builds the in-band SM state and schedules the first sweep tick.
// Called once from scheduleFaults when the plan carries an InBandSM config.
func (s *Sim) initInBand() {
	cfg := *s.faults.plan.InBandSM
	master, standby := SMNodes(s.tree)
	ib := &inbandRun{
		cfg:     cfg,
		master:  int32(master),
		standby: int32(standby),
		rng:     rand.New(rand.NewSource(s.cfg.Seed*9_176_941 + 17)),
		txns: sm.NewTxnManager(sm.TxnConfig{
			BaseTimeoutNs: int64(SMPTimeoutNs),
			BackoffMult:   SMPBackoffMult,
			MaxTimeoutNs:  int64(SMPMaxTimeoutNs),
			MaxRetries:    SMPMaxRetries,
		}),
	}
	ib.fo = sm.NewFailover(ib.master, ib.standby)
	s.faults.inband = ib
	s.schedule(cfg.SweepIntervalNs, event{kind: evSMSweep})
}

// smNodeUp reports whether an SM endnode can send and receive: its
// attachment link is alive.
func (s *Sim) smNodeUp(node int32) bool {
	return !s.ports[s.nodePid(node)].dead
}

// mgmtHopNs is the per-hop cost of a management packet: one routing decision
// plus one link flight. Management packets skip buffer occupancy by design
// (see the package comment above).
const mgmtHopNs = DefaultRouteNs + DefaultFlyNs

// mgmtWalkFrom walks the compiled live forwarding rows from switch sw toward
// the SM endnode's base LID and returns the hop count, or ok=false when the
// route crosses a dead link, dead-ends, or the SM's own attachment is down.
func (s *Sim) mgmtWalkFrom(sw int32, smNode int32) (hops int, ok bool) {
	if !s.smNodeUp(smNode) {
		return 0, false
	}
	hops, node := s.walkRows(sw, s.cfg.Subnet.Endports[smNode].Base)
	return hops, node == smNode
}

// smpRouteHops plans and walks the directed route of an LFT-update SMP from
// the active SM to the target switch. Directed-route packets consult no
// forwarding table — the SM lists the exit ports hop by hop — which is what
// lets them repair a switch whose own LID-routed entries are broken (a
// LID-routed walk from such a switch dead-ends on the very entry the SMP
// carries the fix for). The route is planned as the shortest path over the
// links the SM BELIEVES alive — its possibly stale knownDead view — via a
// deterministic BFS (ascending port order); the packet then dies on any
// link that is ACTUALLY dead, so stale knowledge routes SMPs into holes
// until a trap or sweep refreshes it. Hop count includes the SM's
// attachment link.
func (s *Sim) smpRouteHops(smNode, target int32) (hops int, ok bool) {
	if !s.smNodeUp(smNode) {
		return 0, false
	}
	believed := &s.faults.inband.knownDead
	start, _ := s.tree.NodeAttachment(topology.NodeID(smNode))
	m := s.tree.M()
	// BFS over the believed-alive switch graph; prev[sw] records the
	// (switch, exit port) that reached sw, for route reconstruction.
	type hop struct {
		sw   int32
		port int32
	}
	prev := make([]hop, s.tree.Switches())
	seen := make([]bool, s.tree.Switches())
	seen[start] = true
	queue := []int32{int32(start)}
	for len(queue) > 0 && !seen[target] {
		cur := queue[0]
		queue = queue[1:]
		for port := 0; port < m; port++ {
			ref := s.tree.SwitchNeighbor(topology.SwitchID(cur), port)
			if ref.Kind != topology.KindSwitch || seen[ref.Switch] || believed.Dead(topology.SwitchID(cur), port) {
				continue
			}
			seen[ref.Switch] = true
			prev[ref.Switch] = hop{cur, int32(port)}
			queue = append(queue, int32(ref.Switch))
		}
	}
	if !seen[target] {
		return 0, false // the SM believes the switch unreachable: nothing sent
	}
	// Walk the planned route backwards against ground truth: each planned
	// exit port that is actually dead kills the packet.
	hops = 1 // the SM's attachment link (alive per smNodeUp above)
	for cur := target; cur != int32(start); cur = prev[cur].sw {
		h := prev[cur]
		if s.ports[h.sw*int32(m)+h.port].dead {
			return 0, false
		}
		hops++
	}
	return hops, true
}

// emitTrap raises a trap about the link at (sw, port) — down or revived —
// and routes it toward the active SM. The trap dies to the configured loss
// probability or to a broken management path; a lost trap is recovered only
// by a later sweep. For an inter-switch link the peer switch reports too
// (either observer reaching the SM suffices); a node-attachment link has a
// single reporter.
func (s *Sim) emitTrap(sw, port int32, down bool) {
	ib := s.faults.inband
	s.res.TrapsSent++
	if ib.cfg.TrapLossProb > 0 && ib.rng.Float64() < ib.cfg.TrapLossProb {
		s.res.TrapsLost++
		return
	}
	active := ib.fo.Active()
	hops, ok := s.mgmtWalkFrom(sw, active)
	if !ok {
		if ref := s.tree.SwitchNeighbor(topology.SwitchID(sw), int(port)); ref.Kind == topology.KindSwitch {
			hops, ok = s.mgmtWalkFrom(int32(ref.Switch), active)
		}
	}
	if !ok {
		s.res.TrapsLost++
		return
	}
	var flag int32
	if down {
		flag = 1
	}
	at := s.now + TrapLatencyNs + Time(hops)*mgmtHopNs
	s.schedule(at, event{kind: evTrapArrive, pi: flag, a: sw, b: port})
}

// trapArrive is a delivered trap updating the SM's knowledge base; a change
// triggers the SM's reaction. Revival traps remove the link from the view,
// so the SM re-converges toward the pristine tables.
func (s *Sim) trapArrive(sw, port int32, down bool) {
	known := &s.faults.inband.knownDead
	s.res.TrapsDelivered++
	if known.Dead(topology.SwitchID(sw), int(port)) != down {
		known.Mark(s.tree, topology.SwitchID(sw), int(port), down)
		s.smReact(known)
	}
}

// sendSMP transmits (or retransmits) the LFT-update SMP of transaction idx
// at time at: the update arrives at its switch if the management path holds,
// and the response timer is armed regardless — timeouts, not deliveries, are
// what the transaction machine runs on.
func (s *Sim) sendSMP(idx int, at Time) {
	ib := s.faults.inband
	gen, timeoutNs := ib.txns.Send(idx)
	s.res.SMPsSent++
	if ib.txns.Attempts(idx) > 1 {
		s.res.SMPRetries++
	}
	if hops, ok := s.smpRouteHops(ib.fo.Active(), s.faults.staged[idx].sw); ok {
		s.schedule(at+Time(hops)*mgmtHopNs, event{kind: evSMPArrive, a: int32(idx)})
	}
	s.schedule(at+Time(timeoutNs), event{kind: evSMPTimeout, a: int32(idx), b: int32(gen)})
}

// smpArrive is the SMP reaching its target switch: the first copy applies
// the table update (retransmissions are absorbed idempotently), and the
// response walks back to the SM — its loss leaves the timer to expire.
func (s *Sim) smpArrive(idx int) {
	ib := s.faults.inband
	if ib.txns.Apply(idx) {
		s.applyLFTUpdate(idx)
	}
	// The response retraces the directed route; links die bidirectionally,
	// so replanning from the SM side keeps the symmetry honest.
	if hops, ok := s.smpRouteHops(ib.fo.Active(), s.faults.staged[idx].sw); ok {
		s.schedule(s.now+Time(hops)*mgmtHopNs, event{kind: evSMPAck, a: int32(idx)})
	}
}

// smpAck closes the transaction at the SM.
func (s *Sim) smpAck(idx int) {
	s.faults.inband.txns.Ack(idx)
}

// smpTimeout fires a transaction's response timer: retransmit under budget,
// park over it (the sweep re-drives parked transactions).
func (s *Sim) smpTimeout(idx int, gen int32) {
	ib := s.faults.inband
	switch ib.txns.Expire(idx, uint32(gen)) {
	case sm.TxnResend:
		s.sendSMP(idx, s.now)
	case sm.TxnExhausted:
		s.res.SMPFailed++
	}
}

// smSweep is the periodic SM tick: observe both SM nodes' liveness and fail
// over if the active one is dead, discover ground-truth port state and diff
// it against the SM's view (the only recovery path for lost traps), and
// re-drive parked SMP transactions.
func (s *Sim) smSweep() {
	ib := s.faults.inband
	s.res.SMSweeps++
	switched, anyUp := ib.fo.Observe(s.smNodeUp(ib.master), s.smNodeUp(ib.standby))
	if switched {
		s.res.Failovers++
	}
	s.schedule(s.now+ib.cfg.SweepIntervalNs, event{kind: evSMSweep})
	if !anyUp {
		// No SM can reach the fabric; the tick keeps running so a revival
		// is noticed.
		return
	}
	// Capture the re-drive list before the repair below opens new
	// transactions (a fresh transaction is never parked, but the slice must
	// not alias a growing table).
	redrive := ib.txns.Parked()
	if !ib.knownDead.Equal(&s.faults.deadLinks) {
		s.res.SweepDetections++
		ib.knownDead.Copy(&s.faults.deadLinks)
		s.smReact(&ib.knownDead)
	}
	for i, idx := range redrive {
		ib.txns.Reset(idx)
		s.sendSMP(idx, s.now+SMProcessNs+Time(i)*LFTUpdateNs)
	}
}

// refreshPartition recomputes the partition finding over the SM's knowledge
// after an in-band reaction and counts transitions into a partitioned
// fabric. The finding drives graceful degradation: a new verdict takes
// effect at each flow's next timer re-arm (see armTimer), so no timer state
// is touched here.
func (s *Sim) refreshPartition() {
	ib := s.faults.inband
	ib.finding = core.DetectPartitions(s.tree, &ib.knownDead)
	if ib.finding.Partitioned() && !ib.partitioned {
		s.res.PartitionEvents++
	}
	ib.partitioned = ib.finding.Partitioned()
}

// drainUnreachable empties a flow whose destination the SM declared
// unreachable: every packet the receiver never got counts
// UnreachableDegraded — a loss the transport will not retry, kept apart from
// Failed (budget exhaustion) — while delivered-but-unconfirmed packets
// simply leave the sender's books (the simulator is omniscient; counting
// them too would break conservation).
func (s *Sim) drainUnreachable(idx int32, f *txFlow) {
	rxf := &s.transport.rx[idx]
	for i := range f.unacked {
		tp := &f.unacked[i]
		if tp.seq <= rxf.cum || rxf.winContains(tp.seq) {
			continue
		}
		s.res.UnreachableDegraded++
		if b := s.seriesAt(s.now); b != nil {
			b.unreachable++
		}
	}
	f.unacked = f.unacked[:0]
	f.timerGen++
}
