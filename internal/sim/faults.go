package sim

import (
	"fmt"
	"sort"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
)

// Subnet-manager timing, shared by the oracle and the in-band model. The
// trap latency models port-down detection plus, under the oracle, trap
// delivery to the SM (in-band, delivery time comes from routing the trap);
// the processing time models the SM's path recomputation; the update
// spacing models one LinearForwardingTable SMP issued per switch, so table
// updates land staged rather than atomically: the i-th switch with a delta
// is rewritten at reaction + SMProcessNs + i*LFTUpdateNs.
const (
	TrapLatencyNs Time = 5_000
	SMProcessNs   Time = 2_000
	LFTUpdateNs   Time = 500
)

// In-band subnet-management timing (FaultPlan.InBandSM). The sweep interval
// is the default of the SM's all-ports discovery cadence — the only recovery
// path when a trap is lost. An LFT-update SMP transaction follows the capped
// exponential backoff a real MAD layer uses: its response timeout starts at
// SMPTimeoutNs and multiplies by SMPBackoffMult per retransmission up to
// SMPMaxTimeoutNs; after SMPMaxRetries retransmissions it parks until a
// sweep re-drives it.
const (
	DefaultSMSweepIntervalNs Time = 25_000
	SMPTimeoutNs             Time = 4_000
	SMPBackoffMult                = 2.0
	SMPMaxTimeoutNs               = 8 * SMPTimeoutNs
	SMPMaxRetries                 = 4
)

// InBandSMConfig switches the subnet-manager model from the default oracle
// (traps and table updates land by fiat, after fixed latencies, regardless of
// fabric state) to in-band management: traps and per-switch LFT-update SMPs
// travel the management VL through the live forwarding tables, so a
// notification whose path crosses a dead link is lost and recovery falls to
// the periodic sweep. It also enables SMP retry/backoff, master/standby SM
// failover, and partition-aware source degradation. The master SM runs on
// node 0 and the standby on the last node (SMNodes); the SMP timing is
// fixed (SMPTimeoutNs and the constants beside it). Nil keeps the oracle;
// the zero value takes every default below.
type InBandSMConfig struct {
	// SweepIntervalNs is the period of the lightweight all-ports sweep that
	// diffs discovered port state against the SM's view, recovering lost
	// traps and re-driving retry-exhausted SMPs. Zero takes the default.
	SweepIntervalNs Time
	// TrapLossProb is an extra independent loss probability applied to each
	// emitted trap, on top of path-based loss, modelling the unacked nature
	// of trap MADs. Must be in [0, 1]; 1 silences every trap, leaving the
	// periodic sweep as the SM's only discovery path — the sweep-only
	// extreme of the recovery-tail study.
	TrapLossProb float64
}

// SMNodes returns the endnodes hosting the in-band subnet managers: the
// master on node 0 and the standby on the last node. Traps and SMP responses
// are routed to the active one through the live tables, and its attachment
// dying silences the SM until failover. The two sit on different leaf
// switches on every fat-tree with more than one switch, so one switch outage
// cannot take out both.
func SMNodes(t *topology.Tree) (master, standby topology.NodeID) {
	return 0, topology.NodeID(t.Nodes() - 1)
}

// withDefaults fills zero fields.
func (c InBandSMConfig) withDefaults() InBandSMConfig {
	if c.SweepIntervalNs == 0 {
		c.SweepIntervalNs = DefaultSMSweepIntervalNs
	}
	return c
}

// validate rejects inconsistent in-band SM configurations. Called on the
// defaults-filled copy.
func (c *InBandSMConfig) validate(t *topology.Tree) error {
	master, standby := SMNodes(t)
	msw, _ := t.NodeAttachment(master)
	ssw, _ := t.NodeAttachment(standby)
	if msw == ssw {
		return fmt.Errorf("sim: InBandSM master (node %d) and standby (node %d) share leaf switch %d; "+
			"one switch outage would take out both SMs, defeating failover", master, standby, msw)
	}
	if !(c.TrapLossProb >= 0 && c.TrapLossProb <= 1) {
		return fmt.Errorf("sim: InBandSM.TrapLossProb %v outside [0, 1]", c.TrapLossProb)
	}
	if c.SweepIntervalNs <= 0 {
		return fmt.Errorf("sim: InBandSM.SweepIntervalNs must be positive, got %d", c.SweepIntervalNs)
	}
	return nil
}

// LinkFault schedules one bidirectional link outage. The link is named by
// its switch-side endpoint (switch + abstract port), exactly like
// core.FaultSet.FailLink; node-attachment links are named by the leaf-switch
// endpoint. Both directions die and revive together, matching how a port
// pair fails in practice.
type LinkFault struct {
	Switch int32
	Port   int
	// DownNs is the simulated time the link dies.
	DownNs Time
	// UpNs, when positive, is the time the link comes back; zero means the
	// link stays down for the rest of the run.
	UpNs Time
}

// SwitchFault schedules one whole-switch outage: every port of the named
// switch goes down at DownNs and (when UpNs is positive) comes back at UpNs,
// atomically — all link-down events land at the same instant, before the
// single trap they share. Killing a switch severs its attached nodes (leaf)
// or a slice of the fabric's spine capacity (inner/root levels).
type SwitchFault struct {
	Switch int32
	// DownNs is the simulated time the switch dies.
	DownNs Time
	// UpNs, when positive, is the time the switch comes back; zero means it
	// stays down for the rest of the run.
	UpNs Time
}

// FaultPlan schedules live link failures inside a running simulation and
// chooses the subnet-manager model that reacts to them. The offline fault
// machinery (core.FaultSet, core.RepairState, core.SelectLID) repairs
// tables before a run starts; a FaultPlan instead drives the same repair
// from the simulation clock, so the transient — drops before the trap
// fires, staged table updates, source reselection — is observable.
type FaultPlan struct {
	Faults []LinkFault
	// SwitchFaults take every port of a switch down/up atomically; see
	// SwitchFault. A switch fault must not overlap a link fault naming one
	// of the switch's links (validate rejects the ambiguity). Two adjacent
	// switches may fail together: with identical DownNs/UpNs windows their
	// shared link goes down and up once.
	SwitchFaults []SwitchFault
	// Reselect enables fault-avoiding source path selection once the first
	// trap has fired: sources re-evaluate the destination's LID range
	// against the live tables and dead links (core.SelectLID's policy,
	// applied to the running subnet) and steer packets onto surviving
	// paths. Without it, sources keep their configured selection and
	// packets routed onto broken entries drop.
	Reselect bool
	// InBandSM, when set, replaces the oracle's fiat trap delivery and table
	// writes with in-band subnet management: see InBandSMConfig. Both models
	// react through the same repair and table write, with the same timing
	// constants (TrapLatencyNs, SMProcessNs, LFTUpdateNs).
	InBandSM *InBandSMConfig
}

// withDefaults fills the in-band SM's zero fields (cloning InBandSM so
// shared plan literals stay untouched).
func (p FaultPlan) withDefaults() FaultPlan {
	if p.InBandSM != nil {
		c := p.InBandSM.withDefaults()
		p.InBandSM = &c
	}
	return p
}

// markWritable calls mark (perhaps repeatedly) for each switch whose live
// table the SM may rewrite under the plan: both switch-side ends of every
// link the plan can kill — each link fault, and every link of a switch fault.
// A dead-link set only holds such links, so core.RepairState.DirtySwitches,
// and with it every staged update, names no other switch.
func (p *FaultPlan) markWritable(t *topology.Tree, mark func(sw int32)) {
	link := func(sw int32, port int) {
		mark(sw)
		if ref := t.SwitchNeighbor(topology.SwitchID(sw), port); ref.Kind == topology.KindSwitch {
			mark(int32(ref.Switch))
		}
	}
	for _, f := range p.Faults {
		link(f.Switch, f.Port)
	}
	for _, f := range p.SwitchFaults {
		for port := 0; port < t.M(); port++ {
			link(f.Switch, port)
		}
	}
}

// faultIval is one outage interval of a physical link, attributed back to
// the plan entry that produced it, used by up-front validation.
type faultIval struct {
	key      [2]int32 // canonical switch-side endpoint of the link
	down, up Time     // up == 0 means down forever
	// entry indexes the plan entry, port is the link's port on its switch,
	// and outSwitch is the switch a SwitchFaults entry takes out, -1 for a
	// link fault (whose switch is sw).
	entry, port int
	sw          int32
	outSwitch   int32
}

// desc names the plan entry for an error message: "Faults[2] (switch 3
// port 1)" or "SwitchFaults[0] (switch 5, its link at port 2)". Only a plan
// that fails validation formats it.
func (v faultIval) desc() string {
	if v.outSwitch < 0 {
		return fmt.Sprintf("Faults[%d] (switch %d port %d)", v.entry, v.sw, v.port)
	}
	return fmt.Sprintf("SwitchFaults[%d] (switch %d, its link at port %d)", v.entry, v.sw, v.port)
}

// canonicalLink names a physical link by one agreed switch-side endpoint, so
// faults addressing the same link from either end collide in validation. The
// lower switch ID wins for inter-switch links; node-attachment links have
// only the one switch-side name.
func canonicalLink(t *topology.Tree, sw int32, port int) [2]int32 {
	ref := t.SwitchNeighbor(topology.SwitchID(sw), port)
	if ref.Kind == topology.KindSwitch && int32(ref.Switch) < sw {
		return [2]int32{int32(ref.Switch), int32(ref.Port)}
	}
	return [2]int32{sw, int32(port)}
}

// validate rejects inconsistent plans against the subnet's fabric, up front
// and with a descriptive error — unknown switch or port names, down-after-up
// inversions, duplicate events at the same instant, and overlapping outage
// intervals on the same physical link (including a link fault colliding with
// a switch fault that covers the same link) — instead of misbehaving or
// panicking mid-run. The one sanctioned overlap is the link between two
// switch faults on adjacent switches with identical windows: both ends die
// and revive together, so the link's state is unambiguous.
func (p FaultPlan) validate(t *topology.Tree) error {
	if p.InBandSM != nil {
		if err := p.InBandSM.validate(t); err != nil {
			return err
		}
	}
	ivals := make([]faultIval, 0, len(p.Faults)+len(p.SwitchFaults)*t.M())
	for i, f := range p.Faults {
		if !t.ValidSwitch(topology.SwitchID(f.Switch)) {
			return fmt.Errorf("sim: FaultPlan.Faults[%d] names invalid switch %d", i, f.Switch)
		}
		if f.Port < 0 || f.Port >= t.M() {
			return fmt.Errorf("sim: FaultPlan.Faults[%d] names invalid port %d on switch %d", i, f.Port, f.Switch)
		}
		if f.DownNs < 0 {
			return fmt.Errorf("sim: FaultPlan.Faults[%d] has negative DownNs", i)
		}
		if f.UpNs != 0 && f.UpNs <= f.DownNs {
			return fmt.Errorf("sim: FaultPlan.Faults[%d] revives at %d, not after its failure at %d", i, f.UpNs, f.DownNs)
		}
		ivals = append(ivals, faultIval{
			key: canonicalLink(t, f.Switch, f.Port), down: f.DownNs, up: f.UpNs,
			entry: i, port: f.Port, sw: f.Switch, outSwitch: -1,
		})
	}
	for i, f := range p.SwitchFaults {
		if !t.ValidSwitch(topology.SwitchID(f.Switch)) {
			return fmt.Errorf("sim: FaultPlan.SwitchFaults[%d] names invalid switch %d", i, f.Switch)
		}
		if f.DownNs < 0 {
			return fmt.Errorf("sim: FaultPlan.SwitchFaults[%d] has negative DownNs", i)
		}
		if f.UpNs != 0 && f.UpNs <= f.DownNs {
			return fmt.Errorf("sim: FaultPlan.SwitchFaults[%d] revives at %d, not after its failure at %d", i, f.UpNs, f.DownNs)
		}
		for port := 0; port < t.M(); port++ {
			ivals = append(ivals, faultIval{
				key: canonicalLink(t, f.Switch, port), down: f.DownNs, up: f.UpNs,
				entry: i, port: port, sw: f.Switch, outSwitch: f.Switch,
			})
		}
	}
	// Per physical link, outage intervals must be disjoint and in strict
	// succession: a second event at the same instant, an overlap, or any
	// event after a forever-down is ambiguous — the live link state would
	// depend on event scheduling order.
	sort.SliceStable(ivals, func(a, b int) bool {
		if ivals[a].key != ivals[b].key {
			if ivals[a].key[0] != ivals[b].key[0] {
				return ivals[a].key[0] < ivals[b].key[0]
			}
			return ivals[a].key[1] < ivals[b].key[1]
		}
		return ivals[a].down < ivals[b].down
	})
	for i := 1; i < len(ivals); i++ {
		prev, cur := ivals[i-1], ivals[i]
		if prev.key != cur.key {
			continue
		}
		if prev.outSwitch >= 0 && cur.outSwitch >= 0 && prev.outSwitch != cur.outSwitch &&
			prev.down == cur.down && prev.up == cur.up {
			continue // adjacent switches failing together
		}
		switch {
		case prev.down == cur.down:
			return fmt.Errorf("sim: FaultPlan.%s and %s fail the same link at the same instant %d",
				prev.desc(), cur.desc(), cur.down)
		case prev.up == 0:
			return fmt.Errorf("sim: FaultPlan.%s takes the link down forever at %d, but %s touches it again at %d",
				prev.desc(), prev.down, cur.desc(), cur.down)
		case cur.down < prev.up:
			return fmt.Errorf("sim: FaultPlan.%s (down %d..%d) overlaps %s (down at %d) on the same link",
				prev.desc(), prev.down, prev.up, cur.desc(), cur.down)
		case cur.down == prev.up:
			return fmt.Errorf("sim: FaultPlan.%s revives the link at %d, the same instant %s takes it down",
				prev.desc(), prev.up, cur.desc())
		}
	}
	return nil
}

// stagedLFTUpdate is one switch's pending table update: the LIDs whose
// repair target changed when it was staged, faultRun.stagedLIDs[first:
// first+count]. applyLFTUpdate writes their target ports as of delivery,
// not as of staging.
type stagedLFTUpdate struct {
	sw, first, count int32
}

// faultRun is the live-fault state of one simulation.
type faultRun struct {
	plan FaultPlan
	// deadLinks is the set of currently-dead links, updated in place as
	// links fail and revive.
	deadLinks topology.LinkSet
	// epoch counts fabric-knowledge changes visible to sources: it bumps at
	// every trap and every applied table update, invalidating reselection
	// caches. Zero until the first trap — sources react to the SM's sweep,
	// not to the failure itself.
	epoch uint32
	// repair is the SM's incremental view of where each switch's table is
	// heading: the pristine configuration plus every staged-but-unapplied
	// delta, evolved per trap by core.RepairIncremental instead of a full
	// clone-and-rescan. Reset to the configured subnet at the first trap
	// (repairing), and kept with its buffers across pooled runs; smDead is
	// the dead set of the last recomputation, the memoization key.
	repair    core.RepairState
	repairing bool
	smDead    topology.LinkSet
	// staged holds every update staged so far, each a range of stagedLIDs.
	staged     []stagedLFTUpdate
	stagedLIDs []ib.LID

	// reselection caches, indexed src*nodes+dst; reselEpoch holds the epoch
	// the cached mask was computed at (0 = unset; valid epochs are >= 1).
	// Sized by build for plans with Reselect on fabrics of at most 4096
	// nodes; nil otherwise.
	reselMask  []uint64
	reselEpoch []uint32

	// inband is the in-band SM state (insm.go), nil under the oracle.
	inband *inbandRun
}

// reset empties f for the next run, keeping the buffers a later run
// resizes in place: the reselection caches, the dead-link sets' words, the
// repair state's buffers (it drops the subnet) and the staged updates.
func (f *faultRun) reset() {
	f.repair.Reset(nil)
	*f = faultRun{
		reselMask: f.reselMask, reselEpoch: f.reselEpoch,
		deadLinks: f.deadLinks, smDead: f.smDead, repair: f.repair,
		staged: f.staged[:0], stagedLIDs: f.stagedLIDs[:0],
	}
	f.deadLinks.Reset()
	f.smDead.Reset()
}

// scheduleFaults seeds the plan's link events. Called once from Run.
func (s *Sim) scheduleFaults() {
	plan := s.cfg.FaultPlan
	if plan == nil {
		return
	}
	s.faults.plan = *plan
	// Sentinels until the first link death and the first applied table
	// update; buildResult turns them into FirstFaultNs and RecoveryNs.
	s.res.FirstFaultNs, s.res.RecoveryNs = -1, -1
	// In-band management emits traps from the link events themselves
	// (markLinkDown / linkUp), routed through the live tables; only the
	// oracle gets the fiat evTrap that always reaches the SM.
	oracle := plan.InBandSM == nil
	for _, f := range plan.Faults {
		s.schedule(f.DownNs, event{kind: evLinkDown, a: f.Switch, b: int32(f.Port)})
		if oracle {
			s.schedule(f.DownNs+TrapLatencyNs, event{kind: evTrap})
		}
		if f.UpNs > 0 {
			s.schedule(f.UpNs, event{kind: evLinkUp, a: f.Switch, b: int32(f.Port)})
			if oracle {
				s.schedule(f.UpNs+TrapLatencyNs, event{kind: evTrap})
			}
		}
	}
	// A switch fault is its ports' link events landing atomically: every
	// down (or up) at the same instant, ahead of the single trap they share.
	// A link shared with an earlier switch fault of the same window (validate
	// admits adjacent switches failing together) is that fault's to schedule.
	for i, f := range plan.SwitchFaults {
		for port := 0; port < s.tree.M(); port++ {
			if !s.sharedWithEarlier(plan.SwitchFaults, i, port) {
				s.schedule(f.DownNs, event{kind: evLinkDown, a: f.Switch, b: int32(port)})
			}
		}
		if oracle {
			s.schedule(f.DownNs+TrapLatencyNs, event{kind: evTrap})
		}
		if f.UpNs > 0 {
			for port := 0; port < s.tree.M(); port++ {
				if !s.sharedWithEarlier(plan.SwitchFaults, i, port) {
					s.schedule(f.UpNs, event{kind: evLinkUp, a: f.Switch, b: int32(port)})
				}
			}
			if oracle {
				s.schedule(f.UpNs+TrapLatencyNs, event{kind: evTrap})
			}
		}
	}
	if !oracle {
		s.initInBand()
	}
}

// sharedWithEarlier reports whether the link at port of SwitchFaults[i]'s
// switch leads to the switch of an earlier entry with the same window.
func (s *Sim) sharedWithEarlier(faults []SwitchFault, i, port int) bool {
	f := faults[i]
	ref := s.tree.SwitchNeighbor(topology.SwitchID(f.Switch), port)
	if ref.Kind != topology.KindSwitch {
		return false
	}
	for _, g := range faults[:i] {
		if g.Switch == int32(ref.Switch) && g.DownNs == f.DownNs && g.UpNs == f.UpNs {
			return true
		}
	}
	return false
}

// linkEnds returns the global port ids of the transmitting ports of both
// directions of the link at (sw, port): the switch's own out-port plus the
// peer's (switch or endnode source). noPort when a direction has no
// transmitter.
func (s *Sim) linkEnds(sw int32, port int) (a, b int32) {
	a = sw*int32(s.m) + int32(port)
	b = noPort
	ref := s.tree.SwitchNeighbor(topology.SwitchID(sw), port)
	switch ref.Kind {
	case topology.KindSwitch:
		b = int32(ref.Switch)*int32(s.m) + int32(ref.Port)
	case topology.KindNode:
		b = s.nodePid(int32(ref.Node))
	}
	return a, b
}

// linkDown kills both directions of the link: packets buffered on the dead
// out-ports are dropped (their held credits return so upstream state stays
// consistent), and the link is recorded for the next SM sweep: killPort on
// each transmitter, then markLinkDown once for the link. The epoch verifier
// first touches the LIDs forwarded over it.
func (s *Sim) linkDown(sw int32, port int) {
	s.epochs.TouchLink(sw, port)
	a, b := s.linkEnds(sw, port)
	s.killPort(a)
	s.killPort(b)
	s.markLinkDown(sw, port)
}

// killPort marks one transmitting port dead and drops everything buffered on
// it. Idempotent; a noPort id is ignored.
func (s *Sim) killPort(pid int32) {
	if pid < 0 || s.ports[pid].dead {
		return
	}
	s.ports[pid].dead = true
	s.flushDead(pid)
}

// markLinkDown records the dead link for the next SM sweep (once) and
// stamps the first-failure time.
func (s *Sim) markLinkDown(sw int32, port int) {
	if s.faults.deadLinks.Dead(topology.SwitchID(sw), port) {
		return
	}
	s.faults.deadLinks.FailLink(s.tree, topology.SwitchID(sw), port)
	if s.res.FirstFaultNs < 0 {
		s.res.FirstFaultNs = s.now
	}
	if s.faults.inband != nil {
		s.emitTrap(sw, int32(port), true)
	}
}

// linkUp revives both directions. Credit state needs no repair: every credit
// a dead transmitter consumed came back either through normal delivery or
// through dropPkt's credit return, so the port restarts with full credits.
func (s *Sim) linkUp(sw int32, port int) {
	s.epochs.TouchLink(sw, port)
	a, b := s.linkEnds(sw, port)
	for _, pid := range [2]int32{a, b} {
		if pid >= 0 {
			s.ports[pid].dead = false
		}
	}
	s.faults.deadLinks.Mark(s.tree, topology.SwitchID(sw), port, false)
	if s.faults.inband != nil {
		s.emitTrap(sw, int32(port), false)
	}
}

// flushDead drops every packet buffered on a just-killed out-port: the
// output-buffer queues (their occupancy slots free) and the input-buffered
// packets waiting for a slot (their upstream credits return). A packet mid-
// serialization keeps its pending evRelease, which settles the remaining
// occupancy; the packet itself dies at head arrival via the upstream-dead
// check.
func (s *Sim) flushDead(pid int32) {
	base := int(pid) * s.vls
	for vl := 0; vl < s.vls; vl++ {
		i := base + vl
		for !s.queues[i].empty() {
			p := s.queues[i].popFront()
			s.cv[i].occupancy--
			s.res.DroppedOnDeadLink++
			s.dropPkt(p)
		}
		for !s.waiting[i].empty() {
			p := s.waiting[i].popFront()
			s.res.DroppedOnDeadLink++
			s.dropPkt(p)
		}
	}
}

// dropPkt removes a packet from the model at a dead link: the upstream
// credit it still holds (if any) returns as its input buffer frees, the drop
// is counted against the window and the delivery series, and the packet is
// recycled. Callers bump the per-cause counter before calling.
func (s *Sim) dropPkt(p *pkt) {
	s.res.DroppedTotal++
	if s.now >= s.cfg.WarmupNs && s.now < s.end {
		s.res.DroppedWindow++
	}
	s.res.LastDropNs = s.now
	if b := s.seriesAt(s.now); b != nil {
		b.dropped++
	}
	if p.trace != nil {
		p.trace.DroppedNs = s.now
	}
	if p.upstream >= 0 {
		free := p.arrival + s.serPkt
		if s.now > free {
			free = s.now
		}
		s.schedule(free+DefaultFlyNs, event{kind: evCredit, a: p.upstream, b: int32(p.VL)})
		p.upstream = noPort
	}
	s.freePkt(p)
}

// smReact is the subnet manager reacting to a change in its view of the dead
// links — ground truth (faultRun.deadLinks) for the oracle (evTrap), the
// trap- and sweep-fed knownDead in-band. It recomputes the repair target and
// delivers staged update i at now + SMProcessNs + i*LFTUpdateNs: by fiat
// under the oracle (a timed evLFTUpdate), as an LFT-update SMP transaction
// in-band. Sources learn of the fault from the SM: reselection activates
// (and caches invalidate) even when no table could be repaired.
func (s *Sim) smReact(view *topology.LinkSet) {
	first, count, ok := s.smRepair(view)
	if !ok {
		return
	}
	inband := s.faults.inband
	for i := 0; i < count; i++ {
		idx := first + i
		at := s.now + SMProcessNs + Time(i)*LFTUpdateNs
		if inband == nil {
			s.schedule(at, event{kind: evLFTUpdate, a: int32(idx)})
			continue
		}
		// Transactions and staged updates share indices: every staged
		// update is created here and nowhere else in in-band mode.
		if got := inband.txns.Open(); got != idx {
			s.fail(fmt.Errorf("sim: in-band SMP transaction %d opened for staged update %d (SM bug)", got, idx))
			return
		}
		s.sendSMP(idx, at)
	}
	s.faults.epoch++
	if s.cfg.VerifyEpochs {
		s.verifyEpoch()
	}
	if inband != nil {
		s.refreshPartition()
	}
}

// smRepair is the SM's path recomputation: evolve the persistent repair
// state to the dead set and stage one table update per switch whose repair
// target changed. The state's port→LIDs reverse index confines the work to
// the entries actually routed through links that died or revived since the
// last recomputation (core.RepairIncremental — RepairSubnet is its
// equivalence oracle), and the staged update IS the incremental diff, so no
// shadow tables are cloned or rescanned per event. An unchanged dead set
// short-circuits entirely. It returns the newly staged updates as the
// index range [first, first+count) and ok=false when the run already failed.
func (s *Sim) smRepair(dead *topology.LinkSet) (first, count int, ok bool) {
	fr := s.faults
	if !fr.repairing {
		// The first trap starts the repair over the pristine
		// configuration, whose reverse index the subnet builds once and
		// shares with every run on it; every later trap is delta work only.
		fr.repair.Reset(s.cfg.Subnet)
		fr.repairing = true
	} else if fr.smDead.Equal(dead) {
		// Memoized early-exit: the repair target is a pure function of the
		// dead set, so nothing can need staging. smReact still bumps the
		// epoch, exactly as a recomputation staging zero updates would.
		return 0, 0, true
	}
	deltas, err := fr.repair.RepairIncremental(dead, fr.repair.DirtySwitches(&fr.smDead, dead))
	if err != nil {
		s.fail(fmt.Errorf("sim: SM repair at %d ns: %w", s.now, err))
		return 0, 0, false
	}
	fr.smDead.Copy(dead)
	s.res.BrokenEntries = fr.repair.Broken()
	first = len(fr.staged)
	for _, d := range deltas {
		at := len(fr.stagedLIDs)
		for _, e := range d.Entries {
			fr.stagedLIDs = append(fr.stagedLIDs, e.LID)
		}
		fr.staged = append(fr.staged, stagedLFTUpdate{sw: int32(d.Switch), first: int32(at), count: int32(len(d.Entries))})
	}
	return first, len(deltas), true
}

// applyLFTUpdate rewrites one switch's live forwarding table for the LIDs of
// staged update idx — the timed, per-switch (non-atomic) table update of a
// real SM, delivered by fiat (evLFTUpdate) or by SMP (smpArrive). It writes
// the repair state's CURRENT target per LID, not the value at staging time:
// the update carries the table block as the SM now intends it, so updates of
// overlapping repairs that land out of order converge on the SM's latest
// target instead of resurrecting a stale remap. Each rewritten entry is
// recompiled into the fused forwarding row, so the hot path keeps reading
// the compiled table through fault recovery. The epoch verifier touches
// each LID before its entry is written.
func (s *Sim) applyLFTUpdate(idx int) {
	u := s.faults.staged[idx]
	lft := s.lfts[u.sw]
	if lft == s.cfg.Subnet.LFTs[u.sw] {
		// build clones every table the plan's faults can dirty; a write
		// here would corrupt the caller's pristine subnet.
		s.fail(fmt.Errorf("sim: LFT update to switch %d, whose table is shared with the configured subnet (model bug)", u.sw))
		return
	}
	target := &s.faults.repair
	lids := s.faults.stagedLIDs[u.first : u.first+u.count]
	fwdBase := int(u.sw) * s.lftSize
	for _, lid := range lids {
		port := target.TargetPort(topology.SwitchID(u.sw), lid)
		s.epochs.Touch(lid)
		if err := lft.Set(lid, port); err != nil {
			s.fail(fmt.Errorf("sim: applying LFT update to switch %d: %w", u.sw, err))
			return
		}
		s.setFwd(fwdBase+int(lid), s.compileEntry(u.sw, port))
	}
	s.res.LFTUpdates++
	s.res.LFTEntriesRewritten += int64(len(lids))
	s.res.RecoveryNs = s.now // the last update's time until buildResult
	s.faults.epoch++
	if s.cfg.VerifyEpochs {
		s.verifyEpoch()
	}
}

// reselectActive reports whether fault-avoiding source selection is in
// force: a plan with Reselect set, after the first trap fired.
func (s *Sim) reselectActive() bool {
	return s.cfg.FaultPlan != nil && s.faults.plan.Reselect && s.faults.epoch > 0
}

// usableMask computes which of the destination's LID offsets currently name
// a surviving path from src through the live tables — core.SelectLID's
// fault avoidance evaluated against the running subnet, including partially
// applied repairs. Offsets beyond 64 are not tracked (no evaluated network
// needs them); the mask is cached per (src, dst) until the next epoch bump.
func (s *Sim) usableMask(src, dst topology.NodeID) uint64 {
	idx := -1
	if s.faults.reselEpoch != nil {
		idx = int(src)*s.tree.Nodes() + int(dst)
		if s.faults.reselEpoch[idx] == s.faults.epoch {
			return s.faults.reselMask[idx]
		}
	}
	r := s.cfg.Subnet.Endports[dst]
	count := r.Count()
	if count > 64 {
		count = 64
	}
	var mask uint64
	for off := 0; off < count; off++ {
		if s.pathAlive(src, r.Base+ib.LID(off), dst) {
			mask |= 1 << uint(off)
		}
	}
	if idx >= 0 {
		s.faults.reselMask[idx] = mask
		s.faults.reselEpoch[idx] = s.faults.epoch
	}
	return mask
}

// pathAlive walks the compiled live forwarding rows from src toward dlid and
// reports whether the route reaches dst without crossing a dead link. The
// compiled table mirrors every applied update (applyLFTUpdate recompiles),
// so this sees exactly what the forwarding hot path sees.
func (s *Sim) pathAlive(src topology.NodeID, dlid ib.LID, dst topology.NodeID) bool {
	if s.ports[s.nodePid(int32(src))].dead {
		return false
	}
	sw, _ := s.tree.NodeAttachment(src)
	_, node := s.walkRows(int32(sw), dlid)
	return node == int32(dst)
}

// walkRows follows the compiled live forwarding rows from switch sw toward
// dlid and returns the links crossed and the endnode reached, or node -1 when
// the route dead-ends, crosses a dead link or outruns the fat-tree's longest
// path. Fault reselection (pathAlive) and in-band trap routing
// (mgmtWalkFrom) both walk with it.
func (s *Sim) walkRows(sw int32, dlid ib.LID) (hops int, node int32) {
	if int(dlid) >= s.lftSize {
		return 0, -1
	}
	maxHops := 2*s.tree.N() + 1
	for hop := 0; hop <= maxHops; hop++ {
		pid := s.fwdAt(int(sw)*s.lftSize + int(dlid))
		if pid < 0 || s.ports[pid].dead {
			return 0, -1
		}
		pt := &s.ports[pid]
		if pt.destNode >= 0 {
			return hop + 1, pt.destNode
		}
		sw = pt.destSw
	}
	return 0, -1
}
