// In-band subnet-management state machines: the SMP set-transaction manager
// (timeout/retransmit with capped exponential backoff and a retry budget),
// the deterministic master/standby failover automaton, and the sweep's
// dead-link diff. All three are pure — no clocks, no entropy, no I/O — so the
// simulator can drive them from its event loop and stay bit-deterministic
// across scheduler paths; they live here (not in the simulator) because they
// are subnet-manager policy, the in-band counterpart of this package's
// directed-route bring-up.
package sm

// TxnConfig parameterizes SMP set-transaction retransmission. It mirrors the
// reliable transport's policy — capped exponential backoff plus a retry
// budget — but for management datagrams, whose loss is recovered by the SM's
// periodic sweep rather than by an end-to-end Failed count.
type TxnConfig struct {
	// BaseTimeoutNs is the response timeout of a transaction's first send.
	BaseTimeoutNs int64
	// BackoffMult multiplies the timeout after every retransmission.
	BackoffMult float64
	// MaxTimeoutNs caps the backed-off timeout.
	MaxTimeoutNs int64
	// MaxRetries is the retransmission budget: after this many resends the
	// next expiry parks the transaction (TxnExhausted) instead of retrying.
	MaxRetries int
}

// Timeout returns the backed-off response timeout after the given number of
// retransmissions: min(Base * Mult^attempts, Cap). Pure in the config, so
// the SMP schedule is deterministic. The simulator's reliable transport
// times its retransmissions with the same function.
func (c TxnConfig) Timeout(attempts int) int64 {
	t := float64(c.BaseTimeoutNs)
	for i := 0; i < attempts; i++ {
		t *= c.BackoffMult
		if int64(t) >= c.MaxTimeoutNs {
			return c.MaxTimeoutNs
		}
	}
	if int64(t) > c.MaxTimeoutNs {
		return c.MaxTimeoutNs
	}
	return int64(t)
}

// TxnOutcome classifies a fired transaction timer.
type TxnOutcome int

const (
	// TxnStale: the timer was superseded (the transaction was resent, acked,
	// or reset since the timer was armed) — ignore it.
	TxnStale TxnOutcome = iota
	// TxnResend: budget remains — retransmit and re-arm.
	TxnResend
	// TxnExhausted: the retry budget ran out — park the transaction until a
	// sweep re-drives it.
	TxnExhausted
)

// txn is one SMP set transaction (one staged per-switch table update).
type txn struct {
	// attempts counts transmissions (first send included).
	attempts int
	// gen invalidates outstanding timers: every send and every terminal
	// state change bumps it, and a timer carrying an older generation is
	// stale. The same generation-counter idiom as the transport's txFlow.
	gen uint32
	// applied marks the target switch having executed the update (set once;
	// retransmitted copies are idempotent). acked marks the SM having seen
	// the response. parked marks an exhausted budget awaiting a sweep.
	applied bool
	acked   bool
	parked  bool
}

// TxnManager tracks the SM's open SMP set transactions, one per staged
// table update, indexed densely in open order.
type TxnManager struct {
	cfg  TxnConfig
	txns []txn
}

// NewTxnManager returns an empty manager with the given retry policy.
func NewTxnManager(cfg TxnConfig) *TxnManager {
	return &TxnManager{cfg: cfg}
}

// Len returns the number of transactions ever opened.
func (m *TxnManager) Len() int { return len(m.txns) }

// Open registers a new transaction and returns its index.
func (m *TxnManager) Open() int {
	m.txns = append(m.txns, txn{})
	return len(m.txns) - 1
}

// Send records one transmission of the transaction and returns the timer
// generation to arm with and the backed-off timeout for it. attempts counts
// transmissions, so the first send arms Timeout(0).
func (m *TxnManager) Send(idx int) (gen uint32, timeoutNs int64) {
	t := &m.txns[idx]
	timeoutNs = m.cfg.Timeout(t.attempts)
	t.attempts++
	t.gen++
	return t.gen, timeoutNs
}

// Expire classifies a fired timer carrying the given generation.
func (m *TxnManager) Expire(idx int, gen uint32) TxnOutcome {
	t := &m.txns[idx]
	if t.gen != gen || t.acked || t.parked {
		return TxnStale
	}
	if t.attempts > m.cfg.MaxRetries {
		t.parked = true
		t.gen++
		return TxnExhausted
	}
	return TxnResend
}

// Apply records the target switch executing the update; it reports true only
// the first time, so retransmitted copies stay idempotent at the target.
func (m *TxnManager) Apply(idx int) bool {
	t := &m.txns[idx]
	if t.applied {
		return false
	}
	t.applied = true
	return true
}

// Ack records the SM receiving the response, closing the transaction and
// invalidating its outstanding timer. Reports true only the first time.
func (m *TxnManager) Ack(idx int) bool {
	t := &m.txns[idx]
	if t.acked {
		return false
	}
	t.acked = true
	t.gen++
	return true
}

// Acked reports whether the transaction has closed.
func (m *TxnManager) Acked(idx int) bool { return m.txns[idx].acked }

// Attempts returns the transmissions performed so far.
func (m *TxnManager) Attempts(idx int) int { return m.txns[idx].attempts }

// Parked returns the indices of transactions whose budget ran out without an
// acknowledgment, in ascending order — the set a sweep re-drives.
func (m *TxnManager) Parked() []int {
	var out []int
	for i := range m.txns {
		if m.txns[i].parked && !m.txns[i].acked {
			out = append(out, i)
		}
	}
	return out
}

// Reset re-opens a parked transaction for a sweep's re-drive: the attempt
// counter restarts (the fabric may have changed; the old budget tells us
// nothing about the new path) and any stray timer is invalidated.
func (m *TxnManager) Reset(idx int) {
	t := &m.txns[idx]
	t.parked = false
	t.attempts = 0
	t.gen++
}

// DiffDeadLinks diffs the fabric's discovered dead-link state against the
// SM's known view: added holds discovered links the SM did not know dead,
// removed the links the SM believes dead that discovery no longer reports.
// Both outputs preserve their source slice's order (the inputs are
// event-ordered slices, not maps), so a sweep acting on the diff stays
// deterministic.
func DiffDeadLinks(known, discovered [][2]int32) (added, removed [][2]int32) {
	inKnown := make(map[[2]int32]bool, len(known))
	for _, e := range known {
		inKnown[e] = true
	}
	inDisc := make(map[[2]int32]bool, len(discovered))
	for _, e := range discovered {
		inDisc[e] = true
	}
	for _, e := range discovered {
		if !inKnown[e] {
			added = append(added, e)
		}
	}
	for _, e := range known {
		if !inDisc[e] {
			removed = append(removed, e)
		}
	}
	return added, removed
}

// SameDeadLinks reports whether two dead-link views name the same link set,
// order-insensitively. This is the SM's memoization test: repair targets are
// a pure function of the dead set, so an unchanged set means the previous
// recomputation still holds and the whole repair pass can be skipped — the
// common case when several traps from one fault burst coalesce at the same
// instant.
func SameDeadLinks(a, b [][2]int32) bool {
	added, removed := DiffDeadLinks(a, b)
	return len(added) == 0 && len(removed) == 0
}

// Failover is the deterministic master/standby election automaton. Mastership
// is sticky: the active SM serves while its attach point is alive, and moves
// to the other instance only when the active one's attach point is dead and
// the other's is alive — no automatic failback, so a flapping master cannot
// bounce mastership (the IBA's master/standby SMInfo handover, reduced to
// the liveness signal the sweep can observe).
type Failover struct {
	master  int32
	standby int32
	active  int32
}

// NewFailover returns the automaton with the master initially active.
func NewFailover(master, standby int32) *Failover {
	return &Failover{master: master, standby: standby, active: master}
}

// Active returns the node hosting the currently-active SM instance.
func (f *Failover) Active() int32 { return f.active }

// Observe feeds one sweep's liveness observation (is each instance's attach
// point alive?) into the automaton. switched reports a takeover this
// observation; anyUp whether any instance can currently reach the fabric.
func (f *Failover) Observe(masterUp, standbyUp bool) (switched, anyUp bool) {
	activeUp, otherUp, other := masterUp, standbyUp, f.standby
	if f.active == f.standby {
		activeUp, otherUp, other = standbyUp, masterUp, f.master
	}
	if activeUp {
		return false, true
	}
	if otherUp {
		f.active = other
		return true, true
	}
	return false, false
}
