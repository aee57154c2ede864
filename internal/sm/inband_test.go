package sm

import (
	"reflect"
	"testing"
)

func txnCfg() TxnConfig {
	return TxnConfig{BaseTimeoutNs: 1000, BackoffMult: 2, MaxTimeoutNs: 4000, MaxRetries: 2}
}

func TestTxnTimeoutBackoffAndCap(t *testing.T) {
	cfg := txnCfg()
	want := []int64{1000, 2000, 4000, 4000, 4000}
	for attempts, w := range want {
		if got := cfg.Timeout(attempts); got != w {
			t.Errorf("Timeout(%d) = %d, want %d", attempts, got, w)
		}
	}
}

func TestTxnLifecycle(t *testing.T) {
	m := NewTxnManager(txnCfg())
	idx := m.Open()
	if idx != 0 || m.Len() != 1 {
		t.Fatalf("Open = %d, Len = %d", idx, m.Len())
	}

	gen1, to1 := m.Send(idx)
	if to1 != 1000 {
		t.Fatalf("first send timeout = %d, want 1000", to1)
	}
	if m.Attempts(idx) != 1 {
		t.Fatalf("attempts after first send = %d", m.Attempts(idx))
	}
	// A stale generation is ignored.
	if out := m.Expire(idx, gen1-1); out != TxnStale {
		t.Fatalf("stale-generation expiry = %v, want TxnStale", out)
	}
	// The live timer asks for a resend while budget remains.
	if out := m.Expire(idx, gen1); out != TxnResend {
		t.Fatalf("first expiry = %v, want TxnResend", out)
	}
	gen2, to2 := m.Send(idx)
	if gen2 == gen1 {
		t.Fatal("resend did not bump the timer generation")
	}
	if to2 != 2000 {
		t.Fatalf("second send timeout = %d, want 2000 (backed off)", to2)
	}
	// gen1's timer, still in flight, is now stale.
	if out := m.Expire(idx, gen1); out != TxnStale {
		t.Fatalf("superseded timer = %v, want TxnStale", out)
	}

	// Apply is idempotent: only the first copy executes.
	if !m.Apply(idx) || m.Apply(idx) {
		t.Fatal("Apply must report true exactly once")
	}
	// Ack closes the transaction and invalidates the timer.
	if !m.Ack(idx) || m.Ack(idx) {
		t.Fatal("Ack must report true exactly once")
	}
	if !m.Acked(idx) {
		t.Fatal("Acked = false after Ack")
	}
	if out := m.Expire(idx, gen2); out != TxnStale {
		t.Fatalf("post-ack expiry = %v, want TxnStale", out)
	}
}

func TestTxnExhaustionAndReset(t *testing.T) {
	m := NewTxnManager(txnCfg()) // MaxRetries = 2: 3 transmissions total
	idx := m.Open()
	var gen uint32
	for i := 0; i < 3; i++ {
		gen, _ = m.Send(idx)
		if i < 2 {
			if out := m.Expire(idx, gen); out != TxnResend {
				t.Fatalf("expiry %d = %v, want TxnResend", i, out)
			}
		}
	}
	if out := m.Expire(idx, gen); out != TxnExhausted {
		t.Fatalf("budget-exhausted expiry = %v, want TxnExhausted", out)
	}
	// A parked transaction's late timers are stale, and it shows up for the
	// sweep's re-drive.
	if out := m.Expire(idx, gen); out != TxnStale {
		t.Fatalf("post-park expiry = %v, want TxnStale", out)
	}
	if got := m.Parked(); !reflect.DeepEqual(got, []int{idx}) {
		t.Fatalf("Parked = %v, want [%d]", got, idx)
	}
	// Reset restarts the budget at the base timeout.
	m.Reset(idx)
	if got := m.Parked(); got != nil {
		t.Fatalf("Parked after Reset = %v, want none", got)
	}
	if _, to := m.Send(idx); to != 1000 {
		t.Fatalf("post-reset send timeout = %d, want base 1000", to)
	}
	// An acked transaction never re-drives.
	m.Ack(idx)
	if got := m.Parked(); got != nil {
		t.Fatalf("Parked after Ack = %v, want none", got)
	}
}

func TestFailoverStickiness(t *testing.T) {
	f := NewFailover(0, 7)
	if f.Active() != 0 {
		t.Fatalf("initial active = %d, want master 0", f.Active())
	}
	// Master alive: nothing moves, standby state irrelevant.
	if sw, up := f.Observe(true, false); sw || !up {
		t.Fatalf("healthy master: switched=%v anyUp=%v", sw, up)
	}
	// Master dies, standby alive: takeover.
	if sw, up := f.Observe(false, true); !sw || !up || f.Active() != 7 {
		t.Fatalf("takeover: switched=%v anyUp=%v active=%d", sw, up, f.Active())
	}
	// Master revives: mastership is sticky, no failback.
	if sw, up := f.Observe(true, true); sw || !up || f.Active() != 7 {
		t.Fatalf("failback must not happen: switched=%v active=%d", sw, f.Active())
	}
	// Standby (now active) dies, master alive: takeover back.
	if sw, up := f.Observe(true, false); !sw || !up || f.Active() != 0 {
		t.Fatalf("reverse takeover: switched=%v active=%d", sw, f.Active())
	}
	// Both dead: no SM can serve; mastership does not move.
	if sw, up := f.Observe(false, false); sw || up || f.Active() != 0 {
		t.Fatalf("both dead: switched=%v anyUp=%v active=%d", sw, up, f.Active())
	}
}
