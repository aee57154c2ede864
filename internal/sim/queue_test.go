package sim

import (
	"testing"
	"unsafe"
)

// listIdx walks q from head to tail and returns each packet's idx, checking
// that the tail pointer names the last packet reached.
func listIdx(t *testing.T, q *pktList) []int32 {
	t.Helper()
	var out []int32
	var last *pkt
	for p := q.head; p != nil; p = p.next {
		out = append(out, p.idx)
		last = p
	}
	if q.tail != last {
		t.Fatalf("tail is packet %v, walk ends at %v", q.tail, last)
	}
	if q.empty() != (len(out) == 0) {
		t.Fatalf("empty() = %v with %d packets linked", q.empty(), len(out))
	}
	return out
}

func wantIdx(t *testing.T, step string, got []int32, want ...int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: list %v, want %v", step, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: list %v, want %v", step, got, want)
		}
	}
}

// TestPktList drives the intrusive FIFO through every link case: push and
// pop, unlinking the head, a middle entry and the tail, and pushing after a
// tail unlink (the tail pointer must have stepped back to the predecessor).
func TestPktList(t *testing.T) {
	var ps [6]pkt
	for i := range ps {
		ps[i].idx = int32(i)
	}
	var q pktList
	wantIdx(t, "new list", listIdx(t, &q))
	for i := 0; i < 5; i++ {
		q.push(&ps[i])
	}
	wantIdx(t, "push 0..4", listIdx(t, &q), 0, 1, 2, 3, 4)

	if p := q.popFront(); p != &ps[0] || p.next != nil {
		t.Fatalf("popFront = packet %d (next %v), want packet 0 unlinked", p.idx, p.next)
	}
	wantIdx(t, "popFront", listIdx(t, &q), 1, 2, 3, 4)

	q.unlink(nil, &ps[1])
	wantIdx(t, "unlink head", listIdx(t, &q), 2, 3, 4)

	q.unlink(&ps[2], &ps[3])
	wantIdx(t, "unlink middle", listIdx(t, &q), 2, 4)

	q.unlink(&ps[2], &ps[4])
	wantIdx(t, "unlink tail", listIdx(t, &q), 2)

	q.push(&ps[5])
	wantIdx(t, "push after tail unlink", listIdx(t, &q), 2, 5)

	q.popFront()
	q.popFront()
	wantIdx(t, "drained", listIdx(t, &q))
	q.push(&ps[0])
	wantIdx(t, "push onto drained list", listIdx(t, &q), 0)
}

// TestReleaseSlotRoundRobin fills one output buffer, queues seven packets
// from four input ports on its waiting list, and releases the slot seven
// times: the crossbar arbiter must admit, packet by packet, the oldest
// waiting packet of the first input port at or after the round-robin
// pointer (wrapping), advancing the pointer past each winner.
func TestReleaseSlotRoundRobin(t *testing.T) {
	s := build(runSmallConfig(t).withDefaults())
	defer s.release()
	const pid, vl = 0, 0
	i := pid*s.vls + vl
	// A full buffer sends every request to the waiting list; no credits keep
	// admitted packets in the output queue, in admission order.
	s.cv[i].occupancy = int32(s.cfg.BufPackets)
	s.cv[i].credits = 0
	inPorts := []int32{2, 0, 2, 1, 0, 3, 1}
	var ps []*pkt
	for _, in := range inPorts {
		p := s.newPkt()
		p.inPort, p.VL = in, vl
		s.requestTransfer(pid, p)
		ps = append(ps, p)
	}
	if got := len(listIdx(t, &s.waiting[i])); got != len(inPorts) {
		t.Fatalf("%d packets waiting, want %d", got, len(inPorts))
	}
	// Pointer 0 → p1 (port 0); 1 → p3 (port 1); 2 → p0 (port 2, older than
	// p2); 3 → p5 (port 3); 4 wraps → p4 (port 0); 1 → p6 (port 1); 2 → p2.
	want := []int{1, 3, 0, 5, 4, 6, 2}
	for k, w := range want {
		s.releaseSlot(pid, vl)
		if s.err != nil {
			t.Fatal(s.err)
		}
		if got := s.queues[i].tail; got != ps[w] {
			t.Fatalf("release %d admitted the packet from port %d, want p%d (port %d)",
				k, got.inPort, w, inPorts[w])
		}
		if got := len(listIdx(t, &s.waiting[i])); got != len(want)-k-1 {
			t.Fatalf("after release %d: %d packets waiting, want %d", k, got, len(want)-k-1)
		}
	}
	if got := len(listIdx(t, &s.queues[i])); got != len(want) {
		t.Fatalf("%d packets in the output queue, want %d", got, len(want))
	}
}

// TestPktSize pins the packet's footprint: packets are the simulator's
// dominant memory (an open-loop backlog is nothing but packets), and the
// queue link must fit in the padding the field order leaves.
func TestPktSize(t *testing.T) {
	if got := unsafe.Sizeof(pkt{}); got > 88 {
		t.Errorf("pkt is %d bytes, want <= 88", got)
	}
}
