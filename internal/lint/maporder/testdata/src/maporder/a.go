// Package maporder is the maporder testdata fixture: ordered effects inside
// range-over-map loops must be flagged; sorted-key idioms and
// order-independent bodies must not.
package maporder

import (
	"fmt"
	"sort"
	"strings"
)

type engine struct {
	events []int
}

func (e *engine) schedule(t int) { e.events = append(e.events, t) }

// badSchedule schedules events in map iteration order.
func badSchedule(e *engine, deadlines map[string]int) {
	for _, t := range deadlines {
		e.schedule(t) // want `call to e\.schedule inside range over map`
	}
}

// goodSchedule collects and sorts the keys first — the sanctioned idiom.
func goodSchedule(e *engine, deadlines map[string]int) {
	keys := make([]string, 0, len(deadlines))
	for k := range deadlines {
		keys = append(keys, k) // collect-then-sort: not flagged
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.schedule(deadlines[k])
	}
}

// badCollect appends values that are never sorted afterwards.
func badCollect(loads map[int]float64) []float64 {
	var out []float64
	for _, v := range loads {
		out = append(out, v) // want `append to out inside range over map without sorting`
	}
	return out
}

// badReport renders a table in map iteration order.
func badReport(loads map[string]float64) string {
	var b strings.Builder
	for k, v := range loads {
		fmt.Fprintf(&b, "%s=%v\n", k, v) // want `call to fmt\.Fprintf inside range over map`
	}
	return b.String()
}

// badStdout prints directly to the process stream.
func badStdout(loads map[string]float64) {
	for k := range loads {
		fmt.Println(k) // want `call to fmt\.Println inside range over map`
	}
}

// badFloatSum accumulates floats in map order (non-associative).
func badFloatSum(loads map[string]float64) float64 {
	var sum float64
	for _, v := range loads {
		sum += v // want `floating-point accumulation into sum inside range over map`
	}
	return sum
}

// badTieBreak lets map order pick among tied maxima.
func badTieBreak(loads map[string]float64) (string, float64) {
	var maxKey string
	var max float64
	for k, v := range loads {
		if v > max {
			max, maxKey = v, k // want `assignment to max inside range over map`
		}
	}
	return maxKey, max
}

// badSend forwards entries through a channel in map order.
func badSend(loads map[string]float64, out chan float64) {
	for _, v := range loads {
		out <- v // want `channel send inside range over map`
	}
}

// goodIndexedWrites stores into distinct keyed slots: order-independent.
func goodIndexedWrites(src map[int]float64, dst []float64, mirror map[int]float64) {
	for k, v := range src {
		dst[k] = v    // keyed slot: not flagged
		mirror[k] = v // map write: not flagged
	}
}

// goodIntSum accumulates integers: exact and commutative.
func goodIntSum(hist map[string]int) int {
	total := 0
	for _, n := range hist {
		total += n // integer accumulation: not flagged
	}
	return total
}

type subnetManager struct {
	txns    []int
	added   [][2]int32
	removed [][2]int32
}

func (m *subnetManager) diff(e [2]int32) { m.added = append(m.added, e) }
func (m *subnetManager) observe(up bool) {}
func (m *subnetManager) stage(sw int32)  { m.txns = append(m.txns, int(sw)) }
func (m *subnetManager) reset(idx int)   { m.txns[idx] = 0 }
func (m *subnetManager) redrive(idx int) {}

// badSweepDiff diffs the discovered dead-link set against the shadow view by
// ranging the sets themselves: the delta order — and every SMP transaction
// opened from it — follows map iteration order.
func badSweepDiff(m *subnetManager, known, discovered map[[2]int32]bool) {
	for e := range discovered {
		if !known[e] {
			m.diff(e) // want `call to m\.diff inside range over map`
		}
	}
}

// badSweepStage opens one SMP transaction per discovered delta in map order:
// transaction indices, and hence the retransmit schedule, become random.
func badSweepStage(m *subnetManager, deltas map[int32]bool) {
	for sw := range deltas {
		m.stage(sw) // want `call to m\.stage inside range over map`
	}
}

// badSweepObserve feeds liveness samples to the failover automaton in map
// order: the takeover fires on whichever sample the map yields first.
func badSweepObserve(m *subnetManager, attachUp map[int32]bool) {
	for _, up := range attachUp {
		m.observe(up) // want `call to m\.observe inside range over map`
	}
}

// badSweepRedrive re-opens parked transactions in map order instead of the
// ascending index order TxnManager.Parked returns.
func badSweepRedrive(m *subnetManager, parked map[int]bool) {
	for idx := range parked {
		m.reset(idx)   // want `call to m\.reset inside range over map`
		m.redrive(idx) // want `call to m\.redrive inside range over map`
	}
}

// goodSweepDiff is the sanctioned sweep-diff: membership maps are read-only
// lookups, and both outputs are built by ranging the event-ordered slices,
// never a map.
func goodSweepDiff(known, discovered [][2]int32) (added, removed [][2]int32) {
	inKnown := make(map[[2]int32]bool, len(known))
	for _, e := range known {
		inKnown[e] = true // map write: not flagged
	}
	inDisc := make(map[[2]int32]bool, len(discovered))
	for _, e := range discovered {
		inDisc[e] = true // map write: not flagged
	}
	for _, e := range discovered {
		if !inKnown[e] {
			added = append(added, e) // slice range: not a map loop
		}
	}
	for _, e := range known {
		if !inDisc[e] {
			removed = append(removed, e)
		}
	}
	return added, removed
}

// goodLocalBuilder builds a per-entry string stored by key.
func goodLocalBuilder(src map[int]string, dst map[int]string) {
	for k, v := range src {
		var b strings.Builder
		b.WriteString(v) // loop-local sink: not flagged
		dst[k] = b.String()
	}
}
