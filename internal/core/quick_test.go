package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mlid/internal/ib"
	"mlid/internal/topology"
)

// randomTree maps two raw bytes to a valid small FT(m, n), so the property
// tests below roam over the family rather than a fixed list.
func randomTree(rawM, rawN uint8) *topology.Tree {
	ms := []int{4, 8, 16, 32}
	m := ms[int(rawM)%len(ms)]
	// Keep node counts small enough for per-iteration tracing.
	maxN := map[int]int{4: 4, 8: 3, 16: 2, 32: 2}[m]
	n := 1 + int(rawN)%maxN
	return topology.MustNew(m, n)
}

// TestQuickRandomTreesDeliver: on random family members, both schemes
// deliver random pairs over shortest paths.
func TestQuickRandomTreesDeliver(t *testing.T) {
	f := func(rawM, rawN uint8, rawA, rawB uint32) bool {
		tr := randomTree(rawM, rawN)
		a := topology.NodeID(rawA % uint32(tr.Nodes()))
		b := topology.NodeID(rawB % uint32(tr.Nodes()))
		if a == b {
			return true
		}
		for _, s := range Schemes() {
			p, err := Trace(tr, s, a, b)
			if err != nil || p.Dst != b {
				return false
			}
			if p.Len() != tr.Distance(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Error(err)
	}
}

// TestQuickRandomTreesLIDPartition: on random family members the MLID
// addressing partitions the LID space with no gaps between nodes.
func TestQuickRandomTreesLIDPartition(t *testing.T) {
	f := func(rawM, rawN uint8) bool {
		tr := randomTree(rawM, rawN)
		s := NewMLID()
		if int(s.LMC(tr)) > ib.MaxLMC {
			return true // architecturally unconfigurable; SM rejects it
		}
		prevEnd := ib.LID(1)
		for p := 0; p < tr.Nodes(); p++ {
			base := s.BaseLID(tr, topology.NodeID(p))
			if base != prevEnd {
				return false
			}
			prevEnd = base + ib.LID(s.PathsPerPair(tr))
		}
		return int(prevEnd) == s.LIDSpace(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Error(err)
	}
}

// TestQuickGroupSelectionBijective: within any gcpg, the path-selection
// offsets chosen by distinct sources toward one destination are distinct —
// the property that makes the group's ascending links disjoint.
func TestQuickGroupSelectionBijective(t *testing.T) {
	f := func(rawM, rawN uint8, rawDst uint32) bool {
		tr := randomTree(rawM, rawN)
		if tr.N() < 2 {
			return true
		}
		s := NewMLID()
		dst := topology.NodeID(rawDst % uint32(tr.Nodes()))
		// Group: all sources maximally distant from dst sharing digit 0.
		seen := map[ib.LID]bool{}
		wantDigit := -1
		for src := 0; src < tr.Nodes(); src++ {
			sid := topology.NodeID(src)
			if tr.GCPLen(sid, dst) != 0 {
				continue
			}
			d0 := tr.NodeDigit(sid, 0)
			if wantDigit == -1 {
				wantDigit = d0
			}
			if d0 != wantDigit {
				continue
			}
			dlid := s.DLID(tr, sid, dst)
			if seen[dlid] {
				return false
			}
			seen[dlid] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Error(err)
	}
}

// refSelectDLID is fault-avoiding selection as it was specified before
// selection stopped building paths: trace each candidate in SelectLID's
// order and reject it when the trace fails, misdelivers or Blocked says it
// crosses a failed link.
func refSelectDLID(t *topology.Tree, s Scheme, src, dst topology.NodeID, faults *FaultSet) (ib.LID, bool) {
	ok := func(lid ib.LID) bool {
		p, err := TraceLID(t, s, src, lid)
		return err == nil && p.Dst == dst && !blocked(faults, p)
	}
	canonical := s.DLID(t, src, dst)
	if ok(canonical) {
		return canonical, true
	}
	base := s.BaseLID(t, dst)
	count := 1 << s.LMC(t)
	start := int(canonical) - int(base)
	if start < 0 || start >= count {
		start = 0
	}
	for i := 1; i < count; i++ {
		if lid := base + ib.LID((start+i)%count); ok(lid) {
			return lid, true
		}
	}
	return 0, false
}

// refUsableMask is UsableOffsets' mask by the same per-candidate trace.
func refUsableMask(t *topology.Tree, s Scheme, src, dst topology.NodeID, faults *FaultSet) uint64 {
	base := s.BaseLID(t, dst)
	count := min(1<<s.LMC(t), 64)
	var mask uint64
	for off := 0; off < count; off++ {
		p, err := TraceLID(t, s, src, base+ib.LID(off))
		if err == nil && p.Dst == dst && !blocked(faults, p) {
			mask |= 1 << uint(off)
		}
	}
	return mask
}

// TestQuickSelectLIDMatchesTracing: under random fault sets, inter-switch
// and node links alike, the path-free SelectLID picks what tracing every
// candidate picks, SelectDLID's path is the chosen LID's trace, and
// UsableOffsets' mask is the traced one — from one random source to every
// destination, on FT(4,2), FT(4,3), FT(8,2) and FT(8,3), both schemes.
func TestQuickSelectLIDMatchesTracing(t *testing.T) {
	trees := []*topology.Tree{topology.MustNew(4, 2), topology.MustNew(4, 3), topology.MustNew(8, 2), topology.MustNew(8, 3)}
	f := func(rawTree, rawScheme uint8, rawLinks []uint16, rawNode, rawSrc uint16) bool {
		tr := trees[int(rawTree)%len(trees)]
		s := Schemes()[int(rawScheme)%2]
		faults := NewFaultSet()
		for _, l := range rawLinks[:min(len(rawLinks), 12)] {
			faults.FailLink(tr, topology.SwitchID(int(l)%tr.Switches()), int(l)/tr.Switches()%tr.M())
		}
		sw, port := tr.NodeAttachment(topology.NodeID(int(rawNode) % tr.Nodes()))
		faults.FailLink(tr, sw, port) // always at least one node link
		src := topology.NodeID(int(rawSrc) % tr.Nodes())
		for d := 0; d < tr.Nodes(); d++ {
			dst := topology.NodeID(d)
			lid, ok := SelectLID(tr, s, src, dst, faults)
			if wantLID, wantOK := refSelectDLID(tr, s, src, dst, faults); lid != wantLID || ok != wantOK {
				t.Logf("%v %s %d->%d: SelectLID (%d, %v), traced (%d, %v)", tr, s.Name(), src, dst, lid, ok, wantLID, wantOK)
				return false
			}
			dlid, p, dok := SelectDLID(tr, s, src, dst, faults)
			want := Path{}
			if ok {
				want, _ = TraceLID(tr, s, src, lid)
			}
			if dlid != lid || dok != ok || !reflect.DeepEqual(p, want) {
				t.Logf("%v %s %d->%d: SelectDLID (%d, %v, %v), want (%d, %v, %v)", tr, s.Name(), src, dst, dlid, dok, p, lid, ok, want)
				return false
			}
			if _, _, _, mask := UsableOffsets(tr, s, src, dst, faults); mask != refUsableMask(tr, s, src, dst, faults) {
				t.Logf("%v %s %d->%d: UsableOffsets mask %b, traced %b", tr, s.Name(), src, dst, mask, refUsableMask(tr, s, src, dst, faults))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(53))}); err != nil {
		t.Error(err)
	}
}
