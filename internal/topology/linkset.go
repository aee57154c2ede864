package topology

import (
	"math/bits"
	"slices"

	"mlid/internal/arena"
)

// LinkSet is a set of dead links of one tree: a dense bitset over global port
// ids, sw·m + port. A link is named by either of its switch-side endpoints;
// node attachment links are named by the leaf-switch endpoint. Failing a link
// registers both of its switch-side endpoints, so either end of a dead link
// answers Dead, and the switches with a registered endpoint are the switches
// whose tables the set can affect.
//
// The zero value is the empty set; it is sized from the tree at the first
// FailLink. Every method but FailLink, Mark, Copy and Reset reads a nil
// *LinkSet as empty.
type LinkSet struct {
	m     int // ports per switch; 0 until sized
	n     int // registered endpoints
	words []uint64
}

// FailLink marks the bidirectional link at (switch, abstract port) failed,
// registering both endpoints when the peer is a switch.
func (s *LinkSet) FailLink(t *Tree, sw SwitchID, port int) { s.Mark(t, sw, port, true) }

// Mark registers (dead) or unregisters (a revived link) both switch-side
// endpoints of the link at (switch, abstract port).
func (s *LinkSet) Mark(t *Tree, sw SwitchID, port int, dead bool) {
	if s.m == 0 {
		if !dead {
			return
		}
		s.m = t.M()
		s.words = arena.Recycle(s.words, (t.Switches()*s.m+63)/64)
	}
	s.flip(int(sw)*s.m+port, dead)
	if ref := t.SwitchNeighbor(sw, port); ref.Kind == KindSwitch {
		s.flip(int(ref.Switch)*s.m+ref.Port, dead)
	}
}

// flip sets or clears endpoint id, keeping the count.
func (s *LinkSet) flip(id int, dead bool) {
	if s.has(id) == dead {
		return
	}
	s.words[id>>6] ^= 1 << (uint(id) & 63)
	if dead {
		s.n++
	} else {
		s.n--
	}
}

// has reports whether endpoint id is registered.
func (s *LinkSet) has(id int) bool {
	return uint(id>>6) < uint(len(s.words)) && s.words[id>>6]&(1<<(uint(id)&63)) != 0
}

// Len returns the number of registered failed endpoints.
func (s *LinkSet) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Dead reports whether the endpoint at (switch, abstract port) is registered
// as failed.
func (s *LinkSet) Dead(sw SwitchID, port int) bool {
	return s != nil && s.has(int(sw)*s.m+port)
}

// Equal reports whether s and o register the same endpoints.
func (s *LinkSet) Equal(o *LinkSet) bool {
	return s.Len() == o.Len() && (s.Len() == 0 || slices.Equal(s.words, o.words))
}

// Copy makes s a copy of o in place, reusing s's storage.
func (s *LinkSet) Copy(o *LinkSet) {
	s.m, s.n, s.words = o.m, o.n, append(s.words[:0], o.words...)
}

// Reset empties and unsizes s, keeping its storage for the next FailLink,
// which may be on another tree.
func (s *LinkSet) Reset() {
	s.m, s.n, s.words = 0, 0, s.words[:0]
}

// DiffSwitches appends to dst, ascending and once each, the switches with an
// endpoint registered in exactly one of s and o: a word-wise XOR whose set
// bits, divided by m, are already in order. It appends nothing when the sets
// are equal.
func (s *LinkSet) DiffSwitches(dst []SwitchID, o *LinkSet) []SwitchID {
	if s.Len() == 0 {
		s, o = o, s
	}
	if s.Len() == 0 {
		return dst
	}
	start := len(dst)
	for i, w := range s.words {
		if o.Len() > 0 {
			w ^= o.words[i]
		}
		for ; w != 0; w &= w - 1 {
			sw := SwitchID((i<<6 + bits.TrailingZeros64(w)) / s.m)
			if len(dst) == start || dst[len(dst)-1] != sw {
				dst = append(dst, sw)
			}
		}
	}
	return dst
}

// AppendPorts appends every registered endpoint to dst as a (switch,
// abstract port) pair, ascending by global port id: both ends of a dead
// inter-switch link.
func (s *LinkSet) AppendPorts(dst [][2]int32) [][2]int32 {
	if s.Len() == 0 {
		return dst
	}
	for i, w := range s.words {
		for ; w != 0; w &= w - 1 {
			id := i<<6 + bits.TrailingZeros64(w)
			dst = append(dst, [2]int32{int32(id / s.m), int32(id % s.m)})
		}
	}
	return dst
}
