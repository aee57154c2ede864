package topology

import "fmt"

// GCPLen returns the length alpha of the greatest common prefix of the labels
// of the two nodes (Definition 1 of the paper). alpha == n means a == b.
func (t *Tree) GCPLen(a, b NodeID) int {
	for i := 0; i < t.n; i++ {
		if t.NodeDigit(a, i) != t.NodeDigit(b, i) {
			return i
		}
	}
	return t.n
}

// GCP returns the greatest common prefix digits of the two node labels.
func (t *Tree) GCP(a, b NodeID) []int {
	alpha := t.GCPLen(a, b)
	d := t.NodeDigits(a)
	return d[:alpha]
}

// LCAs returns the set of least common ancestors of two distinct nodes
// (Definition 2): all level-alpha switches whose leading alpha digits equal
// the nodes' greatest common prefix. There are (m/2)^(n-1-alpha) of them.
func (t *Tree) LCAs(a, b NodeID) []SwitchID {
	alpha := t.GCPLen(a, b)
	if alpha == t.n {
		// Identical nodes: the paper leaves this undefined; by convention the
		// single attachment leaf switch is the only "ancestor" of interest.
		sw, _ := t.NodeAttachment(a)
		return []SwitchID{sw}
	}
	prefix := t.NodeDigits(a)[:alpha]
	return t.SwitchesWithPrefix(prefix, alpha)
}

// SwitchesWithPrefix returns all switches of the given level whose leading
// len(prefix) label digits equal prefix. level must be >= len(prefix) for the
// result to be non-empty under the paper's ancestor relation, but any level
// is accepted.
func (t *Tree) SwitchesWithPrefix(prefix []int, level int) []SwitchID {
	free := t.n - 1 - len(prefix)
	if free < 0 {
		free = 0
	}
	count := int(t.pow(t.h, free))
	out := make([]SwitchID, 0, count)
	d := make([]int, t.n-1)
	copy(d, prefix)
	var rec func(i int)
	rec = func(i int) {
		if i == t.n-1 {
			id, err := t.SwitchFromDigits(d, level)
			if err == nil {
				out = append(out, id)
			}
			return
		}
		limit := t.h
		if i == 0 && level >= 1 {
			limit = t.m
		}
		if i < len(prefix) {
			rec(i + 1)
			return
		}
		for v := 0; v < limit; v++ {
			d[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

func (t *Tree) pow(base, exp int) int64 {
	v := int64(1)
	for i := 0; i < exp; i++ {
		v *= int64(base)
	}
	return v
}

// GCPGSize returns the number of processing nodes in a greatest-common-prefix
// group gcpg(x, alpha) (Definition 3): 2*(m/2)^n for alpha == 0 and
// (m/2)^(n-alpha) otherwise.
func (t *Tree) GCPGSize(alpha int) int {
	if alpha == 0 {
		return t.nodes
	}
	return int(t.hPow[t.n-alpha])
}

// GCPG enumerates the members of gcpg(prefix, len(prefix)) in rank order.
func (t *Tree) GCPG(prefix []int) ([]NodeID, error) {
	alpha := len(prefix)
	if alpha > t.n {
		return nil, fmt.Errorf("topology: prefix longer than node label: %d > %d", alpha, t.n)
	}
	d := make([]int, t.n)
	copy(d, prefix)
	out := make([]NodeID, 0, t.GCPGSize(alpha))
	var rec func(i int)
	var err error
	rec = func(i int) {
		if err != nil {
			return
		}
		if i == t.n {
			id, e := t.NodeFromDigits(d)
			if e != nil {
				err = e
				return
			}
			out = append(out, id)
			return
		}
		if i < alpha {
			rec(i + 1)
			return
		}
		limit := t.h
		if i == 0 {
			limit = t.m
		}
		for v := 0; v < limit; v++ {
			d[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Rank returns the rank of the node within gcpg(x, alpha), where x is the
// node's own leading alpha digits (Definition 4):
//
//	rank = sum_{i >= alpha} p_i * (m/2)^(n-1-i)
//
// Rank(id, 0) equals the node's PID, which equals the NodeID itself.
func (t *Tree) Rank(id NodeID, alpha int) int64 {
	if alpha == 0 {
		return int64(id)
	}
	// The trailing n-alpha digits, all in [0, h), are the low bits.
	return int64(id) & (1<<((t.n-alpha)*t.logH) - 1)
}

// PID returns the processing-node identifier of the node: its rank in
// gcpg(epsilon, 0). NodeIDs are defined to equal PIDs, so this is the
// identity; it exists to mirror the paper's vocabulary.
func (t *Tree) PID(id NodeID) int64 { return int64(id) }

// PathCount returns the number of distinct shortest paths between two
// distinct nodes: (m/2)^(n-1-alpha), one per least common ancestor.
func (t *Tree) PathCount(a, b NodeID) int64 {
	alpha := t.GCPLen(a, b)
	if alpha >= t.n {
		return 0
	}
	return t.hPow[t.n-1-alpha]
}
