package verify

import (
	"mlid/internal/arena"
	"mlid/internal/ib"
	"mlid/internal/topology"
)

// lidSpaceLimit is the exclusive upper bound of the 16-bit LID space.
const lidSpaceLimit = 1 << 16

// AddressingScheme checks a routing engine's LID plan against a fabric
// before any table exists: the LMC must fit the 3-bit field and the LID
// space must fit 16 bits. It is the check cmd/ibverify runs up front, so a
// scheme that cannot be configured at all (MLID on FT(16,3) needs 65,537
// LIDs, one past the space) surfaces as a finding instead of a fatal
// configuration error. The report carries those findings alone.
func AddressingScheme(t *topology.Tree, eng ib.RoutingEngine) *Report {
	return &Report{t: t, eng: eng, recs: schemeRecords(t, eng)}
}

// schemeRecords returns the scheme-level addressing findings.
func schemeRecords(t *topology.Tree, eng ib.RoutingEngine) []record {
	var out []record
	if lmc := eng.LMC(t); lmc > ib.MaxLMC {
		out = append(out, record{kind: kindLMC, n: int(lmc)})
	}
	if space := eng.LIDSpace(t); space > lidSpaceLimit {
		out = append(out, record{kind: kindLIDSpace, n: space})
	}
	return out
}

// checkAddressing validates the LID assignment — and, as a side effect,
// builds f.owner, the LID-to-node index every later analyzer walks routes
// with. A duplicated LID keeps its first owner so the walk stays defined.
func (f *fabric) checkAddressing(rep *Report) {
	if f.in.Engine != nil {
		for _, r := range schemeRecords(f.t, f.in.Engine) {
			f.add(rep, r, nil)
		}
	}
	f.owner = arena.Recycle(f.owner, f.space)
	for i := range f.owner {
		f.owner[i] = -1
	}
	for p, r := range f.in.Endports {
		node := topology.NodeID(p)
		if r.Base == 0 {
			f.add(rep, record{kind: kindBaseZero, node: node}, nil)
			continue
		}
		for off := 0; off < r.Count(); off++ {
			lid := int(r.Base) + off
			if lid >= f.space {
				f.add(rep, record{kind: kindBeyondTable, node: node, lid: int32(lid), n: f.space, ranges: [2]ib.LIDRange{r}}, nil)
				break
			}
			if prev := f.owner[lid]; prev >= 0 {
				f.add(rep, record{kind: kindOverlap, node: node, other: topology.NodeID(prev), lid: int32(lid),
					ranges: [2]ib.LIDRange{r, f.in.Endports[prev]}}, nil)
				continue
			}
			f.owner[lid] = int32(p)
		}
	}
	// Orphaned entries: a switch routes a LID no endport owns. Harmless to
	// live traffic (no source addresses it) but a sign of table drift, so a
	// warning, aggregated per LID.
	for lid := 1; lid < f.space; lid++ {
		if f.owner[lid] >= 0 {
			continue
		}
		if first, routed := f.routedOn(lid); routed > 0 {
			f.add(rep, record{kind: kindOrphan, sw: first, lid: int32(lid), n: routed}, nil)
		}
	}
}

// routedOn returns how many switches hold a forwarding entry for lid, and
// the first of them.
func (f *fabric) routedOn(lid int) (first topology.SwitchID, routed int) {
	for sw, lft := range f.in.LFTs {
		if lft.Port(ib.LID(lid)) != ib.PortNone {
			if routed == 0 {
				first = topology.SwitchID(sw)
			}
			routed++
		}
	}
	return first, routed
}
