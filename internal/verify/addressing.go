package verify

import (
	"fmt"

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
// configuration error.
func AddressingScheme(t *topology.Tree, eng ib.RoutingEngine) []Finding {
	var out []Finding
	lmc := eng.LMC(t)
	if lmc > ib.MaxLMC {
		out = append(out, Finding{
			Analyzer: "addressing",
			Severity: Error,
			Location: t.String(),
			Message: fmt.Sprintf("scheme %s requires LMC %d > architectural maximum %d",
				eng.Name(), lmc, ib.MaxLMC),
			Witness: []string{fmt.Sprintf("LMC field is 3 bits, max %d", ib.MaxLMC)},
		}.valid())
	}
	if space := eng.LIDSpace(t); space > lidSpaceLimit {
		out = append(out, Finding{
			Analyzer: "addressing",
			Severity: Error,
			Location: t.String(),
			Message: fmt.Sprintf("LID-space exhaustion: scheme %s needs %d LIDs, %d past the 16-bit space",
				eng.Name(), space, space-lidSpaceLimit),
			Witness: []string{
				fmt.Sprintf("LIDSpace=%d", space),
				fmt.Sprintf("16-bit limit=%d", lidSpaceLimit),
			},
		}.valid())
	}
	return out
}

// checkAddressing validates the LID assignment — and, as a side effect,
// builds f.owner, the LID-to-node index every later analyzer walks routes
// with. A duplicated LID keeps its first owner so the walk stays defined.
func (f *fabric) checkAddressing(rep *Report) {
	if f.in.Engine != nil {
		for _, fd := range AddressingScheme(f.t, f.in.Engine) {
			f.add(rep, fd)
		}
	}
	f.owner = arena.Recycle(f.owner, f.space)
	for i := range f.owner {
		f.owner[i] = -1
	}
	for p, r := range f.in.Endports {
		// Labels are built only for findings: a clean plan formats nothing.
		node := func() string { return f.t.NodeLabel(topology.NodeID(p)) }
		if r.Base == 0 {
			f.add(rep, Finding{
				Analyzer: "addressing",
				Severity: Error,
				Location: node(),
				Message:  "assigned the reserved base LID 0",
			})
			continue
		}
		for off := 0; off < r.Count(); off++ {
			lid := int(r.Base) + off
			if lid >= f.space {
				f.add(rep, Finding{
					Analyzer: "addressing",
					Severity: Error,
					Location: node(),
					Message: fmt.Sprintf("LID %d beyond the forwarding-table size %d (LMC block overflows the table)",
						lid, f.space),
					Witness: []string{r.String()},
				})
				break
			}
			if prev := f.owner[lid]; prev >= 0 {
				f.add(rep, Finding{
					Analyzer: "addressing",
					Severity: Error,
					Location: node(),
					Message:  fmt.Sprintf("LID %d already owned by %s (LMC blocks overlap)", lid, f.t.NodeLabel(topology.NodeID(prev))),
					Witness: []string{
						fmt.Sprintf("%s owns %s", f.t.NodeLabel(topology.NodeID(prev)), f.in.Endports[prev].String()),
						fmt.Sprintf("%s owns %s", node(), r.String()),
					},
				})
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
		routed := 0
		var first topology.SwitchID
		for sw, lft := range f.in.LFTs {
			if lft.Port(ib.LID(lid)) != ib.PortNone {
				if routed == 0 {
					first = topology.SwitchID(sw)
				}
				routed++
			}
		}
		if routed > 0 {
			f.add(rep, Finding{
				Analyzer: "addressing",
				Severity: Warning,
				Location: f.t.SwitchLabel(first),
				Message:  fmt.Sprintf("orphaned LID %d routed on %d switches but owned by no endport", lid, routed),
			})
		}
	}
}
