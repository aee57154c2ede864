// Package ib models the InfiniBand Architecture (IBA) mechanisms the routing
// scheme and simulator depend on: 16-bit local identifiers (LIDs), the LID
// Mask Control (LMC) multipath mechanism, linear forwarding tables (LFTs),
// the local route header (LRH) fields of a packet, and a subnet abstraction
// assembled by a subnet manager (see package ib's SubnetManager).
//
// Conventions taken from the IBA specification and used throughout:
//
//   - LID 0 is reserved and never assigned to an endport.
//   - An endport with LMC value c responds to the 2^c LIDs
//     [BaseLID, BaseLID + 2^c - 1]; the LMC field is 3 bits, so at most
//     2^7 = 128 paths can be named per endport.
//   - Switch port 0 is the internal management port; external ports are
//     numbered from 1. The topology package's "abstract" port k is the
//     physical external port k+1.
//   - A switch forwards a packet by indexing its linear forwarding table with
//     the packet's DLID; the entry is the physical output port.
package ib

import (
	"errors"
	"fmt"
)

// LID is an InfiniBand local identifier. Valid unicast LIDs are 1..0xBFFF;
// this model only requires them to be non-zero and within 16 bits.
type LID uint16

// MaxLMC is the largest LMC value the 3-bit LMC field can carry; an endport
// can therefore own at most 1<<MaxLMC = 128 LIDs.
const MaxLMC = 7

// PortNone is the LFT entry marking an unreachable DLID, following the IBA
// convention of 255 for invalid forwarding entries.
const PortNone = 0xFF

var (
	// ErrLIDOutOfRange reports an LFT access beyond the table.
	ErrLIDOutOfRange = errors.New("ib: LID out of forwarding-table range")
	// ErrNoRoute reports a DLID with no forwarding entry on some switch.
	ErrNoRoute = errors.New("ib: no route for DLID")
	// ErrLIDSpaceExhausted reports a routing scheme whose LID plan does not
	// fit the 16-bit LID space (e.g. MLID on FT(16,3) needs 65,537 LIDs,
	// one past the limit). Configure returns it wrapped with the sizes, so
	// callers can branch with errors.Is instead of parsing the message.
	ErrLIDSpaceExhausted = errors.New("ib: LID space exhausted")
)

// LFT is a linear forwarding table: a dense map from DLID to physical output
// port. Entry PortNone marks an unrouted DLID. Index 0 (the reserved LID) is
// always PortNone.
type LFT struct {
	ports []uint8
}

// NewLFT returns a table covering DLIDs [0, size).
func NewLFT(size int) *LFT {
	t := &LFT{ports: make([]uint8, size)}
	if size > 0 {
		// Doubling copies fill the table at memmove speed.
		t.ports[0] = PortNone
		for n := 1; n < size; n *= 2 {
			copy(t.ports[n:], t.ports[:n])
		}
	}
	return t
}

// Size returns the number of entries (the exclusive upper bound on DLIDs).
func (t *LFT) Size() int { return len(t.ports) }

// Set records that packets destined to lid leave through the given physical
// port. Setting LID 0 or an out-of-range LID is rejected.
func (t *LFT) Set(lid LID, physPort uint8) error {
	if lid == 0 {
		return fmt.Errorf("%w: LID 0 is reserved", ErrLIDOutOfRange)
	}
	if int(lid) >= len(t.ports) {
		return fmt.Errorf("%w: %d >= %d", ErrLIDOutOfRange, lid, len(t.ports))
	}
	t.ports[lid] = physPort
	return nil
}

// Lookup returns the physical output port for a DLID. It returns ErrNoRoute
// for unrouted or reserved DLIDs and ErrLIDOutOfRange beyond the table.
func (t *LFT) Lookup(lid LID) (uint8, error) {
	if int(lid) >= len(t.ports) {
		return PortNone, fmt.Errorf("%w: %d >= %d", ErrLIDOutOfRange, lid, len(t.ports))
	}
	p := t.ports[lid]
	if p == PortNone || lid == 0 {
		return PortNone, fmt.Errorf("%w: %d", ErrNoRoute, lid)
	}
	return p, nil
}

// Port returns the raw entry for lid without error construction: PortNone
// for unrouted, out-of-range, or reserved LIDs. It exists for the
// simulator's forwarding-table compiler, which scans every (switch, DLID)
// pair and must not allocate per miss; interactive callers should prefer
// Lookup and its diagnostics.
func (t *LFT) Port(lid LID) uint8 {
	if lid == 0 || int(lid) >= len(t.ports) {
		return PortNone
	}
	return t.ports[lid]
}

// Clone returns an independent copy of the table. The live simulator clones
// the LFT of every switch a fault plan can dirty, so timed table updates
// never mutate the caller's subnet.
func (t *LFT) Clone() *LFT {
	c := &LFT{ports: make([]uint8, len(t.ports))}
	copy(c.ports, t.ports)
	return c
}

// Entries returns a copy of the raw table, for inspection and serialization.
func (t *LFT) Entries() []uint8 {
	out := make([]uint8, len(t.ports))
	copy(out, t.ports)
	return out
}

// LIDRange describes the LID block an endport owns under an LMC assignment.
type LIDRange struct {
	Base LID
	LMC  uint8
}

// Count returns the number of LIDs in the range (2^LMC).
func (r LIDRange) Count() int { return 1 << r.LMC }

// Contains reports whether lid falls inside the range.
func (r LIDRange) Contains(lid LID) bool {
	return lid >= r.Base && int(lid) < int(r.Base)+r.Count()
}

// Offset returns lid - Base; the caller must ensure Contains(lid).
func (r LIDRange) Offset(lid LID) int { return int(lid) - int(r.Base) }

// String implements fmt.Stringer.
func (r LIDRange) String() string {
	if r.LMC == 0 {
		return fmt.Sprintf("LID %d", r.Base)
	}
	return fmt.Sprintf("LIDs %d..%d (LMC %d)", r.Base, int(r.Base)+r.Count()-1, r.LMC)
}
