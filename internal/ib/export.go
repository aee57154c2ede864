package ib

import (
	"encoding/json"
	"fmt"

	"mlid/internal/topology"
)

// subnetJSON is the serialized form of a configured subnet: enough to
// reconstruct the fabric parameters, every endport's LID range and every
// switch's forwarding table. Forwarding tables serialize as byte slices
// (base64 in JSON).
type subnetJSON struct {
	M        int       `json:"m"`
	N        int       `json:"n"`
	Scheme   string    `json:"scheme"`
	LIDSpace int       `json:"lid_space"`
	Base     []LID     `json:"base_lids"`
	LMC      uint8     `json:"lmc"`
	LFTs     [][]uint8 `json:"lfts"`
}

// Export serializes the subnet for offline inspection, diffing, or
// re-import; see Import.
func (s *Subnet) Export() ([]byte, error) {
	out := subnetJSON{
		M:        s.Tree.M(),
		N:        s.Tree.N(),
		LIDSpace: s.LIDSpace(),
		Base:     make([]LID, len(s.Endports)),
		LFTs:     make([][]uint8, len(s.LFTs)),
	}
	if s.Engine != nil {
		out.Scheme = s.Engine.Name()
	}
	for i, r := range s.Endports {
		out.Base[i] = r.Base
		out.LMC = r.LMC
	}
	for i, lft := range s.LFTs {
		out.LFTs[i] = lft.Entries()
	}
	return json.MarshalIndent(out, "", " ")
}

// Import reconstructs a subnet from Export's output. The engine must match
// the stored scheme name (it provides path selection for the reconstructed
// subnet); the imported tables are validated before use.
func Import(data []byte, engine RoutingEngine) (*Subnet, error) {
	var in subnetJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("ib: import: %w", err)
	}
	if engine == nil || engine.Name() != in.Scheme {
		name := "<nil>"
		if engine != nil {
			name = engine.Name()
		}
		return nil, fmt.Errorf("ib: import: engine %s does not match stored scheme %q", name, in.Scheme)
	}
	t, err := topology.New(in.M, in.N)
	if err != nil {
		return nil, fmt.Errorf("ib: import: %w", err)
	}
	if len(in.Base) != t.Nodes() || len(in.LFTs) != t.Switches() {
		return nil, fmt.Errorf("ib: import: %d endports / %d tables for FT(%d,%d)",
			len(in.Base), len(in.LFTs), in.M, in.N)
	}
	sn := &Subnet{
		Tree:     t,
		Engine:   engine,
		Endports: make([]LIDRange, t.Nodes()),
		LFTs:     make([]*LFT, t.Switches()),
	}
	for i, base := range in.Base {
		sn.Endports[i] = LIDRange{Base: base, LMC: in.LMC}
	}
	for i, entries := range in.LFTs {
		if len(entries) != in.LIDSpace {
			return nil, fmt.Errorf("ib: import: switch %d table size %d != %d", i, len(entries), in.LIDSpace)
		}
		lft := NewLFT(in.LIDSpace)
		for lid := 1; lid < len(entries); lid++ {
			if entries[lid] == PortNone {
				continue
			}
			if err := lft.Set(LID(lid), entries[lid]); err != nil {
				return nil, fmt.Errorf("ib: import: switch %d: %w", i, err)
			}
		}
		sn.LFTs[i] = lft
	}
	err = sn.assemble(in.LIDSpace)
	if err == nil {
		err = sn.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("ib: import: %w", err)
	}
	return sn, nil
}
