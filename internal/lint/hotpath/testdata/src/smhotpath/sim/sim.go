// Package sim is an smhotpath testdata fixture: its leaf name matches the
// simulator package, so the per-event SM handlers named in smHandlers must
// not clone, export, or scan whole forwarding tables.
package sim

type lft struct {
	entries []uint8
}

func (l *lft) Clone() *lft {
	out := &lft{entries: make([]uint8, len(l.entries))}
	copy(out.entries, l.entries)
	return out
}

func (l *lft) Entries() []uint8 { return l.entries }
func (l *lft) Size() int        { return len(l.entries) }

type delta struct {
	lid  int
	port uint8
}

type faultRun struct {
	lfts    []*lft
	staged  []delta
	lftSize int
}

type Sim struct {
	faults  *faultRun
	lftSize int
}

// smRepair is a handler: every construct below is a violation.
func (s *Sim) smRepair(deadView [][2]int32) {
	fr := s.faults
	for _, l := range fr.lfts { // want `per-switch table sweep in SM handler smRepair`
		shadow := l.Clone() // want `full-table Clone in SM handler smRepair`
		_ = shadow
	}
	for lid := 0; lid < s.lftSize; lid++ { // want `LID-space scan in SM handler smRepair`
		_ = lid
	}
	_ = deadView
}

// smReact is a handler: a full diff via Entries and a Size-bounded scan are
// both flagged.
func (s *Sim) smReact(idx int) {
	l := s.faults.lfts[idx]
	raw := l.Entries() // want `full-table Entries export in SM handler smReact`
	for lid := 0; lid < l.Size(); lid++ { // want `LID-space scan in SM handler smReact`
		_ = raw[lid]
	}
}

// applyLFTUpdate is a handler, but delta iteration, index arithmetic with
// lftSize, and dead-link loops are exactly what it should do: no findings.
func (s *Sim) applyLFTUpdate(idx int) {
	fwdBase := idx * s.lftSize
	for _, d := range s.faults.staged {
		_ = fwdBase + d.lid
	}
}

// rebuildTables is cold (not in smHandlers): identical constructs are fine.
func (s *Sim) rebuildTables() {
	for _, l := range s.faults.lfts {
		cp := l.Clone()
		for lid := 0; lid < cp.Size(); lid++ {
			_ = cp.Entries()[lid]
		}
	}
}
