package sim

import (
	"fmt"

	"mlid/internal/ib"
	"mlid/internal/verify"
)

// verifyEpoch runs the static verifier (package verify) over the live
// forwarding tables, called at the end of every subnet-manager epoch — each
// SM reaction (smReact) and each applied staged table update — when
// Config.VerifyEpochs is set. The contract it enforces is the verify
// package's severity rule: mid-repair tables may contain dead-link-explained
// defects (warnings — those packets drop observably), but never a forwarding
// loop, a credit-cycle, a dead end, or a misdelivery the recorded faults do
// not explain. Any error-severity finding fails the run, with the finding as
// the error text.
//
// The pass also cross-checks the compiled forwarding rows against the live
// tables entry by entry, so a recompile bug in applyLFTUpdate (the hot path
// reads only the compiled form) cannot hide behind a clean table.
//
// Everything here is cold path: it runs a handful of times per run, never
// per packet. The verifier walks each (leaf, assigned LID) route once for
// both reachability and the per-lane dependency graphs, and a route that
// hits no defect allocates nothing.
func (s *Sim) verifyEpoch() {
	if s.err != nil {
		return
	}
	in := verify.Input{
		Tree:      s.tree,
		Endports:  s.cfg.Subnet.Endports,
		LFTs:      s.lfts,
		Engine:    s.cfg.Subnet.Engine,
		DeadLinks: s.faults.deadLinks,
	}
	opt := verify.Options{VLs: s.cfg.DataVLs, SkipQuality: true}
	if s.cfg.VLSelect == VLByDLID {
		opt.VLOf = func(dlid ib.LID, vls int) int { return int(dlid) % vls }
	}
	rep, err := verify.Run(in, opt)
	if err != nil {
		s.fail(fmt.Errorf("sim: epoch verification at %d ns: %w", s.now, err))
		return
	}
	s.res.VerifiedEpochs++
	s.res.VerifyWarnings += rep.Warnings()
	if n := rep.Errors(); n > 0 {
		for _, f := range rep.Findings {
			if f.Severity == verify.Error {
				s.fail(fmt.Errorf("sim: epoch verification at %d ns found %d error(s); first: %s",
					s.now, n, f.String()))
				return
			}
		}
	}
	s.verifyCompiledRows()
}

// verifyCompiledRows proves the compiled forwarding rows agree with the live
// tables: for every (switch, DLID) the fused row must hold exactly
// compileEntry(switch, LFT entry). This is the static twin of the
// applyLFTUpdate recompile path — the hot path never consults the LFTs, so
// only this check ties what packets experience back to what the SM wrote.
func (s *Sim) verifyCompiledRows() {
	for sw := range s.lfts {
		base := sw * s.lftSize
		lft := s.lfts[sw]
		for lid := 0; lid < s.lftSize; lid++ {
			want := s.compileEntry(int32(sw), lft.Port(ib.LID(lid)))
			if got := s.fwdAt(base + lid); got != want {
				s.fail(fmt.Errorf("sim: epoch verification at %d ns: compiled row of switch %d stale at DLID %d: holds port id %d, table compiles to %d",
					s.now, sw, lid, got, want))
				return
			}
		}
	}
}
