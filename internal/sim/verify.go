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
// The check is incremental (verify.Epochs, kept in the run's arena): the
// run's first verified epoch walks every (leaf, assigned LID) route, and
// each later one re-walks only the LIDs touched since — those applyLFTUpdate
// rewrote, and those a table at either end of a link that went down or up
// forwards over it — so an epoch that changed nothing walks nothing. It
// yields counts only and formats no finding. When it reports the fabric
// unclean, one full verify.Run over the same input supplies the counts and
// the first error's text.
//
// The pass also cross-checks the compiled forwarding rows against the live
// tables entry by entry, so a recompile bug in applyLFTUpdate (the hot path
// reads only the compiled form) cannot hide behind a clean table.
func (s *Sim) verifyEpoch() {
	if s.err != nil {
		return
	}
	s.epochDead = s.faults.deadLinks.AppendPorts(s.epochDead[:0])
	in := verify.Input{
		Tree:      s.tree,
		Endports:  s.cfg.Subnet.Endports,
		LFTs:      s.lfts,
		Engine:    s.cfg.Subnet.Engine,
		DeadLinks: s.epochDead,
	}
	opt := verify.Options{VLs: s.cfg.DataVLs, SkipQuality: true}
	if s.cfg.VLSelect == VLByDLID {
		opt.VLOf = func(dlid ib.LID, vls int) int { return int(dlid) % vls }
	}
	if s.epochs == nil {
		s.epochs = &verify.Epochs{}
	}
	warnings, clean, err := s.epochs.Check(in, opt)
	if err != nil {
		s.fail(fmt.Errorf("sim: epoch verification at %d ns: %w", s.now, err))
		return
	}
	if s.verifyHook != nil {
		s.verifyHook(in, opt, warnings, clean)
	}
	var rep *verify.Report
	if !clean {
		if rep, err = verify.Run(in, opt); err != nil {
			s.fail(fmt.Errorf("sim: epoch verification at %d ns: %w", s.now, err))
			return
		}
		warnings = rep.Warnings()
	}
	s.res.VerifiedEpochs++
	s.res.VerifyWarnings += warnings
	if rep != nil {
		if f, ok := rep.FirstError(); ok {
			s.fail(fmt.Errorf("sim: epoch verification at %d ns found %d error(s); first: %s",
				s.now, rep.Errors(), f.String()))
			return
		}
	}
	s.verifyCompiledRows()
}

// verifyCompiledRows proves the compiled forwarding rows agree with the live
// tables: for every (switch, DLID) the fused row must hold exactly
// compileEntry(switch, LFT entry). This is the static twin of the
// applyLFTUpdate recompile path — the hot path never consults the LFTs, so
// only this check ties what packets experience back to what the SM wrote.
// Each row is compared against its table in one pass over the row's
// element type.
func (s *Sim) verifyCompiledRows() {
	for sw := range s.lfts {
		base := sw * s.lftSize
		var lid int
		if s.fwd16 != nil {
			lid = staleEntry(s, int32(sw), s.fwd16[base:base+s.lftSize])
		} else {
			lid = staleEntry(s, int32(sw), s.fwd32[base:base+s.lftSize])
		}
		if lid >= 0 {
			s.fail(fmt.Errorf("sim: epoch verification at %d ns: compiled row of switch %d stale at DLID %d: holds port id %d, table compiles to %d",
				s.now, sw, lid, s.fwdAt(base+lid), s.compileEntry(int32(sw), s.lfts[sw].Port(ib.LID(lid)))))
			return
		}
	}
}

// staleEntry returns the first DLID at which switch sw's compiled row
// differs from its live table, or -1. compileEntry depends on the entry's
// port byte alone, so it is tabulated once per switch for all 256 values.
func staleEntry[T int16 | int32](s *Sim, sw int32, row []T) int {
	var pid [256]T
	for phys := range pid {
		pid[phys] = T(s.compileEntry(sw, uint8(phys)))
	}
	lft := s.lfts[sw]
	for lid, got := range row {
		if got != pid[lft.Port(ib.LID(lid))] {
			return lid
		}
	}
	return -1
}
