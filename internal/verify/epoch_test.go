package verify_test

import (
	"math/rand"
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/verify"
)

// TestEpochsMatchRun drives verify.Epochs through random epochs on small
// MLID and SLID fabrics — links going down and up, entries rewritten to
// other ports, to no port, to invalid ports and for orphaned LIDs — and
// after each epoch holds its counts against a full Run of the same input:
// a clean epoch carries Run's exact warning count and Run finds no error,
// and an unclean one is one where Run finds an error or suppresses a
// finding. A small finding cap makes the cap part of the comparison.
func TestEpochsMatchRun(t *testing.T) {
	clean, unclean := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := [][2]int{{4, 2}, {4, 3}, {8, 2}}[seed%3]
		var eng ib.RoutingEngine = core.NewMLID()
		if seed%2 == 0 {
			eng = core.NewSLID()
		}
		sn := configured(t, shape[0], shape[1], eng)
		tr := sn.Tree
		in := verify.FromSubnet(sn)
		in.LFTs = make([]*ib.LFT, len(sn.LFTs))
		for i, lft := range sn.LFTs {
			in.LFTs[i] = lft.Clone()
		}
		opt := verify.Options{VLs: 1 + rng.Intn(3), SkipQuality: true, MaxFindings: []int{0, 5, -1}[rng.Intn(3)]}
		if rng.Intn(2) == 0 {
			opt.VLOf = vlByDLID
		}
		var e verify.Epochs
		c := change{rng: rng, tr: tr, e: &e, pristine: sn.LFTs}
		for epoch := 0; epoch < 16; epoch++ {
			if epoch > 0 {
				for k := 1 + rng.Intn(4); k > 0; k-- {
					in.DeadLinks = c.apply(in.LFTs, in.DeadLinks)
				}
			}
			warnings, ok, err := e.Check(in, opt)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := verify.Run(in, opt)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case ok && (rep.Errors() != 0 || rep.Warnings() != warnings):
				t.Fatalf("seed %d epoch %d: Epochs clean with %d warnings; Run: %d errors, %d warnings",
					seed, epoch, warnings, rep.Errors(), rep.Warnings())
			case !ok && rep.Errors() == 0 && rep.Stats.Suppressed == 0:
				t.Fatalf("seed %d epoch %d: Epochs unclean; Run: no error, %d warnings", seed, epoch, rep.Warnings())
			case ok:
				clean++
			default:
				unclean++
			}
		}
	}
	if clean == 0 || unclean == 0 {
		t.Fatalf("%d clean and %d unclean epochs: the changes exercise one side only", clean, unclean)
	}
}

// TestEpochsOnFixtures seeds one recycled Epochs (Reset between inputs)
// on every defect fixture, an orphaned LID and an LMC-block overlap, with
// one shared dependency graph and with one per lane: it must report the
// fabric clean exactly when Run finds no error, and then Run's warning
// count. The credit-cycle fixture has no reachability defect, so only the
// cycle search can find it unclean.
func TestEpochsOnFixtures(t *testing.T) {
	shrunk := func(t *testing.T, lmc uint8, base func(sn *ib.Subnet) ib.LID) verify.Input {
		sn := configured(t, 4, 2, core.NewMLID())
		in := verify.FromSubnet(sn)
		in.Endports = append([]ib.LIDRange(nil), sn.Endports...)
		in.Endports[1] = ib.LIDRange{Base: base(sn), LMC: lmc}
		return in
	}
	fixtures := []struct {
		name string
		in   func(*testing.T) verify.Input
	}{
		{"loop", func(t *testing.T) verify.Input { return verify.FromSubnet(loopFixture(t)) }},
		{"dead-end", func(t *testing.T) verify.Input { return verify.FromSubnet(deadEndFixture(t)) }},
		{"misdelivery", func(t *testing.T) verify.Input { return verify.FromSubnet(misdeliveryFixture(t)) }},
		{"credit-cycle", func(t *testing.T) verify.Input { return verify.FromSubnet(creditCycleFixture(t)) }},
		{"spine-loop", func(t *testing.T) verify.Input { return verify.FromSubnet(spineLoopFixture(t)) }},
		{"orphan", func(t *testing.T) verify.Input {
			return shrunk(t, 0, func(sn *ib.Subnet) ib.LID { return sn.Endports[1].Base })
		}},
		{"overlap", func(t *testing.T) verify.Input {
			return shrunk(t, 1, func(sn *ib.Subnet) ib.LID { return sn.Endports[0].Base })
		}},
	}
	var e verify.Epochs
	for _, fx := range fixtures {
		for _, vlOf := range []func(ib.LID, int) int{nil, vlByDLID} {
			in := fx.in(t)
			opt := verify.Options{VLs: 2, VLOf: vlOf, SkipQuality: true}
			e.Reset()
			warnings, clean, err := e.Check(in, opt)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := verify.Run(in, opt)
			if err != nil {
				t.Fatal(err)
			}
			if clean != (rep.Errors() == 0) || clean && warnings != rep.Warnings() {
				t.Errorf("%s, per-lane graphs %v: Epochs clean %v with %d warnings; Run: %d errors, %d warnings",
					fx.name, vlOf != nil, clean, warnings, rep.Errors(), rep.Warnings())
			}
		}
	}
}

// change applies random changes to a fabric under verification, reporting
// each to e before it lands, as the simulator does: a link toggled down or
// up, an entry rewritten to another port, to no port or to an invalid one
// (often a defect), or a rewritten entry restored from the pristine tables,
// which takes the fabric back toward clean.
type change struct {
	rng      *rand.Rand
	tr       *topology.Tree
	e        *verify.Epochs
	pristine []*ib.LFT
	written  [][2]int // (switch, LID) entries rewritten and not yet restored
}

// apply makes one change and returns the new dead-link list.
func (c *change) apply(lfts []*ib.LFT, dead [][2]int32) [][2]int32 {
	rng, tr := c.rng, c.tr
	sw, port := rng.Intn(tr.Switches()), rng.Intn(tr.M())
	switch k := rng.Intn(3); {
	case k == 0:
		c.e.TouchLink(int32(sw), port)
		for i, d := range dead {
			if d == [2]int32{int32(sw), int32(port)} {
				return append(dead[:i:i], dead[i+1:]...)
			}
		}
		return append(dead[:len(dead):len(dead)], [2]int32{int32(sw), int32(port)})
	case k == 1 && len(c.written) > 0:
		i := rng.Intn(len(c.written))
		w := c.written[i]
		c.written = append(c.written[:i], c.written[i+1:]...)
		c.set(lfts, w[0], ib.LID(w[1]), c.pristine[w[0]].Port(ib.LID(w[1])))
		return dead
	}
	lid := ib.LID(1 + rng.Intn(lfts[sw].Size()-1))
	phys := uint8(1 + rng.Intn(tr.M()))
	switch rng.Intn(8) {
	case 0:
		phys = ib.PortNone
	case 1:
		phys = uint8(tr.M() + 1) // no such port
	}
	c.written = append(c.written, [2]int{sw, int(lid)})
	c.set(lfts, sw, lid, phys)
	return dead
}

// set touches lid, then writes the entry.
func (c *change) set(lfts []*ib.LFT, sw int, lid ib.LID, phys uint8) {
	c.e.Touch(lid)
	if err := lfts[sw].Set(lid, phys); err != nil {
		panic(err)
	}
}
