package verify_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/golden"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
	"mlid/internal/verify"
)

// vlByDLID is the simulator's static DLID-to-lane mapping.
func vlByDLID(dlid ib.LID, vls int) int { return int(dlid) % vls }

// reportJSON renders a report the way ibverify -json does.
func reportJSON(t *testing.T, rep *verify.Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDefectReportsPinned pins the complete JSON and human report of every
// defect fixture, with VLOf nil (one shared dependency graph) and set (one
// graph per lane): findings, their order, witnesses and Stats must stay
// byte for byte what testdata/defect_reports.golden holds. The fixtures
// cover every finding kind a fat-tree can produce; an unwired port, the
// one left out, exists on no m-port n-tree. Each fixture also runs at
// Parallelism 4, which must change nothing: the option has no effect.
func TestDefectReportsPinned(t *testing.T) {
	// endports returns a configured FT(4,2) MLID input whose endport
	// ranges edit may change.
	endports := func(t *testing.T, edit func(eps []ib.LIDRange)) verify.Input {
		in := verify.FromSubnet(configured(t, 4, 2, core.NewMLID()))
		in.Endports = append([]ib.LIDRange(nil), in.Endports...)
		edit(in.Endports)
		return in
	}
	fixtures := []struct {
		name  string
		in    func(*testing.T) verify.Input
		flows []traffic.Flow
	}{
		{"loop", func(t *testing.T) verify.Input { return verify.FromSubnet(loopFixture(t)) }, nil},
		{"dead-end", func(t *testing.T) verify.Input { return verify.FromSubnet(deadEndFixture(t)) }, nil},
		{"misdelivery", func(t *testing.T) verify.Input { return verify.FromSubnet(misdeliveryFixture(t)) }, nil},
		{"credit-cycle", func(t *testing.T) verify.Input { return verify.FromSubnet(creditCycleFixture(t)) }, nil},
		{"spine-loop", func(t *testing.T) verify.Input { return verify.FromSubnet(spineLoopFixture(t)) }, nil},
		{"dead-link", func(t *testing.T) verify.Input {
			sn := configured(t, 4, 2, core.NewMLID())
			leaf, _ := sn.Tree.NodeAttachment(0)
			in := verify.FromSubnet(sn)
			in.DeadLinks = [][2]int32{{int32(leaf), int32(sn.Tree.DownPorts(leaf))}}
			return in
		}, nil},
		{"invalid-port", func(t *testing.T) verify.Input {
			sn := configured(t, 4, 2, core.NewSLID())
			leaf, _ := sn.Tree.NodeAttachment(0)
			if err := sn.LFTs[leaf].Set(sn.Endports[sn.Tree.Nodes()-1].Base, uint8(sn.Tree.M()+1)); err != nil {
				t.Fatal(err)
			}
			return verify.FromSubnet(sn)
		}, nil},
		{"over-long", func(t *testing.T) verify.Input { return verify.FromSubnet(overlongFixture(t)) }, nil},
		{"base-lid-0", func(t *testing.T) verify.Input {
			return endports(t, func(eps []ib.LIDRange) { eps[1].Base = 0 })
		}, nil},
		{"beyond-table", func(t *testing.T) verify.Input {
			return endports(t, func(eps []ib.LIDRange) { eps[len(eps)-1].LMC++ })
		}, nil},
		{"overlap", func(t *testing.T) verify.Input {
			return endports(t, func(eps []ib.LIDRange) { eps[1] = eps[0] })
		}, nil},
		{"orphan", func(t *testing.T) verify.Input {
			return endports(t, func(eps []ib.LIDRange) { eps[1].LMC = 0 })
		}, nil},
		{"scheme-lmc", func(t *testing.T) verify.Input {
			in := verify.FromSubnet(configured(t, 4, 2, core.NewMLID()))
			in.Engine = wideLMC{in.Engine}
			return in
		}, nil},
		{"flows", func(t *testing.T) verify.Input {
			return verify.FromSubnet(configured(t, 4, 2, core.NewMLID()))
		}, []traffic.Flow{{Src: 0, Dst: 7, Weight: 1}, {Src: 1, Dst: 7, Weight: 2.5}, {Src: 3, Dst: 3, Weight: 1}, {Src: 6, Dst: 2, Weight: 0.5}}},
	}
	var got bytes.Buffer
	for _, fx := range fixtures {
		for _, vlOf := range []func(ib.LID, int) int{nil, vlByDLID} {
			name := fmt.Sprintf("%s vlof=%v", fx.name, vlOf != nil)
			var serial string
			for _, par := range []int{1, 4} {
				rep, err := verify.Run(fx.in(t), verify.Options{VLs: 2, VLOf: vlOf, Flows: fx.flows, Parallelism: par})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var human strings.Builder
				rep.WriteHuman(&human)
				js := reportJSON(t, rep) + "-- human\n" + human.String()
				if par == 1 {
					serial = js
				} else if js != serial {
					t.Fatalf("%s: parallel report differs from serial:\n%s\nvs\n%s", name, js, serial)
				}
			}
			fmt.Fprintf(&got, "== %s\n%s", name, serial)
		}
	}
	golden.Check(t, filepath.Join("testdata", "defect_reports.golden"), got.Bytes())
}

// spineLoopFixture corrupts FT(4,3) MLID tables so one DLID bounces
// between a mid-level switch and a root no other route reaches for that
// DLID. The loop's closing dependency (root -> mid, then mid -> root again)
// is recorded only by the walk that detects the loop, so the credit cycle
// the fixture reports exists only if that walk records the closing edge.
func spineLoopFixture(t *testing.T) *ib.Subnet {
	sn := configured(t, 4, 3, core.NewMLID())
	tr := sn.Tree
	dst := topology.NodeID(tr.Nodes() - 1) // in another pod than node 0
	lid := sn.Endports[dst].Base
	leaf, _ := tr.NodeAttachment(0)
	mid := tr.SwitchNeighbor(leaf, int(sn.LFTs[leaf].Port(lid))-1).Switch
	up := int(sn.LFTs[mid].Port(lid)) - 1
	if up < tr.DownPorts(mid) {
		t.Fatalf("mid switch %s routes DLID %d down", tr.SwitchLabel(mid), lid)
	}
	// The mid switch's other up-link leads to a root the DLID never uses.
	other := tr.DownPorts(mid) + (up-tr.DownPorts(mid)+1)%tr.H()
	root := tr.SwitchNeighbor(mid, other).Switch
	mustSet(t, sn.LFTs[mid], lid, other)
	mustSet(t, sn.LFTs[root], lid, portTo(tr, root, mid))
	return sn
}

// overlongFixture routes one FT(4,3) MLID DLID from node 0's leaf along a
// path of 2n+3 distinct switches, so the walk crosses its 2n+2-switch
// bound without revisiting a switch: no loop, and no delivery.
func overlongFixture(t *testing.T) *ib.Subnet {
	sn := configured(t, 4, 3, core.NewMLID())
	tr := sn.Tree
	lid := sn.Endports[tr.Nodes()-1].Base
	leaf, _ := tr.NodeAttachment(0)
	path := []topology.SwitchID{leaf}
	var extend func() bool
	extend = func() bool {
		if len(path) == 2*tr.N()+3 {
			return true
		}
		for p := 0; p < tr.M(); p++ {
			ref := tr.SwitchNeighbor(path[len(path)-1], p)
			if ref.Kind != topology.KindSwitch || slices.Contains(path, ref.Switch) {
				continue
			}
			if path = append(path, ref.Switch); extend() {
				return true
			}
			path = path[:len(path)-1]
		}
		return false
	}
	if !extend() {
		t.Fatalf("no simple path of %d switches on %s", 2*tr.N()+3, tr)
	}
	for i := 0; i+1 < len(path); i++ {
		mustSet(t, sn.LFTs[path[i]], lid, portTo(tr, path[i], path[i+1]))
	}
	return sn
}

// wideLMC is a routing engine asking for an LMC past the 3-bit field.
type wideLMC struct{ ib.RoutingEngine }

func (wideLMC) LMC(*topology.Tree) uint8 { return ib.MaxLMC + 1 }

// degradedFT83 is an FT(8,3) MLID fabric with eight dead up-links and
// unrepaired tables: every entry routed onto a dead link is a warning,
// hundreds of them, so the finding cap binds.
func degradedFT83(t *testing.T) verify.Input {
	sn := configured(t, 8, 3, core.NewMLID())
	tr := sn.Tree
	in := verify.FromSubnet(sn)
	for i := 0; i < 8; i++ {
		leaf, _ := tr.NodeAttachment(topology.NodeID(i * 16))
		in.DeadLinks = append(in.DeadLinks, [2]int32{int32(leaf), int32(tr.H() + i%tr.H())})
	}
	return in
}

// TestCapAndParallelEquivalence: at every finding cap the capped findings
// are the per-analyzer in-order prefix of the unlimited run's, every
// finding the cap drops is counted in Suppressed, and setting Parallelism
// (which has no effect) leaves the report equal.
func TestCapAndParallelEquivalence(t *testing.T) {
	in := degradedFT83(t)
	run := func(maxFindings, par int) *verify.Report {
		rep, err := verify.Run(in, verify.Options{VLs: 2, VLOf: vlByDLID, SkipQuality: true,
			MaxFindings: maxFindings, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	all := run(-1, 1)
	if all.Stats.Suppressed != 0 {
		t.Fatalf("unlimited run suppressed %d findings", all.Stats.Suppressed)
	}
	if all.Errors() != 0 || all.Warnings() < 4*64 {
		t.Fatalf("fixture should yield many warnings and no errors, got %d warnings, %d errors",
			all.Warnings(), all.Errors())
	}
	for _, maxFindings := range []int{1, 64, -1} {
		serial := run(maxFindings, 1)
		if par := run(maxFindings, 4); !reflect.DeepEqual(serial, par) {
			t.Fatalf("MaxFindings %d: parallel report differs from serial:\n%+v\n%+v", maxFindings, serial.Stats, par.Stats)
		}
		var want []verify.Finding
		kept := map[string]int{}
		for _, f := range all.Findings() {
			if maxFindings < 0 || kept[f.Analyzer] < maxFindings {
				kept[f.Analyzer]++
				want = append(want, f)
			}
		}
		if !reflect.DeepEqual(serial.Findings(), want) {
			t.Fatalf("MaxFindings %d: %d findings are not the in-order prefix (%d) of the unlimited run's",
				maxFindings, len(serial.Findings()), len(want))
		}
		if got, wantN := serial.Stats.Suppressed, len(all.Findings())-len(want); got != wantN {
			t.Fatalf("MaxFindings %d: Suppressed %d, want %d", maxFindings, got, wantN)
		}
		stats := serial.Stats
		stats.Suppressed = 0
		if !reflect.DeepEqual(stats, all.Stats) {
			t.Fatalf("MaxFindings %d: stats %+v, unlimited %+v", maxFindings, serial.Stats, all.Stats)
		}
	}
}

// epochInputs returns BenchmarkVerifyEpoch's two inputs and options: a
// healthy FT(8,3) MLID fabric, and one whose tables core.RepairSubnet left
// after a fixed four-link fault (three leaf up-links and a root's
// descending link), whose broken descending entries are warnings; 2 VLs
// mapped by DLID, quality skipped, serial walk.
func epochInputs(t testing.TB) (healthy, repaired verify.Input, opt verify.Options) {
	t.Helper()
	sn := configured(t, 8, 3, core.NewMLID())
	fs, dead := epochFaults(sn.Tree)
	fixed := configured(t, 8, 3, core.NewMLID())
	if _, _, err := core.RepairSubnet(fixed, fs); err != nil {
		t.Fatal(err)
	}
	repaired = verify.FromSubnet(fixed)
	repaired.DeadLinks = dead
	return verify.FromSubnet(sn), repaired, verify.Options{VLs: 2, VLOf: vlByDLID, SkipQuality: true}
}

// epochFaults is epochInputs' fixed four-link fault on an FT(8,3): three
// leaf up-links and a root's descending link, as a fault set and as the
// dead-link list verify.Input takes.
func epochFaults(tr *topology.Tree) (*core.FaultSet, [][2]int32) {
	fs := core.NewFaultSet()
	var dead [][2]int32
	for _, node := range []topology.NodeID{0, 37, 90} {
		leaf, _ := tr.NodeAttachment(node)
		port := tr.H() + int(node)%tr.H()
		fs.FailLink(tr, leaf, port)
		dead = append(dead, [2]int32{int32(leaf), int32(port)})
	}
	fs.FailLink(tr, 0, 3) // a root's descending link
	dead = append(dead, [2]int32{0, 3})
	return fs, dead
}

// TestVerifyAllocs: the safety pass allocates per switch and per formatted
// finding, never per route walked — at most one allocation per hundred
// routes on a healthy FT(8,3) MLID fabric and on a repaired degraded one.
func TestVerifyAllocs(t *testing.T) {
	healthy, repaired, opt := epochInputs(t)
	for _, c := range []struct {
		name string
		in   verify.Input
	}{{"healthy", healthy}, {"repaired", repaired}} {
		rep, err := verify.Run(c.in, opt)
		if err != nil {
			t.Fatal(err)
		}
		if c.name == "repaired" && rep.Warnings() == 0 {
			t.Fatal("repaired fabric should keep broken-entry warnings")
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := verify.Run(c.in, opt); err != nil {
				t.Fatal(err)
			}
		})
		if bound := float64(rep.Stats.RoutesChecked / 100); allocs > bound {
			t.Errorf("%s: %.0f allocations per Run over %d routes and %d findings, want <= %.0f",
				c.name, allocs, rep.Stats.RoutesChecked, len(rep.Findings()), bound)
		}
	}
}

// TestRunIndependentOfPooledRuns: Runs recycle their state through a pool,
// so a Run that leaked state into the next, or two concurrent Runs that
// shared one arena, would make a report depend on what ran before it.
// Large and small inputs — capped and not, with and without the quality
// pass and a credit cycle to search, some setting the no-op Parallelism —
// run interleaved on concurrent goroutines, and every report must equal the
// one a serial run produced up front.
func TestRunIndependentOfPooledRuns(t *testing.T) {
	large := degradedFT83(t)
	small := verify.FromSubnet(configured(t, 4, 2, core.NewMLID()))
	leaf, _ := small.Tree.NodeAttachment(0)
	small.DeadLinks = [][2]int32{{int32(leaf), int32(small.Tree.H())}}
	cycle := verify.FromSubnet(creditCycleFixture(t))
	cases := []struct {
		in  verify.Input
		opt verify.Options
	}{
		{large, verify.Options{VLs: 2, VLOf: vlByDLID, SkipQuality: true}},
		{small, verify.Options{VLs: 2}},
		{large, verify.Options{VLs: 2, MaxFindings: -1, Parallelism: 2}},
		{cycle, verify.Options{VLs: 2, VLOf: vlByDLID, Parallelism: 3}},
	}
	want := make([]*verify.Report, len(cases))
	for i, c := range cases {
		rep, err := verify.Run(c.in, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	const goroutines = 3
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for k := range cases {
				i := (g + k) % len(cases)
				rep, err := verify.Run(cases[i].in, cases[i].opt)
				if err == nil && !reflect.DeepEqual(rep, want[i]) {
					err = fmt.Errorf("case %d after %d prior runs: report differs from the serial run:\n%+v\n%+v",
						i, k, rep.Stats, want[i].Stats)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestDeadLinkInputRejected: a dead link naming no switch, or a port past
// the switch's radix, is an input error naming the entry — never silently
// skipped, which would verify a typo'd fault as a healthy fabric.
func TestDeadLinkInputRejected(t *testing.T) {
	sn := configured(t, 4, 2, core.NewMLID())
	for _, bad := range [][2]int32{
		{int32(sn.Tree.Switches()), 0},
		{-1, 0},
		{0, int32(sn.Tree.M())},
		{0, -1},
	} {
		in := verify.FromSubnet(sn)
		in.DeadLinks = [][2]int32{{0, 0}, bad}
		_, err := verify.Run(in, verify.Options{})
		if err == nil {
			t.Fatalf("dead link %v accepted", bad)
		}
		if want := fmt.Sprintf("dead link 1 (switch %d, port %d)", bad[0], bad[1]); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name the entry (%q)", err, want)
		}
	}
}
