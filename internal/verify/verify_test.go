package verify_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"mlid/internal/core"
	"mlid/internal/ib"
	"mlid/internal/topology"
	"mlid/internal/traffic"
	"mlid/internal/verify"
)

func configured(t testing.TB, m, n int, eng ib.RoutingEngine) *ib.Subnet {
	t.Helper()
	tr, err := topology.New(m, n)
	if err != nil {
		t.Fatalf("topology.New(%d,%d): %v", m, n, err)
	}
	sn, err := (&ib.SubnetManager{Tree: tr, Engine: eng}).Configure()
	if err != nil {
		t.Fatalf("Configure %s on FT(%d,%d): %v", eng.Name(), m, n, err)
	}
	return sn
}

// portTo returns the abstract port of from wired to switch to, or -1.
func portTo(tr *topology.Tree, from, to topology.SwitchID) int {
	for p := 0; p < tr.M(); p++ {
		if ref := tr.SwitchNeighbor(from, p); ref.Kind == topology.KindSwitch && ref.Switch == to {
			return p
		}
	}
	return -1
}

// findingWith returns the first finding of the analyzer whose message
// contains the substring.
func findingWith(rep *verify.Report, analyzer, substr string) (verify.Finding, bool) {
	for _, f := range rep.Findings() {
		if f.Analyzer == analyzer && strings.Contains(f.Message, substr) {
			return f, true
		}
	}
	var zero verify.Finding
	return zero, false
}

// TestGoldenFabricsVerifyClean proves the headline property: every golden
// fabric, both schemes, verifies with zero findings above Info — full
// reachability, deadlock freedom on every VL, consistent addressing.
func TestGoldenFabricsVerifyClean(t *testing.T) {
	for _, net := range [][2]int{{4, 4}, {8, 3}, {16, 2}, {32, 2}} {
		for _, eng := range []ib.RoutingEngine{core.NewSLID(), core.NewMLID()} {
			sn := configured(t, net[0], net[1], eng)
			rep, err := verify.Run(verify.FromSubnet(sn), verify.Options{VLs: 4})
			if err != nil {
				t.Fatalf("FT(%d,%d) %s: %v", net[0], net[1], eng.Name(), err)
			}
			if rep.Errors() != 0 || rep.Warnings() != 0 {
				rep.WriteHuman(testWriter{t})
				t.Fatalf("FT(%d,%d) %s: %d errors, %d warnings on a healthy fabric",
					net[0], net[1], eng.Name(), rep.Errors(), rep.Warnings())
			}
			if rep.Stats.RoutesChecked == 0 || rep.Stats.Channels == 0 || rep.Stats.Dependencies == 0 {
				t.Fatalf("FT(%d,%d) %s: empty stats %+v", net[0], net[1], eng.Name(), rep.Stats)
			}
			if len(rep.Stats.Quality) == 0 || rep.Stats.Quality[0].Unrouted != 0 {
				t.Fatalf("FT(%d,%d) %s: quality missing or unrouted flows: %+v",
					net[0], net[1], eng.Name(), rep.Stats.Quality)
			}
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestVerifyDeterministic runs the verifier twice over the same input and
// requires identical reports.
func TestVerifyDeterministic(t *testing.T) {
	sn := configured(t, 8, 3, core.NewMLID())
	a, err := verify.Run(verify.FromSubnet(sn), verify.Options{VLs: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := verify.Run(verify.FromSubnet(sn), verify.Options{VLs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("verify not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestForwardingLoopFinding corrupts a spine entry to bounce a DLID between
// a leaf and a root and expects a loop finding with the cycle as witness.
func TestForwardingLoopFinding(t *testing.T) {
	rep, err := verify.Run(verify.FromSubnet(loopFixture(t)), verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, ok := findingWith(rep, "reachability", "forwarding loop")
	if !ok {
		t.Fatalf("no forwarding-loop finding in %+v", rep.Findings())
	}
	if f.Severity != verify.Error || len(f.Witness) < 2 {
		t.Fatalf("loop finding not an error with cycle witness: %+v", f)
	}
}

// loopFixture corrupts FT(4,2) MLID tables so one DLID bounces between a
// leaf and a root.
func loopFixture(t *testing.T) *ib.Subnet {
	sn := configured(t, 4, 2, core.NewMLID())
	tr := sn.Tree
	// dst on a different leaf than node 0's.
	leaf0, _ := tr.NodeAttachment(0)
	dst := topology.NodeID(tr.Nodes() - 1)
	lid := sn.Endports[dst].Base
	var root topology.SwitchID
	for sw := 0; sw < tr.Switches(); sw++ {
		if tr.IsRoot(topology.SwitchID(sw)) {
			root = topology.SwitchID(sw)
			break
		}
	}
	// leaf0 -> root -> leaf0 -> ... : a two-switch forwarding loop.
	mustSet(t, sn.LFTs[leaf0], lid, portTo(tr, leaf0, root))
	mustSet(t, sn.LFTs[root], lid, portTo(tr, root, leaf0))
	return sn
}

// TestDeadEndFinding erases the destination leaf's entry for an assigned
// LID and expects a dead-end error.
func TestDeadEndFinding(t *testing.T) {
	rep, err := verify.Run(verify.FromSubnet(deadEndFixture(t)), verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, ok := findingWith(rep, "reachability", "dead end")
	if !ok {
		t.Fatalf("no dead-end finding in %+v", rep.Findings())
	}
	if f.Severity != verify.Error {
		t.Fatalf("dead end not an error: %+v", f)
	}
}

// deadEndFixture erases the FT(4,2) SLID destination leaf's entry for node
// 0's LID.
func deadEndFixture(t *testing.T) *ib.Subnet {
	sn := configured(t, 4, 2, core.NewSLID())
	dst := topology.NodeID(0)
	leaf, _ := sn.Tree.NodeAttachment(dst)
	if err := sn.LFTs[leaf].Set(sn.Endports[dst].Base, ib.PortNone); err != nil {
		t.Fatal(err)
	}
	return sn
}

// TestMisdeliveryFinding points a destination leaf's entry at the wrong
// node and expects a misdelivery error.
func TestMisdeliveryFinding(t *testing.T) {
	rep, err := verify.Run(verify.FromSubnet(misdeliveryFixture(t)), verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := findingWith(rep, "reachability", "misdelivery"); !ok || f.Severity != verify.Error {
		t.Fatalf("no misdelivery error in %+v", rep.Findings())
	}
}

// misdeliveryFixture points the FT(4,2) SLID destination leaf's entry for
// node 0 at its neighbor's port.
func misdeliveryFixture(t *testing.T) *ib.Subnet {
	sn := configured(t, 4, 2, core.NewSLID())
	tr := sn.Tree
	dst := topology.NodeID(0)
	leaf, attach := tr.NodeAttachment(dst)
	// The other node on the same leaf sits on a different down port.
	wrong := -1
	for p := 0; p < tr.DownPorts(leaf); p++ {
		if p != attach {
			wrong = p
			break
		}
	}
	mustSet(t, sn.LFTs[leaf], sn.Endports[dst].Base, wrong)
	return sn
}

// TestCreditCycleFinding rewires two DLIDs into down-up kinks that deliver
// correctly (reachability stays clean) but close a channel-dependency
// cycle; the deadlock analyzer must report the shortest witness cycle.
func TestCreditCycleFinding(t *testing.T) {
	rep, err := verify.Run(verify.FromSubnet(creditCycleFixture(t)), verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings() {
		if f.Analyzer == "reachability" && f.Severity == verify.Error {
			t.Fatalf("corruption was meant to deliver correctly, got %+v", f)
		}
	}
	f, ok := findingWith(rep, "deadlock", "channel-dependency cycle")
	if !ok {
		t.Fatalf("no deadlock finding in %+v", rep.Findings())
	}
	if f.Severity != verify.Error {
		t.Fatalf("deadlock finding not an error: %+v", f)
	}
	if len(f.Witness) != 4 {
		t.Fatalf("expected the shortest (4-channel) witness cycle, got %d: %v", len(f.Witness), f.Witness)
	}
}

// creditCycleFixture rewires two FT(4,2) MLID DLIDs into down-up kinks
// that deliver correctly but close a four-channel dependency cycle.
func creditCycleFixture(t *testing.T) *ib.Subnet {
	sn := configured(t, 4, 2, core.NewMLID())
	tr := sn.Tree
	var leaves, roots []topology.SwitchID
	for sw := 0; sw < tr.Switches(); sw++ {
		id := topology.SwitchID(sw)
		if tr.IsLeaf(id) {
			leaves = append(leaves, id)
		} else if tr.IsRoot(id) {
			roots = append(roots, id)
		}
	}
	if len(leaves) < 4 || len(roots) < 2 {
		t.Fatalf("unexpected FT(4,2) shape: %d leaves, %d roots", len(leaves), len(roots))
	}
	A, B, C, D := leaves[0], leaves[1], leaves[2], leaves[3]
	R0, R1 := roots[0], roots[1]
	nodeOn := func(leaf topology.SwitchID) topology.NodeID {
		for p := 0; p < tr.Nodes(); p++ {
			if sw, _ := tr.NodeAttachment(topology.NodeID(p)); sw == leaf {
				return topology.NodeID(p)
			}
		}
		t.Fatalf("no node on leaf %d", leaf)
		return 0
	}
	// lid1 -> node on B, routed A -> R0 -> C -> R1 -> B (kink at C).
	lid1 := sn.Endports[nodeOn(B)].Base
	mustSet(t, sn.LFTs[A], lid1, portTo(tr, A, R0))
	mustSet(t, sn.LFTs[R0], lid1, portTo(tr, R0, C))
	mustSet(t, sn.LFTs[C], lid1, portTo(tr, C, R1))
	mustSet(t, sn.LFTs[R1], lid1, portTo(tr, R1, B))
	// lid2 -> node on C, routed D -> R1 -> B -> R0 -> C (kink at B).
	lid2 := sn.Endports[nodeOn(C)].Base
	mustSet(t, sn.LFTs[D], lid2, portTo(tr, D, R1))
	mustSet(t, sn.LFTs[R1], lid2, portTo(tr, R1, B))
	mustSet(t, sn.LFTs[B], lid2, portTo(tr, B, R0))
	mustSet(t, sn.LFTs[R0], lid2, portTo(tr, R0, C))
	return sn
}

// TestLIDOverflowFinding: MLID on FT(16,3) needs 65,537 LIDs — one past the
// 16-bit space — and must surface as an addressing error, not a panic.
func TestLIDOverflowFinding(t *testing.T) {
	tr, err := topology.New(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	fs := verify.AddressingScheme(tr, core.NewMLID()).Findings()
	if len(fs) == 0 {
		t.Fatal("no addressing findings for MLID on FT(16,3)")
	}
	f := fs[0]
	if f.Severity != verify.Error || !strings.Contains(f.Message, "LID-space exhaustion") {
		t.Fatalf("unexpected finding: %+v", f)
	}
	if len(f.Witness) == 0 || !strings.Contains(f.Witness[0], "65537") {
		t.Fatalf("witness should carry the needed LID space: %+v", f.Witness)
	}
	// SLID fits the same fabric.
	if fs := verify.AddressingScheme(tr, core.NewSLID()).Findings(); len(fs) != 0 {
		t.Fatalf("SLID on FT(16,3) should be clean, got %+v", fs)
	}
}

// TestDeadLinkEntriesAreWarnings: stale entries pointing at a recorded dead
// link are fault-explained warnings, never errors; with the link dead and
// tables unrepaired, the fabric must still be loop- and deadlock-free.
func TestDeadLinkEntriesAreWarnings(t *testing.T) {
	sn := configured(t, 4, 2, core.NewMLID())
	leaf, _ := sn.Tree.NodeAttachment(0)
	up := sn.Tree.DownPorts(leaf) // first ascending port
	in := verify.FromSubnet(sn)
	in.DeadLinks = [][2]int32{{int32(leaf), int32(up)}}
	rep, err := verify.Run(in, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("dead-link entries produced errors: %+v", rep.Findings())
	}
	if rep.Warnings() == 0 {
		t.Fatal("expected down-link warnings for stale entries")
	}
	if _, ok := findingWith(rep, "reachability", "down link"); !ok {
		t.Fatalf("no down-link finding in %+v", rep.Findings())
	}
}

// TestRepairedTablesVerifyClean: after core.RepairSubnet the MLID fabric
// must verify with zero errors (broken descending entries remain warnings)
// and fault-avoiding reselection must leave no flow unrouted.
func TestRepairedTablesVerifyClean(t *testing.T) {
	sn := configured(t, 4, 2, core.NewMLID())
	tr := sn.Tree
	leaf, _ := tr.NodeAttachment(0)
	up := tr.DownPorts(leaf)
	fs := core.NewFaultSet()
	fs.FailLink(tr, leaf, up)
	if _, _, err := core.RepairSubnet(sn, fs); err != nil {
		t.Fatal(err)
	}
	scheme := core.NewMLID()
	in := verify.FromSubnet(sn)
	in.DeadLinks = [][2]int32{{int32(leaf), int32(up)}}
	in.SelectDLID = func(src, dst topology.NodeID) (ib.LID, bool) {
		lid, _, ok := core.SelectDLID(tr, scheme, src, dst, fs)
		return lid, ok
	}
	rep, err := verify.Run(in, verify.Options{VLs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		rep.WriteHuman(testWriter{t})
		t.Fatalf("repaired MLID tables produced %d errors", rep.Errors())
	}
	if len(rep.Stats.Quality) == 0 || rep.Stats.Quality[0].Unrouted != 0 {
		t.Fatalf("MLID reselection should route every flow around one dead spine link: %+v", rep.Stats.Quality)
	}
}

// TestDuplicateAndOrphanLIDFindings: an overlapping LMC block is an
// addressing error; a routed-but-unowned LID is an orphan warning.
func TestDuplicateAndOrphanLIDFindings(t *testing.T) {
	sn := configured(t, 4, 2, core.NewMLID())
	// Overlap: node 1's block moved onto node 0's.
	in := verify.FromSubnet(sn)
	in.Endports = append([]ib.LIDRange(nil), sn.Endports...)
	in.Endports[1] = ib.LIDRange{Base: sn.Endports[0].Base, LMC: sn.Endports[0].LMC}
	rep, err := verify.Run(in, verify.Options{SkipQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := findingWith(rep, "addressing", "LMC blocks overlap"); !ok || f.Severity != verify.Error {
		t.Fatalf("no overlap error in %+v", rep.Findings())
	}

	// Orphan: shrink node 0's range so its second LID is routed but unowned.
	in2 := verify.FromSubnet(sn)
	in2.Endports = append([]ib.LIDRange(nil), sn.Endports...)
	in2.Endports[0] = ib.LIDRange{Base: sn.Endports[0].Base, LMC: 0}
	rep2, err := verify.Run(in2, verify.Options{SkipQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	f, ok := findingWith(rep2, "addressing", "orphaned LID")
	if !ok || f.Severity != verify.Warning {
		t.Fatalf("no orphan warning in %+v", rep2.Findings())
	}
}

// TestReportJSON round-trips findings through the JSON-lines encoding.
func TestReportJSON(t *testing.T) {
	sn := configured(t, 4, 2, core.NewSLID())
	leaf, _ := sn.Tree.NodeAttachment(0)
	if err := sn.LFTs[leaf].Set(sn.Endports[0].Base, ib.PortNone); err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Run(verify.FromSubnet(sn), verify.Options{SkipQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rep.Findings())+1 {
		t.Fatalf("want %d JSON lines, got %d", len(rep.Findings())+1, len(lines))
	}
	var back verify.Finding
	if err := json.Unmarshal([]byte(lines[0]), &back); err != nil {
		t.Fatalf("finding line not JSON: %v", err)
	}
	if back.Severity != verify.Error || back.Analyzer == "" {
		t.Fatalf("round-trip lost fields: %+v", back)
	}
}

// mustSet writes an LFT entry from an abstract port, failing the test on a
// wiring mistake.
func mustSet(t *testing.T, lft *ib.LFT, lid ib.LID, abstract int) {
	t.Helper()
	if abstract < 0 {
		t.Fatal("portTo found no wire")
	}
	if err := lft.Set(lid, uint8(abstract+1)); err != nil {
		t.Fatal(err)
	}
}

// TestQualityMatrix: a matrix given as Options.Flows is traced like the
// default one. The all-to-all matrix spelled out as unit flows reproduces
// the default block exactly but for its label; doubling every weight
// doubles every load metric and leaves the flow counts and dilation alone;
// self-flows are skipped; an empty matrix traces nothing; and a flow naming
// no node is unusable input.
func TestQualityMatrix(t *testing.T) {
	sn := configured(t, 4, 3, core.NewMLID())
	n := sn.Tree.Nodes()
	quality := func(opt verify.Options) verify.QualityReport {
		t.Helper()
		rep, err := verify.Run(verify.FromSubnet(sn), opt)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats.Quality[0]
	}
	allToAll := func(w float64) []traffic.Flow {
		var flows []traffic.Flow
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				flows = append(flows, traffic.Flow{Src: topology.NodeID(s), Dst: topology.NodeID(d), Weight: w})
			}
		}
		return flows
	}

	def := quality(verify.Options{})
	unit := quality(verify.Options{Flows: allToAll(1)})
	unit.Matrix = def.Matrix
	if unit != def {
		t.Fatalf("spelled-out all-to-all differs from the default:\n%+v\n%+v", unit, def)
	}

	double := quality(verify.Options{Flows: allToAll(2)})
	if double.Flows != def.Flows || double.MeanDilation != def.MeanDilation || double.MaxLink != def.MaxLink ||
		double.MaxLoad != 2*def.MaxLoad || double.MeanLoad != 2*def.MeanLoad ||
		double.RootLinkMax != 2*def.RootLinkMax || double.RootLinkMin != 2*def.RootLinkMin {
		t.Fatalf("weight 2 block %+v is not the unit block doubled %+v", double, def)
	}

	if empty := quality(verify.Options{Flows: []traffic.Flow{}}); empty.Flows != 0 || empty.MaxLoad != 0 || empty.MaxLink != "" {
		t.Fatalf("empty matrix traced flows: %+v", empty)
	}

	for _, bad := range [][]traffic.Flow{
		{{Src: 0, Dst: topology.NodeID(n), Weight: 1}},
		{{Src: -1, Dst: 0, Weight: 1}},
		{{Src: 0, Dst: 1, Weight: -1}},
		{{Src: 0, Dst: 1, Weight: math.Inf(1)}},
		// Finite weights whose link-load sums overflow: their sum, and one
		// weight crossing several links.
		{{Src: 0, Dst: 5, Weight: math.MaxFloat64}, {Src: 1, Dst: 5, Weight: math.MaxFloat64}},
		{{Src: 0, Dst: topology.NodeID(n - 1), Weight: math.MaxFloat64}},
	} {
		if _, err := verify.Run(verify.FromSubnet(sn), verify.Options{Flows: bad}); err == nil {
			t.Fatalf("flows %+v accepted", bad)
		} else if bad[0].Weight == math.MaxFloat64 && !strings.Contains(err.Error(), "overflow") {
			t.Fatalf("flows %+v rejected without naming the overflow: %v", bad, err)
		}
	}
}
