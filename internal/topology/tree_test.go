package topology

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadParams(t *testing.T) {
	cases := []struct{ m, n int }{
		{0, 2}, {2, 2}, {3, 2}, {6, 2}, {5, 2}, {-4, 2}, {4, 0}, {4, -1}, {7, 3},
	}
	for _, c := range cases {
		if _, err := New(c.m, c.n); err == nil {
			t.Errorf("New(%d,%d): expected error", c.m, c.n)
		}
	}
}

func TestNewAcceptsValidParams(t *testing.T) {
	cases := []struct{ m, n int }{{4, 1}, {4, 2}, {4, 3}, {8, 2}, {8, 3}, {16, 2}, {32, 2}, {64, 1}}
	for _, c := range cases {
		if _, err := New(c.m, c.n); err != nil {
			t.Errorf("New(%d,%d): %v", c.m, c.n, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(3,1) did not panic")
		}
	}()
	MustNew(3, 1)
}

// TestPaperCounts verifies the counting formulas against the paper's 4-port
// 3-tree example: 16 processing nodes, 20 communication switches, with level
// populations 4/8/8.
func TestPaperCounts(t *testing.T) {
	tr := MustNew(4, 3)
	if got := tr.Nodes(); got != 16 {
		t.Errorf("Nodes() = %d, want 16", got)
	}
	if got := tr.Switches(); got != 20 {
		t.Errorf("Switches() = %d, want 20", got)
	}
	if got := tr.SwitchesInLevel(0); got != 4 {
		t.Errorf("SwitchesInLevel(0) = %d, want 4", got)
	}
	for lvl := 1; lvl <= 2; lvl++ {
		if got := tr.SwitchesInLevel(lvl); got != 8 {
			t.Errorf("SwitchesInLevel(%d) = %d, want 8", lvl, got)
		}
	}
}

func TestCountsTable(t *testing.T) {
	cases := []struct {
		m, n            int
		nodes, switches int
	}{
		{4, 1, 4, 1},
		{4, 2, 8, 6},
		{4, 3, 16, 20},
		{4, 4, 32, 56},
		{8, 2, 32, 12},
		{8, 3, 128, 80},
		{16, 2, 128, 24},
		{32, 2, 512, 48},
	}
	for _, c := range cases {
		tr := MustNew(c.m, c.n)
		if tr.Nodes() != c.nodes || tr.Switches() != c.switches {
			t.Errorf("FT(%d,%d): got %d nodes %d switches, want %d/%d",
				c.m, c.n, tr.Nodes(), tr.Switches(), c.nodes, c.switches)
		}
		if tr.Levels() != c.n {
			t.Errorf("FT(%d,%d): Levels() = %d, want %d", c.m, c.n, tr.Levels(), c.n)
		}
	}
}

func TestNodeDigitsRoundTrip(t *testing.T) {
	for _, tr := range testTrees() {
		for id := 0; id < tr.Nodes(); id++ {
			d := tr.NodeDigits(NodeID(id))
			back, err := tr.NodeFromDigits(d)
			if err != nil {
				t.Fatalf("%s node %d digits %v: %v", tr, id, d, err)
			}
			if back != NodeID(id) {
				t.Fatalf("%s node %d round-trips to %d via %v", tr, id, back, d)
			}
			for i := range d {
				if got := tr.NodeDigit(NodeID(id), i); got != d[i] {
					t.Fatalf("%s NodeDigit(%d,%d) = %d, want %d", tr, id, i, got, d[i])
				}
			}
		}
	}
}

func TestNodeDigitRanges(t *testing.T) {
	for _, tr := range testTrees() {
		for id := 0; id < tr.Nodes(); id++ {
			d := tr.NodeDigits(NodeID(id))
			if d[0] < 0 || d[0] >= tr.M() {
				t.Fatalf("%s node %d digit 0 = %d out of [0,%d)", tr, id, d[0], tr.M())
			}
			for i := 1; i < len(d); i++ {
				if d[i] < 0 || d[i] >= tr.H() {
					t.Fatalf("%s node %d digit %d = %d out of [0,%d)", tr, id, i, d[i], tr.H())
				}
			}
		}
	}
}

func TestNodeFromDigitsRejects(t *testing.T) {
	tr := MustNew(4, 3)
	bad := [][]int{
		{0, 0},       // too short
		{0, 0, 0, 0}, // too long
		{4, 0, 0},    // digit 0 too large (m = 4 allows 0..3)
		{-1, 0, 0},   // negative
		{0, 2, 0},    // digit 1 too large (h = 2 allows 0..1)
		{0, 0, 2},    // digit 2 too large
	}
	for _, d := range bad {
		if _, err := tr.NodeFromDigits(d); err == nil {
			t.Errorf("NodeFromDigits(%v): expected error", d)
		}
	}
	if _, err := tr.NodeFromDigits([]int{3, 1, 1}); err != nil {
		t.Errorf("NodeFromDigits(311): %v", err)
	}
}

func TestSwitchDigitsRoundTrip(t *testing.T) {
	for _, tr := range testTrees() {
		for id := 0; id < tr.Switches(); id++ {
			d, lvl := tr.SwitchDigits(SwitchID(id))
			back, err := tr.SwitchFromDigits(d, lvl)
			if err != nil {
				t.Fatalf("%s switch %d digits %v level %d: %v", tr, id, d, lvl, err)
			}
			if back != SwitchID(id) {
				t.Fatalf("%s switch %d round-trips to %d", tr, id, back)
			}
		}
	}
}

// TestDownPortToward holds Case 1's prefix compare to its definition on
// every (switch, node) pair: dst lies below SW<w, l> exactly when
// w0..w[l-1] == p0..p[l-1], compared digit by digit, and the port is p_l.
func TestDownPortToward(t *testing.T) {
	for _, tr := range testTrees() {
		for sw := 0; sw < tr.Switches(); sw++ {
			w, level := tr.SwitchDigits(SwitchID(sw))
			for dst := 0; dst < tr.Nodes(); dst++ {
				p := tr.NodeDigits(NodeID(dst))
				below := true
				for i := 0; i < level; i++ {
					below = below && w[i] == p[i]
				}
				port, ok := tr.DownPortToward(SwitchID(sw), NodeID(dst))
				if ok != below || (ok && port != p[level]) {
					t.Fatalf("%s: DownPortToward(%s, %s) = %d,%v, want %d,%v",
						tr, tr.SwitchLabel(SwitchID(sw)), tr.NodeLabel(NodeID(dst)), port, ok, p[level], below)
				}
			}
		}
	}
}

func TestSwitchFromDigitsRejects(t *testing.T) {
	tr := MustNew(4, 3)
	if _, err := tr.SwitchFromDigits([]int{0}, 0); err == nil {
		t.Error("short label: expected error")
	}
	if _, err := tr.SwitchFromDigits([]int{0, 0}, 3); err == nil {
		t.Error("level 3: expected error")
	}
	if _, err := tr.SwitchFromDigits([]int{0, 0}, -1); err == nil {
		t.Error("level -1: expected error")
	}
	// Level 0 restricts digit 0 to [0, h).
	if _, err := tr.SwitchFromDigits([]int{2, 0}, 0); err == nil {
		t.Error("level-0 digit 0 = 2: expected error")
	}
	// Level >= 1 allows digit 0 in [0, m).
	if _, err := tr.SwitchFromDigits([]int{3, 1}, 1); err != nil {
		t.Errorf("level-1 digit 0 = 3: %v", err)
	}
	if _, err := tr.SwitchFromDigits([]int{0, 2}, 1); err == nil {
		t.Error("digit 1 = 2: expected error")
	}
}

// TestPaperLevelSets verifies the level-0/1/2 switch label sets of the paper's
// 4-port 3-tree example.
func TestPaperLevelSets(t *testing.T) {
	tr := MustNew(4, 3)
	// Level 0: {<00,0>, <01,0>, <10,0>, <11,0>} (digits in [0,2)).
	want0 := map[string]bool{"SW<00,0>": true, "SW<01,0>": true, "SW<10,0>": true, "SW<11,0>": true}
	// Levels 1 and 2: digit 0 in [0,4), digit 1 in [0,2): 8 switches each.
	got := map[int]map[string]bool{0: {}, 1: {}, 2: {}}
	for id := 0; id < tr.Switches(); id++ {
		lbl := tr.SwitchLabel(SwitchID(id))
		got[tr.SwitchLevel(SwitchID(id))][lbl] = true
	}
	if len(got[0]) != 4 || len(got[1]) != 8 || len(got[2]) != 8 {
		t.Fatalf("level sizes = %d/%d/%d, want 4/8/8", len(got[0]), len(got[1]), len(got[2]))
	}
	for lbl := range want0 {
		if !got[0][lbl] {
			t.Errorf("missing level-0 switch %s", lbl)
		}
	}
	for _, lbl := range []string{"SW<30,1>", "SW<31,2>", "SW<00,1>", "SW<21,2>"} {
		found := false
		for lvl := 0; lvl < 3; lvl++ {
			if got[lvl][lbl] {
				found = true
			}
		}
		if !found {
			t.Errorf("missing switch %s", lbl)
		}
	}
}

// TestPaperEdgeExample verifies the paper's worked connection example for the
// 4-port 3-tree: SW<w,l> and SW<w',l+1> are connected with k = w'_l and
// k' = w_l + m/2, and leaf port p[n-1] holds node P(p).
func TestPaperEdgeExample(t *testing.T) {
	tr := MustNew(4, 3)
	// Take SW<01,0> (level 0). Its port k connects to level-1 switch with
	// digit 0 replaced by k: SW<k 1, 1>, arriving on port w_0 + h = 0 + 2.
	s0, err := tr.SwitchFromDigits([]int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		ref := tr.SwitchNeighbor(s0, k)
		if ref.Kind != KindSwitch {
			t.Fatalf("SW<01,0> port %d: %v", k, ref)
		}
		want, _ := tr.SwitchFromDigits([]int{k, 1}, 1)
		if ref.Switch != want || ref.Port != 0+2 {
			t.Fatalf("SW<01,0> port %d = %s port %d, want %s port 2",
				k, tr.SwitchLabel(ref.Switch), ref.Port, tr.SwitchLabel(want))
		}
	}
	// Leaf attachment: SW<11,2> port 1 holds P(111).
	leaf, err := tr.SwitchFromDigits([]int{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := tr.SwitchNeighbor(leaf, 1)
	node, _ := tr.NodeFromDigits([]int{1, 1, 1})
	if ref.Kind != KindNode || ref.Node != node {
		t.Fatalf("SW<11,2> port 1 = %v, want node P(111) (%d)", ref, node)
	}
}

func TestValidateAll(t *testing.T) {
	for _, tr := range testTrees() {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", tr, err)
		}
	}
}

func TestNodeAttachmentMatchesNeighbor(t *testing.T) {
	for _, tr := range testTrees() {
		for id := 0; id < tr.Nodes(); id++ {
			sw, port := tr.NodeAttachment(NodeID(id))
			ref := tr.SwitchNeighbor(sw, port)
			if ref.Kind != KindNode || ref.Node != NodeID(id) {
				t.Fatalf("%s node %d attach %s port %d, reverse %v",
					tr, id, tr.SwitchLabel(sw), port, ref)
			}
		}
	}
}

func TestSwitchNeighborOutOfRange(t *testing.T) {
	tr := MustNew(4, 2)
	if ref := tr.SwitchNeighbor(0, -1); ref.Kind != KindNone {
		t.Errorf("port -1: %v", ref)
	}
	if ref := tr.SwitchNeighbor(0, 4); ref.Kind != KindNone {
		t.Errorf("port 4: %v", ref)
	}
}

func TestLinksCount(t *testing.T) {
	for _, tr := range testTrees() {
		adj := tr.BuildAdjacency()
		// Count each bidirectional link once from the canonical side.
		count := 0
		for s := range adj.SwitchPeers {
			for k, ref := range adj.SwitchPeers[s] {
				switch ref.Kind {
				case KindNode:
					count++
				case KindSwitch:
					// Count downward links only (peer level greater).
					if tr.SwitchLevel(ref.Switch) > tr.SwitchLevel(SwitchID(s)) {
						count++
					}
				}
				_ = k
			}
		}
		if count != tr.Links() {
			t.Errorf("%s: counted %d links, Links() = %d", tr, count, tr.Links())
		}
	}
}

func TestLabels(t *testing.T) {
	tr := MustNew(4, 3)
	n, _ := tr.NodeFromDigits([]int{3, 0, 1})
	if got := tr.NodeLabel(n); got != "P(301)" {
		t.Errorf("NodeLabel = %q, want P(301)", got)
	}
	s, _ := tr.SwitchFromDigits([]int{2, 1}, 1)
	if got := tr.SwitchLabel(s); got != "SW<21,1>" {
		t.Errorf("SwitchLabel = %q, want SW<21,1>", got)
	}
	// Wide digits get dot separators.
	wide := MustNew(32, 2)
	wn, _ := wide.NodeFromDigits([]int{31, 15})
	if got := wide.NodeLabel(wn); got != "P(31.15)" {
		t.Errorf("wide NodeLabel = %q, want P(31.15)", got)
	}
}

// TestLabelsMatchFmt cross-checks every label of a narrow, a wide and a
// deep fabric against a plain fmt rendering of the digits.
func TestLabelsMatchFmt(t *testing.T) {
	render := func(d []int) string {
		wide := false
		for _, v := range d {
			wide = wide || v > 9
		}
		parts := make([]string, len(d))
		for i, v := range d {
			parts[i] = fmt.Sprint(v)
		}
		if wide {
			return strings.Join(parts, ".")
		}
		return strings.Join(parts, "")
	}
	for _, net := range [][2]int{{4, 3}, {32, 2}, {16, 3}, {4, 1}} {
		tr := MustNew(net[0], net[1])
		for s := 0; s < tr.Switches(); s++ {
			d, l := tr.SwitchDigits(SwitchID(s))
			if got, want := tr.SwitchLabel(SwitchID(s)), fmt.Sprintf("SW<%s,%d>", render(d), l); got != want {
				t.Fatalf("%s: SwitchLabel(%d) = %q, want %q", tr, s, got, want)
			}
		}
		for p := 0; p < tr.Nodes(); p++ {
			if got, want := tr.NodeLabel(NodeID(p)), "P("+render(tr.NodeDigits(NodeID(p)))+")"; got != want {
				t.Fatalf("%s: NodeLabel(%d) = %q, want %q", tr, p, got, want)
			}
		}
	}
}

func TestStringAndKindString(t *testing.T) {
	tr := MustNew(4, 2)
	if tr.String() != "FT(4,2): 8 nodes, 6 switches" {
		t.Errorf("String() = %q", tr.String())
	}
	if KindNode.String() != "node" || KindSwitch.String() != "switch" || KindNone.String() != "none" {
		t.Error("Kind.String mismatch")
	}
	ref := PortRef{Kind: KindNode, Node: 3}
	if ref.String() == "" {
		t.Error("empty PortRef string")
	}
	if (PortRef{Kind: KindNone}).String() != "none" {
		t.Error("none PortRef string")
	}
	if (PortRef{Kind: KindSwitch, Switch: 1, Port: 2}).String() == "" {
		t.Error("switch PortRef string")
	}
}

// Property: node digit round-trip over random ids on a larger tree.
func TestQuickNodeRoundTrip(t *testing.T) {
	tr := MustNew(16, 3)
	f := func(raw uint32) bool {
		id := NodeID(raw % uint32(tr.Nodes()))
		d := tr.NodeDigits(id)
		back, err := tr.NodeFromDigits(d)
		return err == nil && back == id
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: link symmetry on random (switch, port) pairs of a larger tree.
func TestQuickLinkSymmetry(t *testing.T) {
	tr := MustNew(16, 3)
	f := func(rawS, rawK uint32) bool {
		s := SwitchID(rawS % uint32(tr.Switches()))
		k := int(rawK % uint32(tr.M()))
		ref := tr.SwitchNeighbor(s, k)
		switch ref.Kind {
		case KindSwitch:
			back := tr.SwitchNeighbor(ref.Switch, ref.Port)
			return back.Kind == KindSwitch && back.Switch == s && back.Port == k
		case KindNode:
			sw, port := tr.NodeAttachment(ref.Node)
			return sw == s && port == k
		}
		return false
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: every up/down port pairing respects the paper's k' = w_l + h rule:
// ascending via port k from a switch at level l lands on a parent whose
// reciprocal port is a down port, and vice versa.
func TestQuickPortDirection(t *testing.T) {
	tr := MustNew(8, 3)
	f := func(rawS, rawK uint32) bool {
		s := SwitchID(rawS % uint32(tr.Switches()))
		k := int(rawK % uint32(tr.M()))
		ref := tr.SwitchNeighbor(s, k)
		if ref.Kind != KindSwitch {
			return true
		}
		down := k < tr.DownPorts(s)
		peerDown := ref.Port < tr.DownPorts(ref.Switch)
		return down != peerDown // one side descends, the other ascends
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// testTrees spans the label shapes the shift decoders must handle: the
// single switch, the paper's four networks, FT(32,2) with the widest digit
// and FT(4,8), the deepest tree.
func testTrees() []*Tree {
	return []*Tree{
		MustNew(4, 1), MustNew(4, 2), MustNew(4, 3), MustNew(4, 4),
		MustNew(8, 2), MustNew(8, 3), MustNew(16, 2), MustNew(32, 2),
		MustNew(4, 8),
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}
}
